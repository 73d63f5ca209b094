"""Tokenization and morphological matching against the lexicon.

Matching works on normalized tokens. A token is parsed by stripping an
optional inflectional ending, then splitting the base into at most one
prefix, a stem, and at most two suffixes drawn from the lexicon. Parses
are ranked: exact entry matches first, entry-backed stems second, novel
stems under a productive affix last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .lexicon import EXACT_KINDS, Lexicon, LexiconEntry

# Inflectional endings recognized when stripping (checked against the token
# end; listed here longest first for readability, order does not matter).
INFLECTIONS = ("ing", "ed", "es", "s")

MIN_STEM = 3  # shortest novel stem accepted under a productive affix
MIN_BASE = 3  # shortest base left behind by inflection stripping
VOWELS = frozenset("aeiou")

_WORD = re.compile(r"[^\W_]+", re.UNICODE)
_RUN3 = re.compile(r"([^\W\d_])\1\1+", re.UNICODE)
_RUN2 = re.compile(r"([^\W\d_])\1+", re.UNICODE)


@dataclass(frozen=True)
class Token:
    raw: str
    normalized: str
    start: int
    end: int
    elongated: bool


@dataclass(frozen=True)
class Segment:
    slice: str
    role: str  # "prefix" | "stem" | "suffix"
    entry: LexiconEntry | None


@dataclass(frozen=True)
class Parse:
    """One segmentation of a normalized token.

    token is the form the segments cover. It equals the normalized token
    except for elongation-rescue parses, where it is the further-collapsed
    form the second matching pass ran on.
    """

    token: str
    segments: tuple[Segment, ...]
    inflection: str
    dedoubled: bool
    specificity: int  # 1 exact entry, 2 entry-backed stem, 3 novel stem


@dataclass(frozen=True)
class Span:
    start: int
    end: int
    term: str  # the raw matched substring, as it appears in the text
    categories: frozenset[str]
    parse: Parse


@dataclass(frozen=True)
class Annotation:
    post_id: str
    spans: tuple[Span, ...]
    token_count: int
    matched_count: int


def normalize_token(raw: str) -> tuple[str, bool]:
    """Lowercase and collapse letter runs of three or more down to two."""
    lowered = raw.lower()
    collapsed = _RUN3.sub(r"\1\1", lowered)
    return collapsed, collapsed != lowered


def tokenize(text: str) -> list[Token]:
    """Split text into letter/digit runs with offsets into the original."""
    tokens = []
    for m in _WORD.finditer(text):
        normalized, elongated = normalize_token(m.group())
        tokens.append(Token(m.group(), normalized, m.start(), m.end(), elongated))
    return tokens


def normalized_words(text: str) -> list[str]:
    """The counting view of tokenize: [t.normalized for t in tokenize(text)],
    without offsets or a Token per word.

    Lowercasing the whole text agrees with tokenize's per-token lowercasing
    for every code point but two, which fall back to tokenize: U+0130 (İ)
    lowercases to two characters, the second not a word character, and
    U+03A3 (Σ) lowercases by context (final sigma), which a whole text can
    carry across a token boundary.
    """
    if "İ" in text or "Σ" in text:
        return [t.normalized for t in tokenize(text)]
    return _WORD.findall(_RUN3.sub(r"\1\1", text.lower()))


def _ends_doubled_consonant(base: str) -> bool:
    if len(base) < 2 or base[-1] != base[-2]:
        return False
    ch = base[-1]
    return ch.isalpha() and ch not in VOWELS


def strip_inflection(normalized: str) -> list[tuple[str, str, bool]]:
    """Candidate (base, inflection, dedoubled) triples, longest base first.

    The unstripped token is always a candidate. Stripping never leaves a
    base shorter than MIN_BASE. A base ending in a doubled consonant also
    yields its single-consonant form, covering spellings like "mogged"
    built on "mog".
    """
    candidates = [(normalized, "", False)]
    for ending in INFLECTIONS:
        if normalized.endswith(ending):
            base = normalized[: -len(ending)]
            if len(base) >= MIN_BASE:
                candidates.append((base, ending, False))
                if _ends_doubled_consonant(base):
                    candidates.append((base[:-1], ending, True))
    seen = set()
    ordered = []
    for cand in sorted(candidates, key=lambda c: -len(c[0])):
        if cand not in seen:
            seen.add(cand)
            ordered.append(cand)
    return ordered


def reconstruct(parse: Parse) -> str:
    """Reassemble a parse; equals parse.token for every emitted parse."""
    body = "".join(seg.slice for seg in parse.segments)
    if parse.dedoubled:
        body += body[-1]
    return body + parse.inflection


def decompose(normalized: str, lexicon: Lexicon, *, elongated: bool = False) -> list[Parse]:
    """All parses of a normalized token, best first.

    Blocklisted tokens never parse. When the token had an elongated letter
    run and the first pass finds nothing, a second pass runs on the
    fully-collapsed form (runs of two reduced to one), so "celllll"
    still reaches the lexicon; non-elongated tokens never take that path,
    keeping ordinary words like "cell" unmatched.
    """
    if not normalized or normalized in lexicon.blocklist:
        return []
    parses = _match_form(normalized, lexicon)
    if not parses and elongated:
        squeezed = _RUN2.sub(r"\1", normalized)
        if squeezed != normalized and squeezed not in lexicon.blocklist:
            parses = _match_form(squeezed, lexicon)
    return parses


def _match_form(form: str, lexicon: Lexicon) -> list[Parse]:
    keyed: list[tuple[tuple, Parse]] = []
    for cand_index, (base, inflection, dedoubled) in enumerate(strip_inflection(form)):
        if base in lexicon.blocklist:
            continue
        entry = lexicon.lookup(base)
        if entry is not None:
            rank = 1 if entry.kind in EXACT_KINDS else 2
            parse = Parse(form, (Segment(base, "stem", entry),), inflection, dedoubled, rank)
            keyed.append((_sort_key(parse, cand_index), parse))
        for parse in _affix_splits(form, base, inflection, dedoubled, lexicon):
            keyed.append((_sort_key(parse, cand_index), parse))
    keyed.sort(key=lambda kp: kp[0])
    out = []
    seen = set()
    for _, parse in keyed:
        dedup = (
            tuple((s.slice, s.role) for s in parse.segments),
            parse.inflection,
            parse.dedoubled,
        )
        if dedup not in seen:
            seen.add(dedup)
            out.append(parse)
    return out


def _sort_key(parse: Parse, cand_index: int) -> tuple:
    # specificity class first, then the longest surviving base, then prefer
    # suffix-headed analyses (the stem carries the characteristic, so
    # "currycel" reads stem curry + suffix cel, not prefix curry + stem cel),
    # then lexicographic slices and roles for full determinism.
    prefixes = sum(1 for s in parse.segments if s.role == "prefix")
    return (
        parse.specificity,
        cand_index,
        prefixes,
        tuple(s.slice for s in parse.segments),
        tuple(s.role for s in parse.segments),
    )


def _affix_splits(
    form: str, base: str, inflection: str, dedoubled: bool, lexicon: Lexicon
) -> list[Parse]:
    """Splits of base into [prefix] stem [suffix] [suffix] with the stem
    either an entry or a novel form of length ≥ MIN_STEM under a productive
    affix. Affix lists arrive longest-first from the lexicon."""
    parses = []
    prefix_options: list[tuple[str, LexiconEntry] | None] = [None]
    prefix_options += [
        (f, e) for f, e in lexicon.prefix_forms if len(f) < len(base) and base.startswith(f)
    ]
    for pre in prefix_options:
        mid = base[len(pre[0]):] if pre else base
        outer_options: list[tuple[str, LexiconEntry] | None] = [None]
        outer_options += [
            (f, e) for f, e in lexicon.suffix_forms if len(f) < len(mid) and mid.endswith(f)
        ]
        for outer in outer_options:
            mid2 = mid[: -len(outer[0])] if outer else mid
            inner_options: list[tuple[str, LexiconEntry] | None] = [None]
            if outer:
                inner_options += [
                    (f, e)
                    for f, e in lexicon.suffix_forms
                    if len(f) < len(mid2) and mid2.endswith(f)
                ]
            for inner in inner_options:
                affixes = [a for a in (pre, inner, outer) if a]
                if not affixes:
                    continue  # bare entry match handled by the caller
                stem = mid2[: -len(inner[0])] if inner else mid2
                stem_entry = lexicon.lookup(stem)
                if stem_entry is not None:
                    rank = 2
                elif len(stem) >= MIN_STEM and any(e.productive for _, e in affixes):
                    rank = 3
                else:
                    continue
                segments = []
                if pre:
                    segments.append(Segment(pre[0], "prefix", pre[1]))
                segments.append(Segment(stem, "stem", stem_entry))
                if inner:
                    segments.append(Segment(inner[0], "suffix", inner[1]))
                if outer:
                    segments.append(Segment(outer[0], "suffix", outer[1]))
                parses.append(Parse(form, tuple(segments), inflection, dedoubled, rank))
    return parses


def annotate_text(
    post_id: str,
    text: str,
    lexicon: Lexicon,
    cache: dict[tuple[str, bool], Parse | None] | None = None,
) -> Annotation:
    """Annotate raw text; cache maps (normalized, elongated) to best parse
    and is only worth passing when looping over a corpus."""
    tokens = tokenize(text)
    spans = []
    for tok in tokens:
        key = (tok.normalized, tok.elongated)
        if cache is not None and key in cache:
            best = cache[key]
        else:
            parses = decompose(tok.normalized, lexicon, elongated=tok.elongated)
            best = parses[0] if parses else None
            if cache is not None:
                cache[key] = best
        if best is None:
            continue
        categories = frozenset(
            c for seg in best.segments if seg.entry for c in seg.entry.categories
        )
        spans.append(Span(tok.start, tok.end, tok.raw, categories, best))
    return Annotation(post_id, tuple(spans), len(tokens), len(spans))


def annotate(post, lexicon: Lexicon) -> Annotation:
    """Annotate a post (any object with id and text attributes)."""
    return annotate_text(post.id, post.text, lexicon)
