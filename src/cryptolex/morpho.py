"""Tokenization and morphological matching against the lexicon.

Matching works on normalized tokens. A token is parsed by stripping an
optional inflectional ending, then splitting the base into at most one
prefix, a stem, and at most two suffixes drawn from the lexicon. Parses
are ranked: exact entry matches first, entry-backed stems second, novel
stems under a productive affix last.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .lexicon import EXACT_KINDS, LETTER_RUN3, Lexicon, LexiconEntry

# Inflectional endings recognized when stripping (checked against the token
# end; listed here longest first for readability, order does not matter).
INFLECTIONS = ("ing", "ed", "es", "s")

MIN_STEM = 3  # shortest novel stem accepted under a productive affix
MIN_BASE = 3  # shortest base left behind by inflection stripping
VOWELS = frozenset("aeiou")

_WORD = re.compile(r"[^\W_]+", re.UNICODE)
_RUN2 = re.compile(r"([^\W\d_])\1+", re.UNICODE)
# any character three times running: every LETTER_RUN3 match is one, and this
# search is about four times faster, so most texts skip LETTER_RUN3's search
_REPEAT3 = re.compile(r"(.)\1\1", re.DOTALL)


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
    collapsed = LETTER_RUN3.sub(r"\1\1", lowered)
    return collapsed, collapsed != lowered


def tokenize(text: str) -> list[Token]:
    """Split text into letter/digit runs with offsets into the original."""
    tokens = []
    for m in _WORD.finditer(text):
        normalized, elongated = normalize_token(m.group())
        tokens.append(Token(m.group(), normalized, m.start(), m.end(), elongated))
    return tokens


def _words(text: str) -> tuple[list[str], list[str]]:
    """The one word reader: for tokens = tokenize(text), the lists
    [t.raw.lower() for t in tokens] and [t.normalized for t in tokens],
    read from the whole text without a Token per word.

    Lowercasing a whole text keeps each code point's length and word and
    letter status, so its words are tokenize's, but for two code points
    that fall back to tokenize: U+0130 (İ) lowercases to two characters,
    the second not a word character, and U+03A3 (Σ) lowercases by context
    (final sigma), which a whole text carries across a token boundary.
    Collapsing a letter run never moves a word boundary, so the two lists
    align index for index.
    """
    if "İ" in text or "Σ" in text:
        tokens = tokenize(text)
        return [t.raw.lower() for t in tokens], [t.normalized for t in tokens]
    lowered = text.lower()
    words = _WORD.findall(lowered)
    if _REPEAT3.search(lowered) is None or LETTER_RUN3.search(lowered) is None:
        return words, words
    return words, _WORD.findall(LETTER_RUN3.sub(r"\1\1", lowered))


def normalized_words(text: str) -> list[str]:
    """The counting view of tokenize: [t.normalized for t in tokenize(text)]."""
    return _words(text)[1]


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


def _best_parses(
    text: str, lexicon: Lexicon, cache: dict[tuple[str, bool], Parse | None]
) -> list[Parse | None]:
    """Each word's best parse in text order, None where nothing parses.
    cache maps a word's (normalized, elongated) key to its best parse; a
    miss decomposes the word and stores the result."""
    words, norms = _words(text)
    bests = []
    for word, norm in zip(words, norms):
        key = (norm, norm != word)
        try:
            best = cache[key]
        except KeyError:
            parses = decompose(norm, lexicon, elongated=key[1])
            best = cache[key] = parses[0] if parses else None
        bests.append(best)
    return bests


def annotate_text(
    post_id: str,
    text: str,
    lexicon: Lexicon,
    cache: dict[tuple[str, bool], Parse | None] | None = None,
) -> Annotation:
    """Annotate raw text; cache maps (normalized, elongated) to best parse
    and is only worth passing when looping over a corpus."""
    bests = _best_parses(text, lexicon, {} if cache is None else cache)
    spans = []
    for m, best in zip(_WORD.finditer(text), bests, strict=True):
        if best is None:
            continue
        categories = frozenset(
            c for seg in best.segments if seg.entry for c in seg.entry.categories
        )
        spans.append(Span(m.start(), m.end(), m.group(), categories, best))
    return Annotation(post_id, tuple(spans), len(bests), len(spans))


def match_counts(
    text: str, lexicon: Lexicon, cache: dict[tuple[str, bool], Parse | None]
) -> tuple[int, int]:
    """The counting view of annotate_text: (token_count, matched_count),
    without a Span per match, through the same parse cache."""
    bests = _best_parses(text, lexicon, cache)
    return len(bests), len(bests) - bests.count(None)


def annotation_json(ann: Annotation) -> str:
    """One JSON Lines record of an annotation, as `cryptolex annotate`
    writes it: spans in text order, categories sorted, no trailing newline."""
    spans = []
    for span in ann.spans:
        spans.append(
            {
                "start": span.start,
                "end": span.end,
                "term": span.term,
                "categories": sorted(span.categories),
                "segments": [
                    {
                        "slice": seg.slice,
                        "role": seg.role,
                        "entry": seg.entry.surface if seg.entry else None,
                    }
                    for seg in span.parse.segments
                ],
            }
        )
    return json.dumps(
        {
            "id": ann.post_id,
            "spans": spans,
            "token_count": ann.token_count,
            "matched_count": ann.matched_count,
        },
        ensure_ascii=False,
    )
