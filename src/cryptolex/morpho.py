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
from functools import cached_property
from itertools import compress, repeat
from json.encoder import encode_basestring  # json.dumps' string encoder, ensure_ascii=False
from operator import is_

from .lexicon import AFFIX_KINDS, INFLECTIONS, LETTER_RUN3, Lexicon, Segment, normalize_token

MIN_STEM = 3  # shortest novel stem accepted under a productive affix
MIN_BASE = 3  # shortest base left behind by inflection stripping
# words a best-parse memo holds at most: a miss that finds it full clears it
MEMO_LIMIT = 16_384
VOWELS = frozenset("aeiou")

_WORD = re.compile(r"[^\W_]+", re.UNICODE)
_RUN2 = re.compile(r"([^\W\d_])\1+", re.UNICODE)
# any character three times running or more: every LETTER_RUN3 match is one,
# and this pattern scans three to four times faster, so most texts skip the
# collapse, and the rest collapse by cutting only the runs of a letter
_RUN3 = re.compile(r"(.)\1\1+", re.DOTALL)
# every ASCII byte that is not a letter or digit becomes a space: on ASCII
# text [^\W_] is exactly [A-Za-z0-9], so split() after this table finds
# _WORD's words, two to four times faster than findall
_ASCII_WORD_BYTES = bytes(b if b < 128 and chr(b).isalnum() else 0x20 for b in range(256))
# LETTER_RUN3 on lowercased ASCII text, two to three times faster
_ASCII_LETTER_RUN3 = re.compile(r"([a-z])\1\1+")
_MISS = object()  # what a memo lookup gives for a word it lacks


@dataclass(frozen=True)
class Token:
    raw: str
    normalized: str
    start: int
    end: int
    elongated: bool


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

    # Built on first use and kept with the parse, outside equality and repr,
    # so a memoized best parse builds them once however many spans it backs.
    @cached_property
    def categories(self) -> frozenset[str]:
        """The union of the segment entries' categories."""
        return frozenset(c for seg in self.segments if seg.entry for c in seg.entry.categories)

    @cached_property
    def span_json(self) -> str:
        """The end of a span's JSON object after its term: sorted
        categories, then segments, as json.dumps writes them."""
        categories = ", ".join(map(encode_basestring, sorted(self.categories)))
        segments = ", ".join(
            f'{{"slice": {encode_basestring(seg.slice)}, "role": {encode_basestring(seg.role)}, '
            f'"entry": {encode_basestring(seg.entry.surface) if seg.entry else "null"}}}'
            for seg in self.segments
        )
        return f', "categories": [{categories}], "segments": [{segments}]}}'


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


def tokenize(text: str) -> list[Token]:
    """Split text into letter/digit runs with offsets into the original."""
    tokens = []
    for m in _WORD.finditer(text):
        normalized, elongated = normalize_token(m.group())
        tokens.append(Token(m.group(), normalized, m.start(), m.end(), elongated))
    return tokens


def _lowered_words(text: str) -> list[str]:
    """[t.raw.lower() for t in tokenize(text)], read from the whole text
    without a Token per word.

    Lowercasing a whole text keeps each code point's length and word and
    letter status, so its words and letter runs are tokenize's, but for
    two code points: U+0130 (İ) lowercases to two characters, the second
    not a word character, and U+03A3 (Σ) lowercases by context (final
    sigma), which a whole text carries across a token boundary. A text
    holding either is lowered word by word.
    """
    if "İ" in text or "Σ" in text:
        return [word.lower() for word in _WORD.findall(text)]
    return _read(text.lower())


def _collapsed(lowered: str) -> str:
    """Lowercased text with each letter run of three or more collapsed to
    two (equal to it when none)."""
    if _RUN3.search(lowered) is None:
        return lowered
    if lowered.isascii():
        return _ASCII_LETTER_RUN3.sub(r"\1\1", lowered)
    return _RUN3.sub(_cut_letter_run, lowered)


def _cut_letter_run(run: re.Match) -> str:
    # LETTER_RUN3.sub(r"\1\1", text) for any text: LETTER_RUN3 tests only
    # the runs _RUN3 finds, not every position of the text
    found = run.group()
    return found[:2] if LETTER_RUN3.match(found) else found


def _read(lowered: str) -> list[str]:
    """_WORD's words of lowercased text, through the byte table when the
    text is ASCII."""
    if lowered.isascii():
        return lowered.encode("ascii").translate(_ASCII_WORD_BYTES).decode("ascii").split()
    return _WORD.findall(lowered)


def normalized_words(text: str) -> list[str]:
    """The counting view of tokenize: [t.normalized for t in tokenize(text)],
    read once, from the collapsed text. Collapsing a letter run never moves
    a word boundary."""
    if "İ" in text or "Σ" in text:
        return [_collapsed(word) for word in _lowered_words(text)]
    return _read(_collapsed(text.lower()))


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
    return sorted(candidates, key=lambda c: -len(c[0]))


def decompose(normalized: str, lexicon: Lexicon, *, elongated: bool = False) -> list[Parse]:
    """All parses of a normalized token, best first.

    Blocklisted tokens never parse. When the token had an elongated letter
    run and the first pass finds nothing, a second pass runs on the
    fully-collapsed form (runs of two reduced to one), so "celllll"
    still reaches the lexicon; non-elongated tokens never take that path,
    keeping ordinary words like "cell" unmatched.

    A form that lexicon.may_parse does not find skips the segmenter: it
    cannot parse, so the gate never changes a result.
    """
    if not normalized or normalized in lexicon.blocklist:
        return []
    may_parse = lexicon.may_parse.search
    parses = _match_form(normalized, lexicon) if may_parse(normalized) else []
    if not parses and elongated:
        squeezed = _RUN2.sub(r"\1", normalized)
        if squeezed != normalized and squeezed not in lexicon.blocklist and may_parse(squeezed):
            parses = _match_form(squeezed, lexicon)
    return parses


def _match_form(form: str, lexicon: Lexicon) -> list[Parse]:
    """Every parse of form, best first, with no may-parse gate. No parse
    repeats: (inflection, dedoubled) fixes the strip_inflection candidate,
    the slices join to its base, and each form names one lexicon entry."""
    # specificity class first, then the longest surviving base, then prefer
    # suffix-headed analyses (the stem carries the characteristic, so
    # "currycel" reads stem curry + suffix cel, not prefix curry + stem cel),
    # then lexicographic slices for full determinism: a split holds at most
    # one prefix, so equal slices and prefix flags mean equal roles.
    keyed: list[tuple[tuple, Parse]] = []
    for cand_index, (base, inflection, dedoubled) in enumerate(strip_inflection(form)):
        if base in lexicon.blocklist:
            continue
        for segments, rank in _splits(base, lexicon):
            key = (rank, cand_index, segments[0].role == "prefix", tuple(s.slice for s in segments))
            keyed.append((key, Parse(form, segments, inflection, dedoubled, rank)))
    keyed.sort(key=lambda kp: kp[0])
    return [parse for _, parse in keyed]


def _peel(rest: str, table: tuple, prefix: bool) -> list[tuple[str, Segment | None]]:
    """(what is left, affix) for no affix, then for each affix that starts
    rest (when prefix) or ends it and leaves a character. table is one
    kind's lexicon.affix_tables entry: one dictionary lookup per length."""
    peeled = [(rest, None)]
    for k, segments in table:  # ascending
        if k >= len(rest):
            break
        segment = segments.get(rest[:k] if prefix else rest[-k:])
        if segment is not None:
            peeled.append((rest[k:] if prefix else rest[:-k], segment))
    return peeled


def _splits(base: str, lexicon: Lexicon) -> list[tuple[tuple[Segment, ...], int]]:
    """(segments, specificity) for each split of base into [prefix] stem
    [suffix] [suffix], the inner suffix only under an outer one: a bare
    entry (2 when its kind is in AFFIX_KINDS, else 1), an entry stem under
    affixes (2), or a novel stem of at least MIN_STEM under a productive
    affix (3)."""
    forms = lexicon.forms
    suffixes = lexicon.affix_tables["suffix"]
    splits = []
    for mid, prefix in _peel(base, lexicon.affix_tables["prefix"], True):
        for rest, outer in _peel(mid, suffixes, False):
            for stem, inner in _peel(rest, suffixes, False) if outer else [(rest, None)]:
                entry = forms.get(stem)
                if entry is not None:
                    rank = 2 if prefix or outer or entry.kind in AFFIX_KINDS else 1
                elif len(stem) >= MIN_STEM and (
                    (prefix and prefix.entry.productive)
                    or (outer and outer.entry.productive)
                    or (inner and inner.entry.productive)
                ):
                    rank = 3
                else:
                    continue
                segments = (prefix, Segment(stem, "stem", entry), inner, outer)
                splits.append((tuple(filter(None, segments)), rank))
    return splits


def _best_parses(text: str, lexicon: Lexicon) -> list[Parse | None]:
    """Each word's best parse in text order, None where nothing parses.
    The one reader and writer of lexicon.memo, which maps a lowercased word
    to its best parse; only a miss collapses the word, whose elongated flag
    follows, and decomposes it. A miss that finds the memo holding
    MEMO_LIMIT words clears it first, so a long tail of distinct words
    costs re-parses, not memory."""
    memo = lexicon.memo
    words = _lowered_words(text)
    bests = list(map(memo.get, words, repeat(_MISS)))
    for i in compress(range(len(bests)), map(is_, bests, repeat(_MISS))):
        word = words[i]
        best = memo.get(word, _MISS)  # an earlier miss in this text may have filled it
        if best is _MISS:
            norm = _collapsed(word)
            parses = decompose(norm, lexicon, elongated=norm != word)
            best = parses[0] if parses else None
            if len(memo) >= MEMO_LIMIT:
                memo.clear()
            memo[word] = best
        bests[i] = best
    return bests


def annotate_text(post_id: str, text: str, lexicon: Lexicon) -> Annotation:
    """Annotate raw text through the lexicon's best-parse memo."""
    bests = _best_parses(text, lexicon)
    found = list(filter(None, bests))
    matches = compress(_WORD.finditer(text), bests) if found else ()
    spans = tuple(
        Span(m.start(), m.end(), m.group(), best.categories, best) for m, best in zip(matches, found)
    )
    return Annotation(post_id, spans, len(bests), len(spans))


def annotation_json(ann: Annotation) -> str:
    """One JSON Lines record of an annotation, as `cryptolex annotate`
    writes it: spans in text order, categories sorted, no trailing newline.
    Each span's categories and segments come from its parse's span_json."""
    spans = ", ".join(
        f'{{"start": {span.start}, "end": {span.end}, "term": {encode_basestring(span.term)}'
        + span.parse.span_json
        for span in ann.spans
    )
    return (
        f'{{"id": {encode_basestring(ann.post_id)}, "spans": [{spans}], '
        f'"token_count": {ann.token_count}, "matched_count": {ann.matched_count}}}'
    )
