from __future__ import annotations

import json
import pickle
from itertools import combinations_with_replacement
import re
import string
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cryptolex import (
    KINDS,
    Lexicon,
    LexiconEntry,
    annotate_text,
    decompose,
    load_seed_lexicon,
    normalize_token,
    normalized_words,
    reconstruct,
    scan_tables,
    strip_inflection,
    tokenize,
)
from cryptolex import morpho
from cryptolex.lexicon import AFFIX_KINDS, EXACT_KINDS, INFLECTIONS, LETTER_RUN3
from cryptolex.morpho import _WORD, MIN_STEM, Parse, Segment, annotation_json, match_counts

from conftest import memo_limit, productive_affixes, reference_annotation


class TestNormalize:
    def test_lowercases(self):
        assert normalize_token("JBW") == ("jbw", False)

    @pytest.mark.parametrize(
        "raw, norm",
        [("stacyyy", "stacyy"), ("soooooo", "soo"), ("NIIIICE", "niice")],
    )
    def test_long_runs_collapse_to_two(self, raw, norm):
        assert normalize_token(raw) == (norm, True)

    def test_double_letters_untouched(self):
        assert normalize_token("maxx") == ("maxx", False)

    def test_digit_runs_untouched(self):
        assert normalize_token("w1111") == ("w1111", False)


class TestTokenize:
    def test_offsets_and_split(self):
        tokens = tokenize("don't stop")
        assert [(t.raw, t.start, t.end) for t in tokens] == [
            ("don", 0, 3),
            ("t", 4, 5),
            ("stop", 6, 10),
        ]

    def test_underscore_splits(self):
        assert [t.raw for t in tokenize("a_b")] == ["a", "b"]

    def test_elongation_flag(self):
        (tok,) = tokenize("sooo")
        assert tok.normalized == "soo"
        assert tok.elongated

    @given(st.text(max_size=80))
    def test_offsets_always_recover_raw(self, text):
        for tok in tokenize(text):
            assert text[tok.start : tok.end] == tok.raw


class TestNormalizedWords:
    """The counting view must equal the normalized field of tokenize."""

    @settings(max_examples=500)
    @given(st.text())
    def test_matches_tokenize(self, text):
        assert normalized_words(text) == [t.normalized for t in tokenize(text)]

    @pytest.mark.parametrize(
        "text",
        [
            "ΑΣ'Β",  # final sigma by token, not by text
            "İx",  # lowercases to i plus a combining dot
            "ßẞ",
            "sooo_xx",
            "aaaa1111",
        ],
    )
    def test_pinned_cases(self, text):
        assert normalized_words(text) == [t.normalized for t in tokenize(text)]

    def test_lowercase_keeps_length_and_classes(self):
        # The premise of lowercasing a whole text: every code point but
        # U+0130 lowercases to one character of the same word and letter
        # status, so token boundaries and letter runs are unchanged. A new
        # Python or Unicode version that breaks this fails here.
        letter = re.compile(r"[^\W\d_]")  # the run class of LETTER_RUN3
        broken = []
        for cp in range(sys.maxunicode + 1):
            if 0xD800 <= cp <= 0xDFFF or cp == 0x130:
                continue
            ch = chr(cp)
            low = ch.lower()
            if (
                len(low) != 1
                or bool(_WORD.match(ch)) != bool(_WORD.match(low))
                or bool(letter.match(ch)) != bool(letter.match(low))
            ):
                broken.append(f"U+{cp:04X}")
        assert broken == []


class TestStripInflection:
    def test_identity_always_first_candidate(self):
        assert strip_inflection("table")[0] == ("table", "", False)

    def test_longest_base_first(self):
        assert strip_inflection("running") == [
            ("running", "", False),
            ("runn", "ing", False),
            ("run", "ing", True),
        ]

    def test_es_and_s_both_offered(self):
        cands = strip_inflection("boxes")
        assert ("boxe", "s", False) in cands
        assert ("box", "es", False) in cands

    def test_short_bases_dropped(self):
        assert strip_inflection("as") == [("as", "", False)]

    @given(st.from_regex(r"[a-z]{1,12}", fullmatch=True))
    def test_candidates_rebuild_the_token(self, token):
        for base, inflection, dedoubled in strip_inflection(token):
            rebuilt = base + (base[-1] if dedoubled else "") + inflection
            assert rebuilt == token

    @given(st.from_regex(r"[a-z]{0,8}([bdgmnpt])\1?(ing|ed|es|s)?", fullmatch=True))
    def test_candidates_distinct_and_longest_first(self, token):
        cands = strip_inflection(token)
        assert len(set(cands)) == len(cands)
        lengths = [len(base) for base, _, _ in cands]
        assert lengths == sorted(lengths, reverse=True)


class TestDecompose:
    def test_entry_beats_compositional_split(self, seed_lexicon):
        top = decompose("incel", seed_lexicon)[0]
        assert [s.slice for s in top.segments] == ["incel"]
        assert top.specificity == 1

    def test_novel_stem_with_suffix(self, seed_lexicon):
        top = decompose("wristcel", seed_lexicon)[0]
        assert [(s.slice, s.role) for s in top.segments] == [("wrist", "stem"), ("cel", "suffix")]
        assert top.specificity == 3

    def test_prefix_attachment(self, seed_lexicon):
        top = decompose("chadpreet", seed_lexicon)[0]
        assert [(s.slice, s.role) for s in top.segments] == [("chad", "prefix"), ("preet", "stem")]

    def test_entry_stem_preferred_over_affix_reading(self, seed_lexicon):
        """A token that is itself a known word plus a suffix keeps the
        known word as the stem."""
        top = decompose("currycel", seed_lexicon)[0]
        assert [(s.slice, s.role) for s in top.segments] == [("curry", "stem"), ("cel", "suffix")]
        assert top.segments[0].entry.surface == "curry"
        assert top.specificity == 2

    def test_variant_stem_matches(self, seed_lexicon):
        top = decompose("mogging", seed_lexicon)[0]
        assert [(s.slice, s.role) for s in top.segments] == [("mogg", "stem")]
        assert top.segments[0].entry.surface == "mog"
        assert top.inflection == "ing"

    def test_doubled_consonant_entry(self, seed_lexicon):
        top = decompose("betabuxxing", seed_lexicon)[0]
        assert top.dedoubled
        assert top.inflection == "ing"
        assert top.segments[0].entry.surface == "betabux"

    def test_short_novel_stem_rejected(self, seed_lexicon):
        assert decompose("xcel", seed_lexicon) == []

    def test_unproductive_context_rejected(self, seed_lexicon):
        assert decompose("table", seed_lexicon) == []
        assert decompose("complete", seed_lexicon) == []
        assert decompose("redpilled", seed_lexicon) == []

    @pytest.mark.parametrize("blocked", ["cancel", "parcel", "excel", "marcel"])
    def test_blocklist_direct(self, seed_lexicon, blocked):
        assert decompose(blocked, seed_lexicon) == []

    @pytest.mark.parametrize("inflected", ["cancels", "cancelled", "excelling", "maxed", "maxing"])
    def test_blocklist_applies_to_stripped_bases(self, seed_lexicon, inflected):
        assert decompose(inflected, seed_lexicon) == []

    def test_elongated_token_recovers_match(self, seed_lexicon):
        parses = decompose("incell", seed_lexicon, elongated=True)
        assert parses and parses[0].token == "incel"
        assert reconstruct(parses[0]) == "incel"

    def test_squeeze_needs_elongation_evidence(self, seed_lexicon):
        assert decompose("cell", seed_lexicon) == []
        assert decompose("cell", seed_lexicon, elongated=True) != []

    def test_all_parses_reconstruct(self, seed_lexicon):
        for token in ["looksmaxxing", "currycel", "heightmogged", "mogging", "ricecels"]:
            for parse in decompose(token, seed_lexicon):
                assert reconstruct(parse) == parse.token

    def test_parses_ranked_by_specificity(self, seed_lexicon):
        ranks = [p.specificity for p in decompose("mogging", seed_lexicon)]
        assert ranks == sorted(ranks)


class TestAnnotate:
    def test_spans_carry_raw_surface(self, seed_lexicon):
        ann = annotate_text("p1", "Total NORMIE behavior", seed_lexicon)
        (span,) = ann.spans
        assert span.term == "NORMIE"
        assert (span.start, span.end) == (6, 12)
        assert span.categories == frozenset({"dehumanizing"})

    def test_counts(self, seed_lexicon):
        ann = annotate_text("p1", "gymcel and wristcel talk", seed_lexicon)
        assert ann.token_count == 4
        assert ann.matched_count == 2

    def test_category_union_over_segments(self, seed_lexicon):
        ann = annotate_text("p1", "currycel", seed_lexicon)
        assert ann.spans[0].categories == frozenset({"racist", "dehumanizing"})

    def test_no_matches(self, seed_lexicon):
        ann = annotate_text("p1", "nothing to see here", seed_lexicon)
        assert ann.spans == ()
        assert ann.matched_count == 0

    def test_shared_cache(self):
        lexicon = load_seed_lexicon()
        annotate_text("a", "wristcel wristcel", lexicon)
        assert "wristcel" in lexicon.memo
        ann = annotate_text("b", "wristcel", lexicon)
        assert ann.matched_count == 1

    def test_cache_keys_are_lowercased_words(self, monkeypatch):
        # two spellings of one collapsed form are two keys, each decomposed
        # once, with equal best parses
        calls = []

        def spy(normalized, lexicon, *, elongated=False):
            calls.append((normalized, elongated))
            return decompose(normalized, lexicon, elongated=elongated)

        monkeypatch.setattr(morpho, "decompose", spy)
        lexicon = load_seed_lexicon()
        ann = annotate_text("p", "INCELLL incellll incelll", lexicon)
        assert calls == [("incell", True), ("incell", True)]
        memo = lexicon.memo
        assert list(memo) == ["incelll", "incellll"]
        assert memo["incelll"] == memo["incellll"] is not None
        assert memo["incelll"].token == "incel"
        assert [span.term for span in ann.spans] == ["INCELLL", "incellll", "incelll"]

    @pytest.mark.parametrize("seed_first", [True, False], ids=["seed-first", "empty-first"])
    def test_each_lexicon_reads_its_own_memo(self, seed_first):
        order = [(load_seed_lexicon(), 1), (Lexicon([]), 0)]
        for lexicon, matched in order if seed_first else order[::-1]:
            assert annotate_text("p", "a wristcel lurks", lexicon).matched_count == matched
        for lexicon, matched in order:  # both memos warm now
            assert annotate_text("p", "a wristcel lurks", lexicon).matched_count == matched
            assert "wristcel" in lexicon.memo

    def test_warm_memo_is_outside_equality_and_repr(self):
        warm, fresh = load_seed_lexicon(), load_seed_lexicon()
        annotate_text("p", "a wristcel lurks", warm)
        assert warm.memo and not fresh.memo
        assert warm == fresh
        assert repr(warm) == repr(fresh)

    def test_annotation_carries_post_id(self, seed_lexicon):
        ann = annotate_text("m1", "ricecel", seed_lexicon)
        assert ann.post_id == "m1"
        assert ann.matched_count == 1

    def test_offsets_of_elongated_match(self, seed_lexicon):
        text = "such a normieeeee move"
        ann = annotate_text("p1", text, seed_lexicon)
        (span,) = ann.spans
        assert text[span.start : span.end] == span.term == "normieeeee"


# Text biased toward the seed lexicon, with the characters where a
# whole-text view could part from tokenize: İ and Σ (lowered word by
# word), ſ and ß/ẞ (case mappings that stay one character), a combining
# dot, "_", digits, and repeated characters that make letter runs of 3 or
# more.
LEXICON_CHARS = list("celmogfuxwristyajbwhdnpqvCELMOGİΣσςſßẞ\u0307_07 '")
CODED_WORDS = ["wristcel", "Incel", "incelllll", "NORMIE", "mogging", "currycel", "jbw", "cope"]
biased_text = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(LEXICON_CHARS), st.integers(1, 5)).map(lambda cn: cn[0] * cn[1]),
        st.sampled_from(CODED_WORDS),
    ),
    max_size=20,
).map("".join)

# Short texts over the characters whose lowercase depends on context (Σ)
# or grows (İ), and line breaks, so that each guard of the word reader is
# met often, in texts of one line and of many.
casing_text = st.text(alphabet="ΑΒΣσςİIı'\u0307 _x\n", max_size=12)

# ASCII texts, which the word reader takes through its byte table: both
# cases, digits, the ASCII characters split() or _WORD might treat apart,
# and letter runs, so that the collapsed text takes the table too.
ascii_text = st.lists(
    st.one_of(
        st.text(alphabet="aAzZkK09_'\t\n\x0b\x0c\x1c\x1d\x1e\x1f .-", max_size=4),
        st.tuples(st.sampled_from(string.ascii_letters), st.integers(3, 6)).map(
            lambda cn: cn[0] * cn[1]
        ),
        st.sampled_from(["wristcel", "SOOO", "mogggging", "x111", "cope"]),
    ),
    max_size=12,
).map("".join)

# Texts beyond ASCII with runs of letters (é, ß, ſ, and ² and ½, numbers that
# LETTER_RUN3 counts as a letter), of digits, marks and punctuation, which
# the reader collapses by testing only the runs it finds.
run_text = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(list("éßſ²٣½…—_\u0307'a1 ")), st.integers(1, 6)).map(
            lambda cn: cn[0] * cn[1]
        ),
        st.sampled_from(["wristcel", "mogggging", "\n"]),
    ),
    max_size=12,
).map("".join)


def cold(lexicon):
    """A copy of lexicon with an empty memo."""
    return Lexicon(lexicon.entries, lexicon.blocklist)


def assert_views_match_reference(text, lexicon):
    """Check both views through a cold memo and through lexicon's own,
    which a session-wide lexicon keeps warm across examples as a scan
    does; return the reference counts."""
    expected = reference_annotation(text, lexicon)
    counts = (expected.token_count, expected.matched_count)
    tokens = tokenize(text)
    assert morpho._lowered_words(text) == [t.raw.lower() for t in tokens]
    assert normalized_words(text) == [t.normalized for t in tokens]
    for memoized in (cold(lexicon), lexicon):
        assert annotate_text("p", text, memoized) == expected
        assert match_counts(text, memoized) == counts
    return counts


class TestMatchCounts:
    """annotate_text and match_counts read words through one whole-text
    reader, _lowered_words; each must equal the reference built from
    tokenize."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(), biased_text, casing_text, ascii_text, run_text))
    def test_matches_reference(self, seed_lexicon, text):
        assert_views_match_reference(text, seed_lexicon)

    @pytest.mark.parametrize(
        "text",
        [
            "ΑΣ'Β",
            "İx",
            "Incelllll",
            "sooo_xx",
            "ſ ß ẞ wristcel",
            "cope... 111 mogggg",
            # the Kelvin sign lowercases to an ASCII k: the lowercased text
            # takes the byte table, and offsets still come from the original
            "\u212a wristcel\u212a\u212a\u212a mogging",
            "a\x1cb\x1fwristcel\x0bcope\x0c",
            # both ends of the ASCII letter runs, and runs beyond ASCII: only
            # the letters' runs collapse, ² and ½ counting as letters
            "AAA zzzz ZZZ...",
            "ééé ßßßß ²²² ½½½ ٣٣٣ ___ ……… sooo",
            # a text of many lines holding Σ and İ is lowered word by word
            "ΑΣ'Β\nwristcel sooo\n\nİx",
        ],
    )
    def test_pinned_cases(self, seed_lexicon, text):
        assert_views_match_reference(text, seed_lexicon)

    def test_final_sigma_by_token(self):
        # tokenize lowercases "ΑΣ" alone, to the lexicon's "ας"; the whole
        # text lowercases it to "ασ", since the final-sigma rule looks past
        # the apostrophe to the letter Β
        lexicon = Lexicon(
            [LexiconEntry(surface="ας", kind="root", categories=frozenset({"racist"}))]
        )
        assert assert_views_match_reference("ΑΣ'Β", lexicon) == (2, 1)

    def test_shares_annotate_texts_cache(self, monkeypatch):
        lexicon = load_seed_lexicon()
        assert match_counts("wristcel sooo cope", lexicon) == (3, 1)
        assert "wristcel" in lexicon.memo
        assert "sooo" in lexicon.memo

        def no_decompose(*args, **kwargs):
            raise AssertionError("decompose called on a memoized key")

        monkeypatch.setattr(morpho, "decompose", no_decompose)
        ann = annotate_text("p", "wristcel sooo cope", lexicon)
        assert (ann.token_count, ann.matched_count) == (3, 1)


class TestMemoLimit:
    """A memo that finds itself full at a miss is cleared: the limit only
    trades re-parses for memory, so it never changes a result."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 40),
        st.lists(st.one_of(st.text(), biased_text, casing_text, ascii_text, run_text), max_size=6),
    )
    def test_limit_never_changes_a_result(self, seed_lexicon, limit, texts):
        lexicon = cold(seed_lexicon)
        with memo_limit(limit):
            for text in texts:
                expected = reference_annotation(text, lexicon)
                assert annotate_text("p", text, lexicon) == expected
                assert match_counts(text, lexicon) == (expected.token_count, expected.matched_count)
                assert len(lexicon.memo) <= limit
            # the affix scan of the texts as posts, in process, from a cold memo
            lexicon = cold(seed_lexicon)
            post = {"id": "p", "user": "u", "forum": "f", "created_utc": 0}
            (table,) = scan_tables([[json.dumps({**post, "text": t}) for t in texts]], lexicon)
            assert len(lexicon.memo) <= limit
        affixes = Counter(a for text in texts for a in productive_affixes(text, seed_lexicon))
        assert (table.counts, table.doc_count) == (affixes, len(texts))

    def test_clears_within_one_text(self, monkeypatch):
        # at a limit of one word each miss clears the memo, so the second
        # "wristcel" is parsed again, after "sooo" took its place
        calls = []

        def spy(normalized, lexicon, *, elongated=False):
            calls.append(normalized)
            return decompose(normalized, lexicon, elongated=elongated)

        monkeypatch.setattr(morpho, "decompose", spy)
        lexicon = load_seed_lexicon()
        with memo_limit(1):
            ann = annotate_text("p", "wristcel sooo wristcel", lexicon)
        assert calls == ["wristcel", "soo", "wristcel"]
        assert list(lexicon.memo) == ["wristcel"]
        assert ann == reference_annotation("wristcel sooo wristcel", lexicon)


def reference_annotation_json(ann):
    """annotation_json as a dict tree through json.dumps: the reference the
    renderer's per-parse span_json must equal byte for byte."""
    spans = [
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
        for span in ann.spans
    ]
    return json.dumps(
        {
            "id": ann.post_id,
            "spans": spans,
            "token_count": ann.token_count,
            "matched_count": ann.matched_count,
        },
        ensure_ascii=False,
    )


# Post ids with what JSON escapes or passes through: quotes, backslashes,
# control characters, U+2028/U+2029 and lone surrogates.
post_ids = st.text() | st.text(alphabet='"\\\x00\x1f\x7f\u2028\u2029\ud800\udfffé€ a')


class TestAnnotationJson:
    """annotation_json writes each span from its parse's memo; it must
    equal the dict-tree render."""

    @settings(max_examples=500, deadline=None)
    @given(post_ids, st.one_of(st.text(), biased_text, casing_text, ascii_text, run_text))
    def test_matches_reference(self, seed_lexicon, post_id, text):
        for memoized in (cold(seed_lexicon), seed_lexicon):
            ann = annotate_text(post_id, text, memoized)
            assert annotation_json(ann) == reference_annotation_json(ann)

    @pytest.mark.parametrize(
        "text, segments, categories",
        [
            # a novel stem: its segment's entry is None
            ("my wristcel", [("wrist", None), ("cel", "cel")], ["dehumanizing"]),
            # the categories of two entries, sorted
            ("CURRYCEL", [("curry", "curry"), ("cel", "cel")], ["dehumanizing", "racist"]),
        ],
    )
    def test_pinned_spans(self, seed_lexicon, text, segments, categories):
        ann = annotate_text('q"\\\u2028', text, seed_lexicon)
        assert annotation_json(ann) == reference_annotation_json(ann)
        (span,) = json.loads(annotation_json(ann))["spans"]
        assert [(s["slice"], s["entry"]) for s in span["segments"]] == segments
        assert span["categories"] == categories

    def test_parse_rendered_once(self, seed_lexicon):
        ann = annotate_text("p", "wristcel then Wristcel", cold(seed_lexicon))
        first, second = ann.spans
        assert first.parse is second.parse
        assert annotation_json(ann) == reference_annotation_json(ann)
        # the memo is kept with the parse and reused, outside equality and repr
        memo = first.parse.__dict__["span_json"]
        assert annotation_json(ann) == reference_annotation_json(ann)
        assert first.parse.span_json is memo
        fresh = decompose("wristcel", seed_lexicon)[0]
        assert "span_json" not in fresh.__dict__
        assert fresh == first.parse and repr(fresh) == repr(first.parse)


def ungated_decompose(normalized, lexicon, *, elongated=False, match_form=morpho._match_form):
    """decompose without the may-parse gate: the reference it must equal."""
    if not normalized or normalized in lexicon.blocklist:
        return []
    parses = match_form(normalized, lexicon)
    if not parses and elongated:
        squeezed = morpho._RUN2.sub(r"\1", normalized)
        if squeezed != normalized and squeezed not in lexicon.blocklist:
            parses = match_form(squeezed, lexicon)
    return parses


def assert_gate_sound(form, lexicon):
    if not lexicon.may_parse.search(form):
        assert morpho._match_form(form, lexicon) == [], form
    for elongated in (False, True):
        parses = decompose(form, lexicon, elongated=elongated)
        assert parses == ungated_decompose(form, lexicon, elongated=elongated), (form, elongated)
        # no parse repeats, so the segmenter needs no dedup pass
        keys = {
            (tuple((s.slice, s.role) for s in p.segments), p.inflection, p.dedoubled)
            for p in parses
        }
        assert len(keys) == len(parses), (form, elongated)


# Lexicon forms over a four-character alphabet, so that surfaces, variants,
# affixes and blocklist words overlap and run into one another.
small_forms = st.text(alphabet="abc0", min_size=1, max_size=5).filter(
    lambda f: not LETTER_RUN3.search(f)
)


@st.composite
def small_lexicons(draw):
    entries = []
    used: set[str] = set()
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(KINDS))
        drawn = draw(st.lists(small_forms, min_size=1, max_size=3))
        forms = [f for f in dict.fromkeys(drawn) if f not in used]
        if not forms:
            continue
        used.update(forms)
        entries.append(
            LexiconEntry(
                surface=forms[0],
                kind=kind,
                productive=kind in AFFIX_KINDS and draw(st.booleans()),
                variants=tuple(forms[1:]),
            )
        )
    return Lexicon(entries, draw(st.lists(small_forms, max_size=3)))


def shaped_forms(lexicon, alphabet="abc0"):
    """Forms biased toward what the segmenter parses: prefix + stem and
    stem + suffix (+ suffix) from the lexicon's own forms, each perhaps with
    a doubled final character, an inflection, or a letter run."""
    known = [f for e in lexicon.entries for f in (e.surface, *e.variants)] + list(lexicon.blocklist)
    piece = st.text(alphabet=alphabet, max_size=4)
    if known:
        piece = st.sampled_from(known) | piece
    body = st.lists(piece, min_size=1, max_size=3).map("".join)

    def dress(draw_args):
        stem, double, inflection, run = draw_args
        if double and stem:
            stem += stem[-1]
        form = stem + inflection
        if run is not None and form:
            at = run % len(form)
            form = form[:at] + form[at] * 3 + form[at + 1 :]
        return normalize_token(form)[0]

    return st.tuples(
        body, st.booleans(), st.sampled_from(("",) + INFLECTIONS), st.none() | st.integers(0, 9)
    ).map(dress) | st.text(alphabet=alphabet + "ing", max_size=10)


class TestMayParseGate:
    """The gate may only reject forms that cannot parse: decompose with it
    equals decompose without it."""

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_sound_on_generated_lexicons(self, data):
        lexicon = data.draw(small_lexicons())
        for form in data.draw(st.lists(shaped_forms(lexicon), min_size=1, max_size=5)):
            assert_gate_sound(form, lexicon)

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(["seed", "coded", "empty"]), st.data())
    def test_sound_on_fixed_lexicons(self, seed_lexicon, coded_lexicon, which, data):
        lexicon = {"seed": seed_lexicon, "coded": coded_lexicon, "empty": Lexicon([])}[which]
        form = data.draw(shaped_forms(lexicon, alphabet="celmogaxbuy0123"))
        assert_gate_sound(form, lexicon)

    @pytest.mark.parametrize(
        "form, elongated, slices",
        [
            ("betabuxxing", False, ["betabux"]),  # dedoubled before the inflection
            ("incell", True, ["incel"]),  # the gate misses it; the rescue parses
            ("cell", False, None),  # no elongation, no rescue
            ("cell", True, ["cel"]),
            ("mogging", False, ["mogg"]),  # a variant
            ("123cel", False, ["123", "cel"]),  # a digit stem under a productive suffix
            ("w1111", False, None),
        ],
    )
    def test_pinned_forms(self, seed_lexicon, form, elongated, slices):
        assert_gate_sound(form, seed_lexicon)
        parses = decompose(form, seed_lexicon, elongated=elongated)
        assert ([s.slice for s in parses[0].segments] if parses else None) == slices

    def test_empty_lexicon_gate_never_matches(self):
        gate = Lexicon([]).may_parse
        assert [f for f in ("", "a", "cel", "ing") if gate.search(f)] == []

    def test_gate_pickles_with_the_lexicon(self, seed_lexicon):
        copy = pickle.loads(pickle.dumps(seed_lexicon))
        assert copy.may_parse.pattern == seed_lexicon.may_parse.pattern
        assert copy == seed_lexicon


def reference_match_form(form, lexicon):
    """_match_form by brute force. Each strip_inflection base that is not
    blocklisted is cut every way into P + S + I + O: S non-empty, P empty
    or a prefix form, I and O each empty or a suffix form, I non-empty only
    when O is. A cut parses as a bare entry (rank 1 for EXACT_KINDS, else
    2), an entry stem under affixes (2) or a novel stem of at least
    MIN_STEM under a productive affix (3). Parses rank by specificity, then
    candidate order, then prefix-less first, then slices and roles."""

    def affix(piece, kind):
        entry = lexicon.forms.get(piece)
        return entry if entry is not None and entry.kind == kind else None

    keyed = []
    for cand_index, (base, inflection, dedoubled) in enumerate(strip_inflection(form)):
        if base in lexicon.blocklist:
            continue
        for a, b, c in combinations_with_replacement(range(len(base) + 1), 3):
            p, s, i, o = base[:a], base[a:b], base[b:c], base[c:]
            pre, inner, outer = affix(p, "prefix"), affix(i, "suffix"), affix(o, "suffix")
            if not s or (i and not o) or (p and not pre) or (i and not inner) or (o and not outer):
                continue
            affixes = [entry for entry in (pre, inner, outer) if entry]
            stem = lexicon.forms.get(s)
            if stem is not None:
                rank = 2 if affixes or stem.kind not in EXACT_KINDS else 1
            elif affixes and len(s) >= MIN_STEM and any(e.productive for e in affixes):
                rank = 3
            else:
                continue
            cut = [(p, "prefix", pre), (s, "stem", stem), (i, "suffix", inner), (o, "suffix", outer)]
            segments = tuple(Segment(*piece) for piece in cut if piece[0])
            parse = Parse(form, segments, inflection, dedoubled, rank)
            slices, roles = [seg.slice for seg in segments], [seg.role for seg in segments]
            keyed.append(((rank, cand_index, len(p) > 0, slices, roles), parse))
    keyed.sort(key=lambda kp: kp[0])
    return [parse for _, parse in keyed]


def assert_segmenter_matches_reference(form, lexicon):
    assert morpho._match_form(form, lexicon) == reference_match_form(form, lexicon), form
    for elongated in (False, True):
        expected = ungated_decompose(
            form, lexicon, elongated=elongated, match_form=reference_match_form
        )
        assert decompose(form, lexicon, elongated=elongated) == expected, (form, elongated)


class TestReferenceSegmenter:
    """_match_form peels affixes by one lexicon.affix_tables lookup per
    affix length; it must equal the brute-force reference that tries every
    cut."""

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_equal_on_generated_lexicons(self, data):
        lexicon = data.draw(small_lexicons())
        for form in data.draw(st.lists(shaped_forms(lexicon), min_size=1, max_size=5)):
            assert_segmenter_matches_reference(form, lexicon)

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(["seed", "coded", "empty"]), st.data())
    def test_equal_on_fixed_lexicons(self, seed_lexicon, coded_lexicon, which, data):
        lexicon = {"seed": seed_lexicon, "coded": coded_lexicon, "empty": Lexicon([])}[which]
        form = data.draw(shaped_forms(lexicon, alphabet="celmogaxbuy0123"))
        assert_segmenter_matches_reference(form, lexicon)

    @pytest.mark.parametrize(
        "form",
        ["currycel", "chadpreet", "betabuxxing", "looksmaxxing", "ricecels", "fuel", "cel", "xcel"],
    )
    def test_equal_on_seed_coinages(self, seed_lexicon, form):
        assert_segmenter_matches_reference(form, seed_lexicon)
