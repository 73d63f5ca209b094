from __future__ import annotations

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cryptolex import (
    LexiconEntry,
    annotate_text,
    build_lexicon,
    decompose,
    normalize_token,
    normalized_words,
    reconstruct,
    strip_inflection,
    tokenize,
)
from cryptolex import morpho
from cryptolex.morpho import _WORD, Annotation, Span, match_counts


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

    def test_shared_cache(self, seed_lexicon):
        cache = {}
        annotate_text("a", "wristcel wristcel", seed_lexicon, cache=cache)
        assert ("wristcel", False) in cache
        ann = annotate_text("b", "wristcel", seed_lexicon, cache=cache)
        assert ann.matched_count == 1

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
# whole-text view could part from tokenize: İ and Σ (the fallback), ſ and
# ß/ẞ (case mappings that stay one character), a combining dot, "_",
# digits, and repeated characters that make letter runs of 3 or more.
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
# or grows (İ), so that each guard of the word reader is met often.
casing_text = st.text(alphabet="ΑΒΣσςİIı'\u0307 _x", max_size=12)

SHARED_CACHE: dict = {}  # one cache across examples, as a scan shares one


def reference_annotation(text, lexicon):
    """annotate_text built only from the reference tokenize and decompose:
    one Token per word and no parse cache."""
    tokens = tokenize(text)
    spans = []
    for tok in tokens:
        parses = decompose(tok.normalized, lexicon, elongated=tok.elongated)
        if parses:
            best = parses[0]
            categories = frozenset(
                c for seg in best.segments if seg.entry for c in seg.entry.categories
            )
            spans.append(Span(tok.start, tok.end, tok.raw, categories, best))
    return Annotation("p", tuple(spans), len(tokens), len(spans))


def assert_views_match_reference(text, lexicon, shared=SHARED_CACHE):
    """Check both views with a fresh cache and with shared, a cache the
    caller keeps for one lexicon; return the reference counts."""
    expected = reference_annotation(text, lexicon)
    counts = (expected.token_count, expected.matched_count)
    tokens = tokenize(text)
    assert morpho._words(text) == (
        [t.raw.lower() for t in tokens],
        [t.normalized for t in tokens],
    )
    for cache in ({}, shared):
        assert annotate_text("p", text, lexicon, cache) == expected
        assert match_counts(text, lexicon, cache) == counts
    return counts


class TestMatchCounts:
    """annotate_text and match_counts read words through one whole-text
    reader, _words; each must equal the reference built from tokenize."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(), biased_text, casing_text))
    def test_matches_reference(self, seed_lexicon, text):
        assert_views_match_reference(text, seed_lexicon)

    @pytest.mark.parametrize(
        "text", ["ΑΣ'Β", "İx", "Incelllll", "sooo_xx", "ſ ß ẞ wristcel", "cope... 111 mogggg"]
    )
    def test_pinned_cases(self, seed_lexicon, text):
        assert_views_match_reference(text, seed_lexicon)

    def test_final_sigma_by_token(self):
        # tokenize lowercases "ΑΣ" alone, to the lexicon's "ας"; the whole
        # text lowercases it to "ασ", since the final-sigma rule looks past
        # the apostrophe to the letter Β
        lexicon = build_lexicon(
            [LexiconEntry(surface="ας", kind="root", categories=frozenset({"racist"}))]
        )
        assert assert_views_match_reference("ΑΣ'Β", lexicon, shared={}) == (2, 1)

    def test_shares_annotate_texts_cache(self, seed_lexicon, monkeypatch):
        cache = {}
        assert match_counts("wristcel sooo cope", seed_lexicon, cache) == (3, 1)
        assert ("wristcel", False) in cache
        assert ("soo", True) in cache

        def no_decompose(*args, **kwargs):
            raise AssertionError("decompose called on a cached key")

        monkeypatch.setattr(morpho, "decompose", no_decompose)
        ann = annotate_text("p", "wristcel sooo cope", seed_lexicon, cache)
        assert (ann.token_count, ann.matched_count) == (3, 1)
