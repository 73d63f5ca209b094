from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, strategies as st

from cryptolex import (
    CATEGORIES,
    KINDS,
    Lexicon,
    LexiconEntry,
    LexiconFormatError,
    annotate_text,
    build_lexicon,
    category_stats,
    entries_to_jsonl,
    export_tsv,
    load_blocklist,
    load_lexicon,
    normalize_token,
    validate,
)
from cryptolex.lexicon import _tsv_safe, read_lines

from conftest import BEYOND_JSON_PARSER, assert_tsv_rows, definitions, tsv_rows


def entry(surface, kind="root", **kw):
    return LexiconEntry(surface=surface, kind=kind, **kw)


class TestEntryValidation:
    def test_minimal_entry(self):
        e = entry("normie")
        assert e.kind == "root"
        assert e.categories == frozenset()
        assert not e.productive
        assert e.variants == ()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            entry("foo", kind="infix")

    @pytest.mark.parametrize("bad", ["", "two words", "UPPER", "hyphen-ated", "-cel", "weee"])
    def test_bad_surface_rejected(self, bad):
        with pytest.raises(ValueError):
            entry(bad)

    def test_digits_allowed(self):
        assert entry("chad2").surface == "chad2"

    def test_letter_run_rule_matches_normalization(self):
        # normalization keeps digit runs and collapses letter runs of three,
        # so a digit run is a valid form and a letter run is not
        lex = build_lexicon([entry("x1000")])
        ann = annotate_text("p", "X1000 x100", lex)
        assert [span.term for span in ann.spans] == ["X1000"]
        with pytest.raises(ValueError, match="letter run"):
            entry("incelll")

    @pytest.mark.parametrize("kind", ["root", "standalone", "lexicalized_blend"])
    def test_productive_requires_affix_kind(self, kind):
        with pytest.raises(ValueError, match="productive"):
            entry("foo", kind=kind, productive=True)

    def test_productive_affix_ok(self):
        e = entry("cel", kind="suffix", productive=True)
        assert e.productive

    def test_variant_validated_like_surface(self):
        with pytest.raises(ValueError):
            entry("maxx", kind="suffix", variants=("MAX",))

    def test_duplicate_forms_within_entry_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            entry("maxx", kind="suffix", variants=("maxx",))

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="category"):
            entry("foo", categories=frozenset({"rude"}))


class TestLoading:
    def test_load_from_text(self):
        text = json.dumps({"surface": "incel", "kind": "root", "categories": ["dehumanizing"]})
        lex = load_lexicon(text)
        assert len(lex) == 1
        assert lex.lookup("incel").kind == "root"

    def test_blank_lines_skipped(self):
        text = '\n{"surface": "incel", "kind": "root"}\n\n'
        assert len(load_lexicon(text)) == 1

    def test_line_number_in_error(self):
        text = '{"surface": "incel", "kind": "root"}\nnot json\n'
        with pytest.raises(LexiconFormatError) as exc:
            load_lexicon(text)
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("raw, reason", BEYOND_JSON_PARSER)
    def test_json_beyond_the_parser_names_its_line(self, raw, reason):
        text = '{"surface": "incel", "kind": "root"}\n' + raw + "\n"
        with pytest.raises(LexiconFormatError) as exc:
            load_lexicon(text)
        assert str(exc.value) == f"line 2: invalid JSON ({reason})"

    def test_unknown_field_rejected(self):
        text = json.dumps({"surface": "incel", "kind": "root", "weight": 3})
        with pytest.raises(LexiconFormatError, match="weight"):
            load_lexicon(text)

    def test_non_object_line_rejected(self):
        with pytest.raises(LexiconFormatError):
            load_lexicon('["incel"]')

    # each collision is rejected with the same message whether the entries
    # come from JSON Lines or go straight into a Lexicon
    def test_duplicate_surface_across_entries_rejected(self):
        rows = [{"surface": "incel", "kind": "root"}] * 2
        text = "\n".join(json.dumps(r) for r in rows)
        for build in (lambda: load_lexicon(text), lambda: Lexicon((entry("incel"),) * 2)):
            with pytest.raises(LexiconFormatError) as exc:
                build()
            assert str(exc.value) == "duplicate surface 'incel'"

    def test_variant_colliding_with_surface_rejected(self):
        rows = [
            {"surface": "mog", "kind": "suffix", "variants": ["mogg"]},
            {"surface": "mogg", "kind": "root"},
        ]
        text = "\n".join(json.dumps(r) for r in rows)
        entries = (entry("mog", "suffix", variants=("mogg",)), entry("mogg"))
        for build in (lambda: load_lexicon(text), lambda: Lexicon(entries)):
            with pytest.raises(LexiconFormatError) as exc:
                build()
            assert str(exc.value) == "variant 'mogg' of 'mog' collides with surface 'mogg'"

    def test_variant_colliding_with_variant_rejected(self):
        rows = [
            {"surface": "mog", "kind": "suffix", "variants": ["mogg"]},
            {"surface": "mogger", "kind": "root", "variants": ["mogg"]},
        ]
        text = "\n".join(json.dumps(r) for r in rows)
        entries = (entry("mog", "suffix", variants=("mogg",)), entry("mogger", variants=("mogg",)))
        for build in (lambda: load_lexicon(text), lambda: Lexicon(entries)):
            with pytest.raises(LexiconFormatError) as exc:
                build()
            assert str(exc.value) == "variant 'mogg' of 'mogger' collides with variant of 'mog'"

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "lex.jsonl"
        p.write_text('{"surface": "incel", "kind": "root"}\n', encoding="utf-8")
        assert len(load_lexicon(p)) == 1

    def test_lookup_variant(self, seed_lexicon):
        assert seed_lexicon.lookup("mogg").surface == "mog"
        assert seed_lexicon.lookup("max").surface == "maxx"
        assert seed_lexicon.lookup("nope") is None


class TestBlocklist:
    def test_parse_text(self):
        bl = load_blocklist("# comment\ncancel\n\nEXCEL  \n")
        assert bl == frozenset({"cancel", "excel"})

    def test_inline_comment(self):
        assert load_blocklist("cancel  # can + cel\n") == frozenset({"cancel"})

    def test_from_file(self, tmp_path):
        p = tmp_path / "block.txt"
        p.write_text("parcel\n", encoding="utf-8")
        assert load_blocklist(p) == frozenset({"parcel"})

    def test_unicode_line_separator_is_not_a_line_break(self):
        assert load_blocklist("cell\u2028mate\r\n") == frozenset({"cell\u2028mate"})

    def test_letter_runs_collapse_as_in_tokens(self, seed_lexicon):
        # decompose checks the blocklist with collapsed forms only, so an
        # uncollapsed line would block nothing
        assert load_blocklist("Gymcelll  # gym + cel\n") == frozenset({"gymcell"})
        for line in ("Gymcelll", "gymcell"):
            lexicon = build_lexicon(seed_lexicon.entries, load_blocklist(line))
            assert annotate_text("p", "a gymcelll lifts", lexicon).matched_count == 0

    def test_lexicon_normalizes_a_blocklist_it_is_given(self, seed_lexicon):
        # however a lexicon is built, its blocklist holds the forms
        # decompose checks: "GYMCEL" blocks both words, "gymcelll" (collapsed
        # to "gymcell") blocks the elongated one
        for words, matched in ((["GYMCEL"], 0), (["gymcelll"], 1)):
            lexicon = build_lexicon(seed_lexicon.entries, words)
            assert annotate_text("p", "a gymcelll lifts gymcel", lexicon).matched_count == matched

    def test_blocklists_equal_once_normalized(self, seed_lexicon):
        shouted = Lexicon(seed_lexicon.entries, frozenset({"GYMCEL"}))
        assert shouted == Lexicon(seed_lexicon.entries, frozenset({"gymcel"}))
        assert shouted.blocklist == frozenset({"gymcel"})
        assert pickle.loads(pickle.dumps(shouted)) == shouted


@given(st.lists(definitions, max_size=4))
def test_blocklist_lines_split_on_newline_only(tmp_path_factory, texts):
    """One word per "\\n"-separated line, from LF and from CRLF files and
    texts, whatever other line separators a word holds."""
    words = [_tsv_safe(t) for t in texts]
    expected = {normalize_token(w.split("#", 1)[0].strip())[0] for w in words} - {""}
    text = "\n".join(words) + "\n"
    path = tmp_path_factory.mktemp("blocklist") / "blocklist.txt"
    for source in (text, text.replace("\n", "\r\n")):
        path.write_bytes(source.encode("utf-8"))
        assert load_blocklist(source) == expected
        assert load_blocklist(path) == expected


@given(st.lists(definitions, max_size=4), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_read_lines_path_and_text_agree(tmp_path_factory, texts, end, final_newline):
    """A file reads as its text does. Lines come back without their LF or
    CRLF ends, whatever other line separators they hold, and a final
    newline starts no empty line."""
    path = tmp_path_factory.mktemp("lines") / "text.txt"
    lines = [t.replace("\n", "").rstrip("\r") for t in texts]
    # without a final newline, a trailing empty line is not in the text
    expected = lines[:-1] if lines and not lines[-1] and not final_newline else lines
    for parts, want in ((texts, None), (lines, expected)):
        text = "".join(p + end for p in parts) if final_newline else end.join(parts)
        path.write_bytes(text.encode("utf-8"))
        got = read_lines(text)
        assert read_lines(path) == got
        assert not any("\n" in line for line in got)
        if want is not None:
            assert got == want


class TestValidate:
    def test_seed_is_clean(self, seed_lexicon):
        issues = validate(seed_lexicon)
        assert [i for i in issues if i.severity == "error"] == []
        warnings = [i for i in issues if i.severity == "warning"]
        assert [w.surface for w in warnings] == ["fuel"]

    def test_blocklisted_surface_is_error(self):
        # the lexicon normalizes its blocklist, so case hides no clash
        for word in ("cancel", "CANCEL"):
            lex = build_lexicon([entry("cancel")], blocklist=frozenset({word}))
            issues = validate(lex)
            assert any(i.severity == "error" and i.surface == "cancel" for i in issues)

    def test_empty_categories_warning(self):
        lex = build_lexicon([entry("foo")])
        assert any(i.severity == "warning" for i in validate(lex))


class TestCategoryStats:
    def test_counts_and_percentages(self, coded_lexicon):
        stats = category_stats(coded_lexicon)
        assert stats.total == 64
        assert stats.counts == {"dehumanizing": 46, "racist": 17, "misogynistic": 17}
        assert stats.percentages == {"dehumanizing": 71.9, "racist": 26.6, "misogynistic": 26.6}

    def test_half_rounds_up(self):
        lex = build_lexicon(
            [entry(f"t{i}", categories=frozenset({"racist"} if i == 0 else {"dehumanizing"}))
             for i in range(16)]
        )
        # 1/16 = 6.25%, ties round away from the even digit
        assert category_stats(lex).percentages["racist"] == 6.3

    def test_category_order_fixed(self, coded_lexicon):
        assert list(category_stats(coded_lexicon).counts) == list(CATEGORIES)

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ValueError):
            category_stats(build_lexicon([]))


class TestSerialization:
    def test_tsv_round_trip(self, seed_lexicon):
        assert_tsv_rows(export_tsv(seed_lexicon), seed_lexicon.entries)

    def test_tsv_sanitizes_definition(self):
        lex = build_lexicon([entry("foo", definition="line one\nline\ttwo")])
        (row,) = tsv_rows(export_tsv(lex))
        assert row["definition"] == "line one line two"

    def test_jsonl_round_trip(self, seed_lexicon):
        text = entries_to_jsonl(seed_lexicon.entries)
        back = load_lexicon(text, seed_lexicon.blocklist)
        assert back.entries == seed_lexicon.entries

    def test_pickle_leaves_the_memo_behind(self, seed_lexicon):
        # a worker started by spawn or forkserver receives its lexicon
        # pickled, and should not receive the parent's whole memo with it
        lexicon = build_lexicon(seed_lexicon.entries, seed_lexicon.blocklist)
        assert annotate_text("p", "a wristcel lurks sooo", lexicon).matched_count == 1
        assert lexicon.memo
        copy = pickle.loads(pickle.dumps(lexicon))
        assert copy == lexicon
        assert copy.memo == {}


@given(
    surface=st.from_regex(r"[a-z]{1,6}[0-9]{0,2}", fullmatch=True),
    kind=st.sampled_from(KINDS),
    cats=st.sets(st.sampled_from(CATEGORIES)),
    definition=definitions,
)
def test_jsonl_round_trip_property(surface, kind, cats, definition):
    """Any valid entry survives serialization unchanged, whatever line
    separators its definition holds."""
    try:
        e = LexiconEntry(
            surface=surface, kind=kind, definition=definition, categories=frozenset(cats)
        )
    except ValueError:
        return  # triple letter runs are rejected at construction
    back = load_lexicon(entries_to_jsonl([e]))
    assert back.entries == (e,)


def test_jsonl_file_keeps_unicode_line_separators(tmp_path):
    e = entry("incel", definition="a\u2028b\x85c\x0cd")
    path = tmp_path / "lexicon.jsonl"
    path.write_text(entries_to_jsonl([e]), encoding="utf-8")
    assert load_lexicon(path).entries == (e,)


@given(st.lists(definitions, min_size=1, max_size=4))
def test_tsv_round_trip_any_definition(texts):
    """Each definition comes back sanitized, one row per entry, from LF and
    from CRLF files."""
    lex = build_lexicon([entry(f"w{i}", definition=d) for i, d in enumerate(texts)])
    text = export_tsv(lex)
    for sheet in (text, text.replace("\n", "\r\n")):
        assert_tsv_rows(sheet, lex.entries)
