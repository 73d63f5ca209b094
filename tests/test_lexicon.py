from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from cryptolex import (
    CATEGORIES,
    KINDS,
    LexiconEntry,
    LexiconFormatError,
    annotate_text,
    build_lexicon,
    category_stats,
    entries_to_jsonl,
    export_tsv,
    lexicon_from_tsv,
    load_blocklist,
    load_lexicon,
    validate,
)
from cryptolex.lexicon import TSV_COLUMNS, _tsv_safe

from conftest import definitions


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

    def test_unknown_field_rejected(self):
        text = json.dumps({"surface": "incel", "kind": "root", "weight": 3})
        with pytest.raises(LexiconFormatError, match="weight"):
            load_lexicon(text)

    def test_non_object_line_rejected(self):
        with pytest.raises(LexiconFormatError):
            load_lexicon('["incel"]')

    def test_duplicate_surface_across_entries_rejected(self):
        rows = [{"surface": "incel", "kind": "root"}] * 2
        text = "\n".join(json.dumps(r) for r in rows)
        with pytest.raises(LexiconFormatError, match="incel"):
            load_lexicon(text)

    def test_variant_colliding_with_surface_rejected(self):
        rows = [
            {"surface": "mog", "kind": "suffix", "variants": ["mogg"]},
            {"surface": "mogg", "kind": "root"},
        ]
        text = "\n".join(json.dumps(r) for r in rows)
        with pytest.raises(LexiconFormatError):
            load_lexicon(text)

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "lex.jsonl"
        p.write_text('{"surface": "incel", "kind": "root"}\n', encoding="utf-8")
        assert len(load_lexicon(p)) == 1

    def test_lookup_variant(self, seed_lexicon):
        assert seed_lexicon.lookup("mogg").surface == "mog"
        assert seed_lexicon.lookup("max").surface == "maxx"
        assert seed_lexicon.lookup("nope") is None

    def test_affix_forms_longest_first(self, seed_lexicon):
        lengths = [len(f) for f in seed_lexicon.suffix_forms]
        assert lengths == sorted(lengths, reverse=True)


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


@given(st.lists(definitions, max_size=4))
def test_blocklist_lines_split_on_newline_only(texts):
    """One word per "\\n"-separated line, from LF and from CRLF files,
    whatever other line separators a word holds."""
    words = [_tsv_safe(t) for t in texts]
    expected = {w.split("#", 1)[0].strip().lower() for w in words} - {""}
    text = "\n".join(words) + "\n"
    for source in (text, text.replace("\n", "\r\n")):
        assert load_blocklist(source) == expected


class TestValidate:
    def test_seed_is_clean(self, seed_lexicon):
        issues = validate(seed_lexicon)
        assert [i for i in issues if i.severity == "error"] == []
        warnings = [i for i in issues if i.severity == "warning"]
        assert [w.surface for w in warnings] == ["fuel"]

    def test_blocklisted_surface_is_error(self):
        lex = build_lexicon([entry("cancel")], blocklist=frozenset({"cancel"}))
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
        text = export_tsv(seed_lexicon)
        back = lexicon_from_tsv(text, blocklist=seed_lexicon.blocklist)
        assert len(back) == len(seed_lexicon)
        for e in seed_lexicon.entries:
            got = back.lookup(e.surface)
            assert got.kind == e.kind
            assert got.categories == e.categories
            assert got.productive == e.productive
            assert got.variants == e.variants

    def test_tsv_sanitizes_definition(self):
        lex = build_lexicon([entry("foo", definition="line one\nline\ttwo")])
        text = export_tsv(lex)
        row = text.splitlines()[1]
        assert row.count("\t") == 5
        assert lexicon_from_tsv(text).lookup("foo").definition == "line one line two"

    def test_tsv_error_names_physical_line(self):
        text = "\t".join(TSV_COLUMNS) + "\n\nfoo\tinfix\tfalse\t\t\t\n"
        with pytest.raises(LexiconFormatError, match="^line 3: unknown kind") as exc:
            lexicon_from_tsv(text)
        assert exc.value.line == 3

    def test_tsv_header_checked(self):
        with pytest.raises(LexiconFormatError):
            lexicon_from_tsv("wrong\theader\n")

    def test_jsonl_round_trip(self, seed_lexicon):
        text = entries_to_jsonl(seed_lexicon.entries)
        back = load_lexicon(text, seed_lexicon.blocklist)
        assert back.entries == seed_lexicon.entries


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
    """Each definition comes back sanitized, from LF and from CRLF files."""
    lex = build_lexicon([entry(f"w{i}", definition=d) for i, d in enumerate(texts)])
    text = export_tsv(lex)
    for sheet in (text, text.replace("\n", "\r\n")):
        back = lexicon_from_tsv(sheet)
        assert [e.definition for e in back.entries] == [_tsv_safe(d) for d in texts]
