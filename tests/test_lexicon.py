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
    Segment,
    annotate_text,
    category_stats,
    export_tsv,
    load_lexicon,
    load_word_list,
    normalize_token,
    validate,
)
from cryptolex.lexicon import AFFIX_KINDS, _tsv_safe, read_lines

from conftest import BEYOND_JSON_PARSER, assert_tsv_rows, definitions, lexicon_jsonl, tsv_rows


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
        lex = Lexicon([entry("x1000")])
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

    # an entry built in Python meets the rule a loaded one meets, field
    # types included

    def test_string_variants_rejected(self):
        # a str iterates as one-letter forms: "xyz" would add x, y and z
        with pytest.raises(LexiconFormatError, match="^variants must be a list of strings$"):
            entry("abc", variants="xyz")

    def test_string_productive_rejected(self):
        # "no" is truthy, so it would license wristcel
        with pytest.raises(LexiconFormatError, match="^productive must be a boolean$"):
            entry("cel", "suffix", productive="no")

    def test_non_string_definition_rejected(self):
        # export_tsv would fail on it long after the entry was built
        with pytest.raises(LexiconFormatError, match="^definition must be a string$"):
            entry("cope", definition=5)

    def test_string_categories_rejected(self):
        with pytest.raises(LexiconFormatError, match="^categories must be a list of strings$"):
            entry("abc", categories="racist")

    def test_lone_surrogate_definition_rejected(self):
        with pytest.raises(LexiconFormatError, match="^field 'definition' holds a lone surrogate$"):
            entry("cope", definition="a \ud800 b")

    def test_containers_are_stored_frozen(self):
        # categories may come in any list, tuple, set or frozenset, variants
        # in a list or tuple (their order is kept); the entry stays hashable
        e = entry("abc", categories=["racist"], variants=["abd"])
        assert e.categories == frozenset({"racist"})
        assert e.variants == ("abd",)
        for categories in (("racist",), {"racist"}):
            same = entry("abc", categories=categories, variants=("abd",))
            assert same == e and hash(same) == hash(e)

    def test_unordered_variants_rejected(self):
        with pytest.raises(LexiconFormatError, match="^variants must be a list of strings$"):
            entry("abc", variants={"abd"})


class TestLoading:
    def test_load_from_text(self):
        text = json.dumps({"surface": "incel", "kind": "root", "categories": ["dehumanizing"]})
        lex = load_lexicon(text)
        assert len(lex) == 1
        assert lex.forms.get("incel").kind == "root"

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

    def test_lone_surrogate_in_definition_names_its_line(self):
        # a JSON \ud800 escape with no partner: no output could encode it
        text = '{"surface": "incel", "kind": "root"}\n' + json.dumps(
            {"surface": "cope", "kind": "root", "definition": "a \ud800 b"}
        )
        with pytest.raises(LexiconFormatError) as exc:
            load_lexicon(text)
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: field 'definition' holds a lone surrogate"

    def test_non_string_definition_rejected(self):
        text = json.dumps({"surface": "cope", "kind": "root", "definition": 5})
        with pytest.raises(LexiconFormatError, match="line 1: definition must be a string"):
            load_lexicon(text)

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
        assert seed_lexicon.forms.get("mogg").surface == "mog"
        assert seed_lexicon.forms.get("max").surface == "maxx"
        assert seed_lexicon.forms.get("nope") is None

    def test_any_iterables_build_the_same_lexicon(self):
        # the constructor keeps entries as a tuple and normalizes any
        # iterable blocklist, so a list-built lexicon is no different
        e = entry("gymcel")
        built = Lexicon([e], ["GymCel"])
        assert built == Lexicon((e,), frozenset({"gymcel"}))
        assert built.entries == (e,)
        assert pickle.loads(pickle.dumps(built)) == built
        assert Lexicon(iter([e])).forms == {"gymcel": e}


# Each optional field under each kind of JSON value, and records with two
# faults: the entry each record loads as, or the message that refuses it.
# Field types are checked before values, so a record with two faults names
# its first type fault.
FIELD_MESSAGES = {
    "categories": "categories must be a list of strings",
    "variants": "variants must be a list of strings",
    "productive": "productive must be a boolean",
    "definition": "definition must be a string",
    "source": "source must be a string",
}
JSON_VALUES = [None, 5, True, "racist", ["racist", 5], {"racist": 1}, ["racist"], []]
# the values each field takes, by their JSON text, and the entry they give
ACCEPTED = {
    ("categories", '["racist"]'): {"categories": frozenset({"racist"})},
    ("categories", "[]"): {},
    ("variants", '["racist"]'): {"variants": ("racist",)},
    ("variants", "[]"): {},
    ("productive", "true"): {"productive": True},
    ("definition", '"racist"'): {"definition": "racist"},
    ("source", '"racist"'): {"source": "racist"},
}


def _one_field_rows():
    for name, message in FIELD_MESSAGES.items():
        for value in JSON_VALUES:
            kw = ACCEPTED.get((name, json.dumps(value)))
            expected = message if kw is None else LexiconEntry("cel", "suffix", **kw)
            record = {"surface": "cel", "kind": "suffix", name: value}
            yield pytest.param(record, expected, id=f"{name}={json.dumps(value)}")


TWO_FAULTS = [
    ({"surface": "ABC", "kind": "root", "categories": 5}, "categories must be a list of strings"),
    ({"surface": "abc", "kind": "infix", "productive": "yes"}, "productive must be a boolean"),
    ({"surface": 5, "kind": "root", "definition": 7}, "definition must be a string"),
    ({"surface": "abc", "kind": "root", "variants": None, "categories": None},
     "categories must be a list of strings"),
    ({"surface": "abc", "kind": "root", "definition": 5, "productive": None},
     "productive must be a boolean"),
    ({"surface": "abc", "kind": "root", "categories": ["rude"], "variants": ["ABD"]},
     "unknown category 'rude' for 'abc'"),
    ({"surface": "abc", "kind": "root", "productive": True, "variants": ["abc"]},
     "'abc': productive=true is only meaningful for prefix/suffix entries"),
    ({"kind": "root", "categories": 5}, "missing required field 'surface'"),
    ({"surface": "abc", "kind": "root", "weight": 1, "categories": 5}, "unknown fields ['weight']"),
    ({"surface": "abc", "kind": "root", "definition": "\ud800", "source": 5},
     "field 'definition' holds a lone surrogate"),
    ({"surface": "abc", "kind": "root", "categories": ["rude"], "source": None},
     "source must be a string"),
]


@pytest.mark.parametrize(
    "record, expected",
    [*_one_field_rows(), *(pytest.param(r, m, id="+".join(r)) for r, m in TWO_FAULTS)],
)
def test_json_field_table(record, expected):
    text = json.dumps(record)
    if isinstance(expected, str):
        with pytest.raises(LexiconFormatError) as exc:
            load_lexicon(text)
        assert str(exc.value) == f"line 1: {expected}"
    else:
        assert load_lexicon(text).entries == (expected,)


# any JSON value, and values that break one rule or another
json_junk = st.one_of(
    st.none(),
    st.integers(-1, 5),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.one_of(st.text(max_size=3), st.integers(0, 2)), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
forms = st.sampled_from(["abc", "abd", "cel", "racist", "ABD", "", "a-b", "weee"])
entry_records = st.fixed_dictionaries(
    {"surface": forms | json_junk, "kind": st.sampled_from(KINDS + ("infix",)) | json_junk},
    optional={
        "categories": st.lists(st.sampled_from(CATEGORIES + ("rude",)), max_size=3) | json_junk,
        "variants": st.lists(forms, max_size=3) | json_junk,
        "productive": st.booleans() | json_junk,
        "definition": definitions | st.just("a \ud800") | json_junk,
        "source": st.text(max_size=5) | json_junk,
    },
)


@given(entry_records)
def test_construction_matches_loading(record):
    """An entry built from a record in Python and one loaded from the same
    record as JSON are equal, or fail with the same message."""
    try:
        built = LexiconEntry(**record)
    except LexiconFormatError as exc:
        built = str(exc)
    try:
        (loaded,) = load_lexicon(json.dumps(record)).entries
    except LexiconFormatError as exc:
        loaded = str(exc).removeprefix("line 1: ")
    assert built == loaded


class TestBlocklist:
    def test_parse_text(self):
        bl = load_word_list("# comment\ncancel\n\nEXCEL  \n")
        assert bl == frozenset({"cancel", "excel"})

    def test_inline_comment(self):
        assert load_word_list("cancel  # can + cel\n") == frozenset({"cancel"})

    def test_from_file(self, tmp_path):
        p = tmp_path / "block.txt"
        p.write_text("parcel\n", encoding="utf-8")
        assert load_word_list(p) == frozenset({"parcel"})

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        # a list saved with a UTF-8 signature keeps its first word
        path = tmp_path / "block.txt"
        for text in ("gymcel\ncope\n", "\ufeffgymcel\ncope\n"):
            path.write_bytes(text.encode("utf-8"))
            assert load_word_list(text) == load_word_list(path) == frozenset({"gymcel", "cope"})

    def test_unicode_line_separator_is_not_a_line_break(self):
        assert load_word_list("cell\u2028mate\r\n") == frozenset({"cell\u2028mate"})

    def test_letter_runs_collapse_as_in_tokens(self, seed_lexicon):
        # decompose checks the blocklist with collapsed forms only, so an
        # uncollapsed line would block nothing
        assert load_word_list("Gymcelll  # gym + cel\n") == frozenset({"gymcell"})
        for line in ("Gymcelll", "gymcell"):
            lexicon = Lexicon(seed_lexicon.entries, load_word_list(line))
            assert annotate_text("p", "a gymcelll lifts", lexicon).matched_count == 0

    def test_lexicon_normalizes_a_blocklist_it_is_given(self, seed_lexicon):
        # however a lexicon is built, its blocklist holds the forms
        # decompose checks: "GYMCEL" blocks both words, "gymcelll" (collapsed
        # to "gymcell") blocks the elongated one
        for words, matched in ((["GYMCEL"], 0), (["gymcelll"], 1)):
            lexicon = Lexicon(seed_lexicon.entries, words)
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
        assert load_word_list(source) == expected
        assert load_word_list(path) == expected


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
            lex = Lexicon([entry("cancel")], blocklist=frozenset({word}))
            issues = validate(lex)
            assert any(i.severity == "error" and i.surface == "cancel" for i in issues)

    def test_empty_categories_warning(self):
        lex = Lexicon([entry("foo")])
        assert any(i.severity == "warning" for i in validate(lex))


class TestCategoryStats:
    def test_counts_and_percentages(self, coded_lexicon):
        stats = category_stats(coded_lexicon)
        assert stats.total == 64
        assert stats.counts == {"dehumanizing": 46, "racist": 17, "misogynistic": 17}
        assert stats.percentages == {"dehumanizing": 71.9, "racist": 26.6, "misogynistic": 26.6}

    def test_half_rounds_up(self):
        lex = Lexicon(
            [entry(f"t{i}", categories=frozenset({"racist"} if i == 0 else {"dehumanizing"}))
             for i in range(16)]
        )
        # 1/16 = 6.25%, ties round away from the even digit
        assert category_stats(lex).percentages["racist"] == 6.3

    def test_category_order_fixed(self, coded_lexicon):
        assert list(category_stats(coded_lexicon).counts) == list(CATEGORIES)

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ValueError):
            category_stats(Lexicon([]))


class TestSerialization:
    def test_tsv_round_trip(self, seed_lexicon):
        assert_tsv_rows(export_tsv(seed_lexicon), seed_lexicon.entries)

    def test_tsv_sanitizes_definition(self):
        lex = Lexicon([entry("foo", definition="line one\nline\ttwo")])
        (row,) = tsv_rows(export_tsv(lex))
        assert row["definition"] == "line one line two"

    def test_jsonl_round_trip(self, seed_lexicon):
        text = lexicon_jsonl(seed_lexicon.entries)
        back = load_lexicon(text, seed_lexicon.blocklist)
        assert back.entries == seed_lexicon.entries

    def test_pickle_leaves_the_memo_behind(self, seed_lexicon):
        # a worker started by spawn or forkserver receives its lexicon
        # pickled, and should not receive the parent's whole memo with it;
        # it rebuilds its affix tables from the entries
        lexicon = Lexicon(seed_lexicon.entries, seed_lexicon.blocklist)
        assert annotate_text("p", "a wristcel lurks sooo", lexicon).matched_count == 1
        assert lexicon.memo
        copy = pickle.loads(pickle.dumps(lexicon))
        assert copy == lexicon
        assert copy.memo == {}
        assert copy.affix_tables == lexicon.affix_tables
        assert copy.affix_tables["suffix"] and copy.affix_tables["prefix"]


class TestAffixTables:
    def test_one_table_per_affix_kind(self):
        # per kind, (length, {form: Segment}) in ascending length; a root's
        # forms are in neither table
        lex = Lexicon(
            [
                entry("cel", kind="suffix", variants=("cell", "maxx")),
                entry("chad", kind="prefix", variants=("chadd",)),
                entry("curry", kind="prefix"),
                entry("incel", variants=("inc",)),
            ]
        )
        tables = {kind: [(k, sorted(t)) for k, t in lex.affix_tables[kind]] for kind in AFFIX_KINDS}
        assert tables == {
            "prefix": [(4, ["chad"]), (5, ["chadd", "curry"])],
            "suffix": [(3, ["cel"]), (4, ["cell", "maxx"])],
        }
        for kind in AFFIX_KINDS:
            for _, segments in lex.affix_tables[kind]:
                for form, segment in segments.items():
                    assert segment == Segment(form, kind, lex.forms[form])

    def test_tables_are_outside_equality_and_repr(self):
        lex = Lexicon([entry("cel", kind="suffix")])
        assert "affix_tables" not in repr(lex)
        other = Lexicon([entry("cel", kind="suffix")])
        other.affix_tables = {"prefix": (), "suffix": ()}
        assert other == lex


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
    back = load_lexicon(lexicon_jsonl([e]))
    assert back.entries == (e,)


def test_jsonl_file_keeps_unicode_line_separators(tmp_path):
    e = entry("incel", definition="a\u2028b\x85c\x0cd")
    path = tmp_path / "lexicon.jsonl"
    path.write_text(lexicon_jsonl([e]), encoding="utf-8")
    assert load_lexicon(path).entries == (e,)


@given(st.lists(definitions, min_size=1, max_size=4))
def test_tsv_round_trip_any_definition(texts):
    """Each definition comes back sanitized, one row per entry, from LF and
    from CRLF files."""
    lex = Lexicon([entry(f"w{i}", definition=d) for i, d in enumerate(texts)])
    text = export_tsv(lex)
    for sheet in (text, text.replace("\n", "\r\n")):
        assert_tsv_rows(sheet, lex.entries)
