from __future__ import annotations

import io
import json
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cryptolex import (
    FrequencyTable,
    Lexicon,
    Post,
    PostFormatError,
    ReadReport,
    annotation_json,
    build_frequency_table,
    decompose,
    iso_week,
    load_seed_lexicon,
    merge,
    parse_post_line,
    read_posts,
    scan_annotations,
    scan_frequency_table,
    scan_tables,
    scan_usage,
    series_from_counts,
    tokenize,
    usage_series,
    week_index,
)
from cryptolex import corpus, morpho
from cryptolex.corpus import MAX_CREATED_UTC
from cryptolex.lexicon import parse_json_line

from conftest import (
    DEEP_NESTING_LINE,
    LONG_INTEGER_LINE,
    chunk_lines,
    make_post,
    memo_limit,
    productive_affixes,
    reference_annotation,
    reference_usage,
    week_ts,
    write_jsonl,
)

GOOD = {"id": "p1", "user": "u1", "forum": "f", "created_utc": 1577836800, "text": "hi"}


def jline(record) -> str:
    return json.dumps(record)


class TestParsePost:
    def test_happy_path(self):
        post = parse_post_line(jline(GOOD))
        assert post == Post(id="p1", user="u1", forum="f", created_utc=1577836800, text="hi")
        assert post.parent_id is None

    def test_parent_id_kept(self):
        post = parse_post_line(jline({**GOOD, "parent_id": "p0"}))
        assert post.parent_id == "p0"

    def test_unknown_fields_ignored(self):
        post = parse_post_line(jline({**GOOD, "score": 7}))
        assert post.id == "p1"

    @pytest.mark.parametrize("missing", ["id", "user", "forum", "created_utc", "text"])
    def test_required_fields(self, missing):
        record = {k: v for k, v in GOOD.items() if k != missing}
        with pytest.raises(PostFormatError, match=missing):
            parse_post_line(jline(record))

    def test_timestamp_from_numeric_string(self):
        assert parse_post_line(jline({**GOOD, "created_utc": "1577836800"})).created_utc == 1577836800

    def test_timestamp_from_integral_float(self):
        assert parse_post_line(jline({**GOOD, "created_utc": 1577836800.0})).created_utc == 1577836800

    @pytest.mark.parametrize("bad", [True, -5, 1.5, "soon", None])
    def test_bad_timestamp_rejected(self, bad):
        with pytest.raises(PostFormatError):
            parse_post_line(jline({**GOOD, "created_utc": bad}))

    def test_empty_id_rejected(self):
        with pytest.raises(PostFormatError):
            parse_post_line(jline({**GOOD, "id": ""}))

    def test_blank_line_is_malformed(self):
        with pytest.raises(PostFormatError):
            parse_post_line("   ")

    def test_line_number_reported(self):
        with pytest.raises(PostFormatError, match="line 7"):
            parse_post_line("nope", line=7)

    def test_bytes_decoded_as_utf8(self):
        raw = json.dumps({**GOOD, "text": "héllo\u2028"}, ensure_ascii=False).encode("utf-8")
        assert parse_post_line(raw) == parse_post_line(raw.decode("utf-8"))

    def test_invalid_utf8_is_malformed(self):
        with pytest.raises(PostFormatError, match="line 3: invalid UTF-8"):
            parse_post_line(b'{"id": "\xff"}\n', line=3)

    @pytest.mark.parametrize("field", ["id", "user", "forum", "parent_id"])
    @pytest.mark.parametrize("value", ["\ud800", "a\udfff", "é\udc00"])
    def test_lone_surrogate_in_a_written_field_is_malformed(self, field, value):
        # a JSON \ud800 escape decodes to a str no UTF-8 output can encode
        message = f"line 2: field '{field}' holds a lone surrogate"
        with pytest.raises(PostFormatError, match=message):
            parse_post_line(jline({**GOOD, field: value}), line=2)

    def test_surrogates_elsewhere_are_kept(self):
        # a pair is one character once decoded, and text is only read for words
        post = parse_post_line(jline({**GOOD, "id": "\U0001f600", "text": "hi \ud800"}))
        assert (post.id, post.text) == ("\U0001f600", "hi \ud800")


# past the range: an int too large for a float, and a second in the year
# 3170843; then the last second of 9999 and the one after it
OUT_OF_RANGE = [10**400, 99999999999999, MAX_CREATED_UTC + 1]


class TestCreatedRange:
    def test_last_second_of_9999_is_valid(self):
        post = parse_post_line(jline({**GOOD, "created_utc": MAX_CREATED_UTC}))
        assert post.created_utc == 253402300799
        assert iso_week(post.created_utc) == "9999-W52"

    @pytest.mark.parametrize("created", OUT_OF_RANGE)
    def test_out_of_range_is_malformed(self, created):
        with pytest.raises(PostFormatError, match="line 4: field 'created_utc' is out of range"):
            parse_post_line(jline({**GOOD, "created_utc": created}), line=4)

    @pytest.mark.parametrize("created", OUT_OF_RANGE + [MAX_CREATED_UTC])
    def test_skip_and_strict(self, seed_lexicon, created):
        text = "".join(
            jline(record) + "\n"
            for record in (GOOD, {**GOOD, "id": "p2", "created_utc": created}, {**GOOD, "id": "p3"})
        )
        valid = created <= MAX_CREATED_UTC
        report = ReadReport()
        assert len(list(read_posts(text, report=report))) == (3 if valid else 2)
        usage_report = ReadReport()
        with chunk_lines(1):
            usage = scan_usage(text, seed_lexicon, workers=2, report=usage_report)
        assert usage_report == report
        assert (("u1", "9999-W52") in usage) == valid
        if valid:
            assert list(read_posts(text, strict=True))[1].created_utc == created
            return
        assert report.first_error.startswith("line 2: field 'created_utc' is out of range")
        for scan in (
            lambda: list(read_posts(text, strict=True)),
            lambda: scan_usage(text, seed_lexicon, strict=True),
            lambda: scan_frequency_table(text, workers=2, strict=True),
        ):
            with chunk_lines(1), pytest.raises(
                PostFormatError, match="line 2: field 'created_utc' is out of"
            ):
                scan()


FIELDS = ("id", "user", "forum", "created_utc", "text", "parent_id")
FULL = {**GOOD, "parent_id": "p0"}
MISSING = object()

field_strings = st.one_of(
    st.text(st.sampled_from(["a", "0", " ", "é", "中", "\U0001f600", "\ud800", "\udfff"]), max_size=3),
    st.integers().map(str),
    st.floats().map(str),
)
field_values = st.one_of(
    field_strings,
    st.integers(),
    st.booleans(),
    st.floats(),
    st.integers(-(2**53), 2**53).map(float),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
created_values = st.sampled_from([-1, 0, MAX_CREATED_UTC, MAX_CREATED_UTC + 1, 2**70, -1.0, 2.5])


@st.composite
def post_records(draw) -> dict:
    """A well-formed record with some fields changed, dropped or added."""
    record = dict(FULL)
    for name in draw(st.sets(st.sampled_from(FIELDS), max_size=3)):
        values = [field_values, st.just(MISSING)]
        if name == "created_utc":
            values.append(created_values)
        value = draw(st.one_of(values))
        if value is MISSING:
            del record[name]
        else:
            record[name] = value
    record.update(draw(st.dictionaries(st.text(max_size=2), field_values, max_size=2)))
    return record


# lines json.loads must judge alike, drawn from valid JSON and then spoilt
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)


@st.composite
def json_line_texts(draw) -> str:
    text = json.dumps(draw(json_values), ensure_ascii=draw(st.booleans()))
    spoil = draw(st.sampled_from(["none", "trailing", "leading", "bom", "cut", "replace"]))
    if spoil == "trailing":
        text += draw(st.sampled_from([" ", "\t", "x", "{}", " 1", ",", "]"]))
    elif spoil == "leading":
        text = draw(st.sampled_from([" ", "\n", "x"])) + text
    elif spoil == "bom":
        text = "\ufeff" + text
    elif spoil == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    elif spoil == "replace" and text:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(st.sampled_from('{}[]",:\\0eE-.nN')) + text[at + 1 :]
    return text


json_line_oddities = st.sampled_from(
    [
        "NaN",
        "-Infinity",
        '{"t": [NaN, Infinity, -Infinity]}',
        # deep, but not within a few levels of the recursion limit, where
        # the scanner may read a line json.loads rejects (the cut-off test)
        "[" * 500 + "]" * 500,
        "[" * 500,
        DEEP_NESTING_LINE,
        "1" * 4300,  # int()'s default digit limit
        "-" + "1" * 4300,
        LONG_INTEGER_LINE,
        '{"n": 1e400}',
        '"\\ud800"',
        '{"a": 1} {"b": 2}',
        '{"a": 1}\n',
    ]
)


def reference_parse_json_line(text: str):
    """json.loads with the messages a JSON Lines reader gives."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        message = exc.msg
    except ValueError:
        message = "integer too long"
    except RecursionError:
        message = "nested too deeply"
    raise PostFormatError(f"invalid JSON ({message})", 5)


def outcome(parse, arg):
    """What a parser makes of arg: ("value", repr) or ("error", message).
    repr tells 1 from 1.0 and True, and shows NaN, which equals nothing."""
    try:
        value = parse(arg)
    except PostFormatError as exc:
        return "error", str(exc)
    if isinstance(value, Post):
        value = [(type(field), field) for field in value]
    return "value", repr(value)


def assert_record_matches_reference(record) -> None:
    assert outcome(lambda r: corpus.parse_post_record(r, 3), record) == outcome(
        lambda r: corpus._check_post_record(r, 3), record
    )


class TestLineFastPaths:
    """Each fast path of parse_post_line against the reference it stands
    in for: an equal value, or an equal message."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(json_line_texts(), json_line_oddities, st.text(max_size=12)))
    def test_json_scan_matches_json_loads(self, text):
        assert outcome(lambda t: parse_json_line(t, 5, PostFormatError), text) == outcome(
            reference_parse_json_line, text
        )

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(post_records(), field_values))
    @example(FULL)
    @example(GOOD)
    def test_record_check_matches_reference(self, record):
        assert_record_matches_reference(record)

    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from(FIELDS), st.one_of(created_values, field_values, st.just(MISSING)))
    @example("created_utc", -1)
    @example("created_utc", 0)
    @example("created_utc", MAX_CREATED_UTC)
    @example("created_utc", MAX_CREATED_UTC + 1)
    @example("created_utc", 2**70)
    @example("created_utc", True)
    def test_one_field_off_matches_reference(self, name, value):
        # one fault at a time: the record each check of the fast path guards
        record = {key: FULL[key] for key in FIELDS if key != name}
        if value is not MISSING:
            record[name] = value
        assert_record_matches_reference(record)

    def test_nesting_cut_off_is_json_loads_or_a_few_levels_deeper(self):
        # both cut-offs move with the caller's stack; the scanner runs a few
        # frames shallower than json.loads, so it may read a few levels more
        def deepest(parse) -> int:
            for depth in range(1, sys.getrecursionlimit() + 1):
                try:
                    parse("[" * depth + "]" * depth)
                except (RecursionError, PostFormatError):
                    return depth - 1
            raise AssertionError("no depth failed")

        reference = deepest(json.loads)
        fast = deepest(lambda t: parse_json_line(t, 5, PostFormatError))
        assert reference <= fast <= reference + 8
        too_deep = "[" * (fast + 1) + "]" * (fast + 1)
        assert outcome(lambda t: parse_json_line(t, 5, PostFormatError), too_deep) == (
            "error",
            "line 5: invalid JSON (nested too deeply)",
        )


class TestReadPosts:
    def test_skip_mode_counts(self):
        text = jline(GOOD) + "\nbroken\n" + jline({**GOOD, "id": "p2"}) + "\n"
        report = ReadReport()
        posts = list(read_posts(text, report=report))
        assert [p.id for p in posts] == ["p1", "p2"]
        assert (report.lines, report.parsed, report.skipped) == (3, 2, 1)
        assert "line 2" in report.first_error

    def test_strict_mode_raises(self):
        text = jline(GOOD) + "\nbroken\n"
        with pytest.raises(PostFormatError, match="line 2"):
            list(read_posts(text, strict=True))

    def test_strict_is_keyword_only(self):
        # a mode passed by position, as in read_posts(text, "skip"), is truthy
        with pytest.raises(TypeError):
            read_posts(jline(GOOD), "skip")

    def test_from_file(self, tmp_path):
        path = write_jsonl(tmp_path / "posts.jsonl", [GOOD])
        assert [p.id for p in read_posts(path)] == ["p1"]

    def test_from_iterable(self):
        assert [p.id for p in read_posts([jline(GOOD)])] == ["p1"]

    def test_source_kinds_agree(self, tmp_path):
        # U+2028 is a line break to str.splitlines but not to JSON Lines
        text = (
            jline(GOOD)
            + "\nbroken\n"
            + json.dumps({**GOOD, "id": "p2", "text": "a\u2028b\x85c"}, ensure_ascii=False)
            + "\n"
        )
        path = tmp_path / "posts.jsonl"
        path.write_bytes(text.encode("utf-8"))
        results = []
        for source in (path, text, io.StringIO(text), io.BytesIO(text.encode("utf-8"))):
            report = ReadReport()
            results.append((list(read_posts(source, report=report)), report))
        assert all(r == results[0] for r in results[1:])
        posts, report = results[0]
        assert [p.id for p in posts] == ["p1", "p2"]
        assert (report.lines, report.parsed, report.skipped) == (3, 2, 1)


class TestFrequencyTable:
    def test_counts_normalized_tokens(self):
        posts = [
            parse_post_line(jline({**GOOD, "text": "Sooo sooo done"})),
            parse_post_line(jline({**GOOD, "id": "p2", "text": "done"})),
        ]
        table = build_frequency_table(posts)
        assert table.counts == {"soo": 2, "done": 2}
        assert table.total_tokens == 4
        assert table.doc_count == 2

    def test_canonical_json_is_sorted_and_compact(self):
        table = FrequencyTable(counts={"b": 1, "a": 2}, total_tokens=3, doc_count=1)
        assert table.canonical_json() == '{"counts":{"a":2,"b":1},"doc_count":1,"total_tokens":3}'

    def test_merge_adds(self):
        a = FrequencyTable(counts={"x": 1}, total_tokens=1, doc_count=1)
        b = FrequencyTable(counts={"x": 2, "y": 1}, total_tokens=3, doc_count=2)
        expected = FrequencyTable(counts={"x": 3, "y": 1}, total_tokens=4, doc_count=3)
        assert merge(a, b) == expected
        # merge leaves both inputs as they were
        assert a == FrequencyTable(counts={"x": 1}, total_tokens=1, doc_count=1)
        assert b == FrequencyTable(counts={"x": 2, "y": 1}, total_tokens=3, doc_count=2)
        for first, second in ((a, b), (b, a)):
            folded = FrequencyTable()
            for table in (first, second):
                folded.add(table)
            assert folded == expected
        # and add leaves the table it folds in as it was
        assert a.counts == {"x": 1} and b.counts == {"x": 2, "y": 1}

    @given(
        st.lists(
            st.tuples(st.dictionaries(st.sampled_from("abc"), st.integers(1, 9), max_size=3)),
            min_size=2,
            max_size=4,
        )
    )
    def test_merge_order_independent(self, parts):
        tables = [
            FrequencyTable(counts=dict(c), total_tokens=sum(c.values()), doc_count=1)
            for (c,) in parts
        ]
        snapshots = [t.canonical_json() for t in tables]
        forward = tables[0]
        for t in tables[1:]:
            forward = merge(forward, t)
        backward = tables[-1]
        for t in reversed(tables[:-1]):
            backward = merge(backward, t)
        assert forward.canonical_json() == backward.canonical_json()
        # the scans' in-place fold, from an empty table, in both orders
        for order in (tables, tables[::-1]):
            folded = FrequencyTable()
            for t in order:
                folded.add(t)
            assert folded.canonical_json() == forward.canonical_json()
        assert [t.canonical_json() for t in tables] == snapshots


def affix_table(text: str, lexicon):
    """The affix scan of a one-post corpus."""
    return scan_tables([[jline({**GOOD, "text": text})]], lexicon)[0]


class TestAffixTable:
    def test_productive_affixes_counted(self, seed_lexicon):
        table = affix_table("looksmaxxing and heightmogging chadpreet", seed_lexicon)
        assert table.counts == {"maxx": 1, "mog": 1, "chad": 1}
        assert table.doc_count == 1

    def test_variant_counts_toward_canonical_surface(self, seed_lexicon):
        table = affix_table("mogging deppmogged", seed_lexicon)
        assert table.counts == {"mog": 2}

    def test_plain_roots_not_counted(self, seed_lexicon):
        assert affix_table("incel betabuxxing stacy", seed_lexicon).counts == {}


class TestWeeks:
    @pytest.mark.parametrize(
        "ymd, label",
        [
            ((2020, 1, 6), "2020-W02"),
            ((2020, 1, 12), "2020-W02"),
            ((2019, 12, 30), "2020-W01"),
            ((2021, 1, 1), "2020-W53"),
        ],
    )
    def test_iso_week_labels(self, ymd, label):
        from datetime import datetime, timezone

        ts = int(datetime(*ymd, tzinfo=timezone.utc).timestamp())
        assert iso_week(ts) == label

    def test_week_index_consecutive_across_year_end(self):
        assert week_index("2020-W01") - week_index("2019-W52") == 1
        assert week_index("2021-W01") - week_index("2020-W53") == 1


class TestFoldUsage:
    """fold_usage counts each key's texts as one text, joined by "\\n"."""

    @staticmethod
    def usage(lexicon, texts, times=None) -> dict:
        """fold_usage over one user's posts, its weeks labelled by
        label_weeks; it must equal reference_usage, and scan_usage over the
        same posts as one chunk."""
        times = times or [week_ts(2020, 1)] * len(texts)
        posts = [Post(f"p{i}", "u1", "f", t, text) for i, (t, text) in enumerate(zip(times, texts))]
        usage = corpus.label_weeks(corpus.fold_usage(posts, lexicon))
        assert usage == reference_usage(posts, lexicon)
        lines = "".join(jline(post._asdict()) + "\n" for post in posts)
        assert scan_usage(lines, lexicon) == usage
        return usage

    def test_week_labels_at_each_days_first_and_last_second(self, seed_lexicon):
        # every day of 2020-W52 to 2021-W01 in one chunk: a week number
        # whose weeks start on any day but Monday, such as the epoch week
        # (created_utc // 604800, Thursday to Wednesday), mislabels a post
        times = [
            week_ts(year, week, day, hour=0) + second
            for year, week in ((2020, 52), (2020, 53), (2021, 1))
            for day in range(1, 8)
            for second in (0, 86399)
        ]
        usage = self.usage(seed_lexicon, ["cope"] * len(times), times)
        assert list(usage) == [("u1", "2020-W52"), ("u1", "2020-W53"), ("u1", "2021-W01")]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("lines_per_chunk", [1, 3])
    def test_week_number_at_the_epoch(self, seed_lexicon, workers, lines_per_chunk):
        # 1970-01-01 was a Thursday, so the Monday of 1970-W01 falls before
        # the epoch; then the last second of its Sunday and 1970-W02's first
        times = [0, 345599, 345600]
        posts = [Post(f"p{i}", "u1", "f", t, "wristcel cope") for i, t in enumerate(times)]
        lines = "".join(jline(post._asdict()) + "\n" for post in posts)
        with chunk_lines(lines_per_chunk):
            usage = scan_usage(lines, seed_lexicon, workers=workers)
        assert usage == reference_usage(posts, seed_lexicon)
        assert list(usage) == [("u1", "1970-W01"), ("u1", "1970-W02")]

    def test_texts_of_one_cell_do_not_run_together(self, seed_lexicon):
        assert self.usage(seed_lexicon, ["ab", "cd"]) == {("u1", "2020-W01"): (2, 2, 0)}

    def test_one_cell_holding_dotted_capital_i_and_capital_sigma(self, seed_lexicon):
        # lowered as one text, "İNCEL" would split in two at U+0307 (6
        # tokens) and "ΑΣ'Β" would keep a medial sigma in "ΑΣ"; the joined
        # text holds both, so it is lowered word by word, as each text alone
        texts = ["İNCEL wristcel", "ΑΣ'Β cope"]
        assert self.usage(seed_lexicon, texts) == {("u1", "2020-W01"): (2, 5, 2)}


def corpus_file(tmp_path, n=40):
    rows = []
    texts = ["wristcel cope", "the gymcel lifts", "plain words only", "mogging sooo hard"]
    for i in range(n):
        rows.append(
            make_post(f"p{i}", f"u{i % 3}", week_ts(2020, 1 + i % 5), texts[i % len(texts)])
        )
    return write_jsonl(tmp_path / "corpus.jsonl", rows)


class TestShardedScans:
    def test_matches_single_pass_build(self, tmp_path, seed_lexicon):
        path = corpus_file(tmp_path)
        posts = list(read_posts(path))
        with chunk_lines(7):
            assert (
                scan_frequency_table(path, workers=1).canonical_json()
                == build_frequency_table(posts).canonical_json()
            )
            chunked = scan_tables([path], seed_lexicon, workers=1)[0]
        with chunk_lines(len(posts)):
            whole = scan_tables([path], seed_lexicon, workers=1)[0]
        assert chunked.canonical_json() == whole.canonical_json()

    def test_worker_count_does_not_change_result(self, tmp_path, seed_lexicon):
        path = corpus_file(tmp_path)
        with chunk_lines(5):
            one = scan_frequency_table(path, workers=1)
            four = scan_frequency_table(path, workers=4)
            assert one.canonical_json() == four.canonical_json()
            assert (
                scan_tables([path], seed_lexicon, workers=1)[0].canonical_json()
                == scan_tables([path], seed_lexicon, workers=4)[0].canonical_json()
            )

    def test_scan_usage_cells(self, tmp_path, seed_lexicon):
        path = write_jsonl(
            tmp_path / "u.jsonl",
            [
                make_post("a", "u1", week_ts(2020, 1), "wristcel cope"),
                make_post("b", "u1", week_ts(2020, 1), "no match"),
                make_post("c", "u2", week_ts(2020, 2), "gymcel"),
            ],
        )
        with chunk_lines(1):
            usage = scan_usage(path, seed_lexicon, workers=2)
        assert usage[("u1", "2020-W01")] == (2, 4, 1)
        assert usage[("u2", "2020-W02")] == (1, 1, 1)

    def test_scan_annotations_preserves_order(self, tmp_path, seed_lexicon):
        path = corpus_file(tmp_path, n=25)
        with chunk_lines(4):
            items = list(scan_annotations(path, seed_lexicon, workers=3))
        assert [text.count("\n") for text, _, _ in items] == [4] * 6 + [1]
        assert rendered_ids(items) == [p.id for p in read_posts(path)]

    def test_strict_scan_raises_with_line(self, tmp_path, seed_lexicon):
        path = tmp_path / "bad.jsonl"
        path.write_text(jline(GOOD) + "\n{broken\n", encoding="utf-8")
        with chunk_lines(1), pytest.raises(PostFormatError, match="line 2"):
            scan_frequency_table(path, workers=2, strict=True)

    def test_invalid_utf8_line_skipped(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(jline(GOOD).encode() + b"\n\xff\n" + jline({**GOOD, "id": "p2"}).encode())
        report = ReadReport()
        assert [p.id for p in read_posts(path, report=report)] == ["p1", "p2"]
        scan_report = ReadReport()
        with chunk_lines(1):
            table = scan_frequency_table(path, workers=2, report=scan_report)
        assert table.doc_count == 2
        assert report == scan_report
        assert (report.lines, report.skipped, report.first_error) == (3, 1, "line 2: invalid UTF-8")

    def test_skip_scan_reports(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(jline(GOOD) + "\nbroken\n" + jline({**GOOD, "id": "p2"}) + "\n")
        report = ReadReport()
        with chunk_lines(1):
            table = scan_frequency_table(path, workers=2, report=report)
        assert table.doc_count == 2
        assert report.skipped == 1
        assert "line 2" in report.first_error

    def test_in_process_scan_keeps_its_strictness(self, tmp_path, seed_lexicon):
        # a strict workers=1 scan started while a skip-mode one is still being
        # consumed must not make the first one abort on its malformed line
        path = tmp_path / "bad.jsonl"
        path.write_text(jline(GOOD) + "\nbroken\n" + jline({**GOOD, "id": "p2"}) + "\n")
        with chunk_lines(1):
            skipping = scan_annotations(path, seed_lexicon)
            assert rendered_ids([next(skipping)]) == ["p1"]
            strict = scan_annotations(path, seed_lexicon, strict=True)
            assert rendered_ids([next(strict)]) == ["p1"]
            # the skipped line's chunk is an empty item
            assert rendered_ids(skipping) == ["p2"]
            with pytest.raises(PostFormatError, match="line 2"):
                next(strict)

    def test_in_process_scan_keeps_its_lexicon(self, tmp_path, seed_lexicon):
        path = corpus_file(tmp_path, n=8)
        expected = rendered(scan_annotations(path, seed_lexicon))
        with chunk_lines(2):
            seeded = scan_annotations(path, seed_lexicon)
            first = next(seeded)
            empty = scan_annotations(path, Lexicon([]))
            assert next(empty)[2] == 0
            assert rendered([first, *seeded]) == expected
            assert expected[2] > 0
            assert sum(matched for _, _, matched in empty) == 0

    @pytest.mark.parametrize("seed_first", [True, False], ids=["seed-first", "empty-first"])
    def test_in_process_scan_reads_its_own_lexicons_memo(self, seed_first):
        # each lexicon memoizes its own best parses: a scan right after a
        # scan with another lexicon sees none of that lexicon's parses
        text = jline({**GOOD, "text": "a wristcel lurks"}) + "\n"
        order = [(load_seed_lexicon(), 1), (Lexicon([]), 0)]
        for lexicon, matched in order if seed_first else order[::-1]:
            ((_, _, scanned),) = scan_annotations(text, lexicon, workers=1)
            assert scanned == matched
            assert scan_usage(text, lexicon, workers=1) == {("u1", "2020-W01"): (1, 3, matched)}
        assert all(lexicon.memo for lexicon, _ in order)

    def test_in_process_scan_frees_its_state(self, seed_lexicon):
        text = jline(GOOD) + "\n" + jline({**GOOD, "id": "p2", "text": "wristcel"}) + "\n"
        with chunk_lines(1):
            assert scan_usage(text, seed_lexicon) == {("u1", "2020-W01"): (2, 2, 1)}
            assert corpus._state is None
            annotations = scan_annotations(text, seed_lexicon)
            assert rendered_ids([next(annotations)]) == ["p1"]
            annotations.close()
            assert corpus._state is None

    def test_user_scan_counts_only_that_users_posts(self, seed_lexicon, monkeypatch):
        counted = []
        match_counts = corpus.match_counts

        def spy(text, lexicon):
            counted.append(text)
            return match_counts(text, lexicon)

        monkeypatch.setattr(corpus, "match_counts", spy)
        text = "".join(
            jline(record) + "\n"
            for record in (
                {**GOOD, "text": "wristcel"},
                {**GOOD, "id": "p2", "user": "u2", "text": "sooo cope"},
            )
        )
        report = ReadReport()
        usage = scan_usage(text, seed_lexicon, user="u2", report=report)
        assert usage == {("u2", "2020-W01"): (1, 2, 0)}
        assert counted == ["sooo cope"]
        assert report.parsed == 2


class TestTwoSourceScan:
    """scan_tables reads target and background through one pool."""

    def test_background_error_names_its_line(self, tmp_path, seed_lexicon):
        target = write_jsonl(tmp_path / "target.jsonl", [GOOD, {**GOOD, "id": "p2"}])
        background = tmp_path / "background.jsonl"
        background.write_text(jline(GOOD) + "\n" + jline(GOOD) + "\nbroken\n", encoding="utf-8")
        with pytest.raises(PostFormatError) as expected:
            list(read_posts(background, strict=True))
        for lexicon in (None, seed_lexicon):
            for workers in (1, 2):
                sources = [target, background]
                with chunk_lines(1), pytest.raises(PostFormatError) as err:
                    scan_tables(sources, lexicon, workers=workers, strict=True)
                assert err.value.line == 3
                assert str(err.value) == str(expected.value)

    def test_target_error_comes_first(self, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_text((jline(GOOD) + "\n") * 3 + "{\n", encoding="utf-8")
        background = tmp_path / "background.jsonl"
        background.write_text("broken\n", encoding="utf-8")
        report = ReadReport()
        with chunk_lines(1):
            with pytest.raises(PostFormatError, match="line 4: invalid JSON"):
                scan_tables([target, background], workers=2, strict=True)
            tables = scan_tables([target, background], workers=2, report=report)
        assert [t.doc_count for t in tables] == [3, 0]
        assert tables[1] == FrequencyTable()
        assert (report.lines, report.skipped) == (5, 2)
        assert report.first_error.startswith("line 4: invalid JSON")


    def test_unreadable_source_comes_after_earlier_chunks(self, tmp_path, seed_lexicon):
        target = tmp_path / "target.jsonl"
        target.write_text((jline(GOOD) + "\n") * 3 + "{\n", encoding="utf-8")
        missing = tmp_path / "missing.jsonl"
        for lexicon in (None, seed_lexicon):
            for workers in (1, 2):
                # at two workers the missing file is opened while the target's
                # chunks are still in flight
                report = ReadReport()
                with chunk_lines(1):
                    with pytest.raises(PostFormatError, match="line 4: invalid JSON"):
                        scan_tables([target, missing], lexicon, workers=workers, strict=True)
                    with pytest.raises(FileNotFoundError):
                        scan_tables([target, missing], lexicon, workers=workers, report=report)
                assert (report.lines, report.skipped) == (4, 1)


def _record_chunk(chunk):
    """A chunk function for the pool tests: a "fail" line raises at once,
    any other line names a file that is touched after a while."""
    start, lines = chunk
    if lines[0] == "fail":
        raise PostFormatError("planted", start)
    time.sleep(0.5)
    Path(lines[0]).touch()
    return None, ReadReport()


class TestEarlyEnd:
    """A scan that ends early runs no chunk a worker had not yet started,
    though 2 x workers chunks were already handed to the pool."""

    def test_chunk_error_skips_queued_chunks(self, tmp_path):
        lines = ["fail"] + [str(tmp_path / f"chunk{i}") for i in range(2, 21)]
        state = corpus._ScanState(None, strict=True)
        with chunk_lines(1), pytest.raises(PostFormatError, match="line 1: planted"):
            list(corpus._map_chunks([lines], _record_chunk, state, 2, None))
        # the two workers took chunks 2 and 3 as chunk 1 failed
        assert len(list(tmp_path.iterdir())) <= 2

    def test_consumer_stopping_early_skips_queued_chunks(self, tmp_path):
        lines = [str(tmp_path / f"chunk{i}") for i in range(1, 21)]
        state = corpus._ScanState(None, strict=False)
        with chunk_lines(1):
            parts = corpus._map_chunks([lines], _record_chunk, state, 2, None)
            assert next(parts) == (0, None)
            parts.close()
        # chunks 1 and 2 ran, and the workers had taken 3 and 4
        assert len(list(tmp_path.iterdir())) <= 4


MALFORMED = [
    "",
    "  ",
    "broken",
    "{",
    jline({"id": "x"}),
    jline([1]),
    jline({**GOOD, "created_utc": -1}),
    jline({**GOOD, "user": "u\ud800"}),
    LONG_INTEGER_LINE,
    DEEP_NESTING_LINE,
]

CODED_TEXTS = ["wristcel cope", "the gymcels lifts", "mogging sooo hard", "currycel mogg"]

post_texts = st.one_of(
    st.text(max_size=30),
    st.sampled_from(CODED_TEXTS),
    # İ and Σ take the word-by-word path of the word reader
    st.text(alphabet="İΣσςıI wristcelmog'_", max_size=30),
)

# a post's created_utc: the first or last second of a drawn day in ISO
# weeks 2020-W52 to 2021-W01, across a year's end (2020 has 53 weeks). A
# week number whose weeks start on any day but Monday, such as the epoch
# week (created_utc // 604800, from Thursday to Wednesday), mislabels some.
post_times = st.builds(
    lambda week, day, second: week_ts(*week, day=day, hour=0) + second,
    st.sampled_from([(2020, 52), (2020, 53), (2021, 1)]),
    st.integers(1, 7),
    st.sampled_from([0, 86399]),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(post_times, post_texts), min_size=1, max_size=12))
def test_usage_series_reads_the_cells_of_the_reference_and_the_scan(seed_lexicon, drawn):
    """usage_series over one user's posts is the series of reference_usage's
    cells, and of scan_usage's over the same lines at 1 and 2 workers."""
    posts = [Post(f"p{i}", "u1", "f", t, text) for i, (t, text) in enumerate(drawn)]
    series = usage_series(posts, seed_lexicon)

    def series_of(usage):
        return series_from_counts("u1", {week: cell for (_, week), cell in usage.items()})

    assert series == series_of(reference_usage(posts, seed_lexicon))
    lines = "".join(jline(post._asdict()) + "\n" for post in posts)
    with chunk_lines(3):
        for workers in (1, 2):
            assert series == series_of(scan_usage(lines, seed_lexicon, workers=workers))


# (kind, value, line end): LF and CRLF ends mix within one corpus
scan_lines = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.sampled_from(["u1", "u2"]), post_times, post_texts).map(
                lambda post: ("post", post)
            ),
            st.sampled_from(MALFORMED).map(lambda bad: ("bad", bad)),
        ),
        st.sampled_from(["\n", "\r\n"]),
    ).map(lambda line: (*line[0], line[1])),
    max_size=12,
)


def render_lines(items) -> str:
    out = []
    for i, (kind, value, end) in enumerate(items):
        if kind == "post":
            user, created, text = value
            record = {**GOOD, "id": f"p{i}", "user": user, "created_utc": created}
            value = json.dumps({**record, "text": text}, ensure_ascii=False)
        out.append(value + end)
    return "".join(out)


def rendered(parts) -> tuple[str, int, int]:
    """scan_annotations' chunk items, concatenated and summed."""
    parts = list(parts)
    return ("".join(p[0] for p in parts), *(sum(p[i] for p in parts) for i in (1, 2)))


def rendered_ids(parts) -> list[str]:
    """The post ids of scan_annotations' chunk items, in order."""
    return [json.loads(line)["id"] for text, _, _ in parts for line in text.split("\n")[:-1]]


SCANS = {
    "words": lambda source, lex, **kw: scan_frequency_table(source, **kw).canonical_json(),
    "affixes": lambda source, lex, **kw: scan_tables([source], lex, **kw)[0].canonical_json(),
    "usage": lambda source, lex, **kw: scan_usage(source, lex, **kw),
    "user_usage": lambda source, lex, **kw: scan_usage(source, lex, user="u2", **kw),
    "rendered": lambda source, lex, **kw: rendered(scan_annotations(source, lex, **kw)),
}


def reference_scans(posts, lexicon) -> dict:
    """What each scan must return, from the parsed posts. The scans share
    annotate_text's memo, so the references are built from
    reference_annotation, without it."""
    anns = [reference_annotation(post.text, lexicon, post.id) for post in posts]
    usage = reference_usage(posts, lexicon)
    affixes = Counter(a for post in posts for a in productive_affixes(post.text, lexicon))
    # build_frequency_table shares the word reader under test, so the words
    # reference counts tokenize's words
    words = Counter(t.normalized for post in posts for t in tokenize(post.text))
    return {
        "words": FrequencyTable(dict(words), sum(words.values()), len(posts)).canonical_json(),
        "affixes": FrequencyTable(
            dict(affixes), sum(affixes.values()), len(posts)
        ).canonical_json(),
        "usage": usage,
        "user_usage": {key: cell for key, cell in usage.items() if key[0] == "u2"},
        "rendered": (
            "".join(annotation_json(ann) + "\n" for ann in anns),
            sum(ann.token_count for ann in anns),
            sum(ann.matched_count for ann in anns),
        ),
    }


# scans of a target and a background source through one pool
PAIR_SCANS = {
    "words": lambda sources, lex, **kw: [t.canonical_json() for t in scan_tables(sources, **kw)],
    "affixes": lambda sources, lex, **kw: [
        t.canonical_json() for t in scan_tables(sources, lex, **kw)
    ],
}


class Corpus:
    """One drawn corpus: its text, a file holding it, and what read_posts
    makes of it."""

    def __init__(self, items, path, lexicon):
        self.text = render_lines(items)
        path.write_bytes(self.text.encode("utf-8"))
        self.path = path
        self.report = ReadReport()
        self.expected = reference_scans(list(read_posts(self.text, report=self.report)), lexicon)
        self.bad = [i for i, (kind, *_) in enumerate(items, start=1) if kind == "bad"]
        self.strict_error = None
        if self.bad:
            with pytest.raises(PostFormatError) as first_bad:
                list(read_posts(self.text, strict=True))
            self.strict_error = first_bad.value

    def sources(self):
        """The same bytes as a Path, a str and an iterable."""
        return (lambda: self.path, lambda: self.text, lambda: io.StringIO(self.text))


@settings(max_examples=30, deadline=None)
@given(scan_lines, scan_lines, st.integers(1, 4))
def test_scan_invariant_to_source_workers_and_chunks(
    tmp_path_factory, seed_lexicon, items, background_items, size
):
    work = tmp_path_factory.mktemp("scan")
    target = Corpus(items, work / "posts.jsonl", seed_lexicon)
    background = Corpus(background_items, work / "background.jsonl", seed_lexicon)
    expected, reference = target.expected, target.report
    with chunk_lines(size):
        for make_source in target.sources():
            for workers in (1, 2):
                for name, scan in SCANS.items():
                    report = ReadReport()
                    result = scan(make_source(), seed_lexicon, report=report, workers=workers)
                    assert result == expected[name], name
                    assert report == reference, name
                    if target.bad:
                        with pytest.raises(PostFormatError) as err:
                            scan(make_source(), seed_lexicon, strict=True, workers=workers)
                        assert err.value.line == target.bad[0], name
                        assert str(err.value) == str(target.strict_error), name
        # the folded report of both sources is the sum of read_posts' reports,
        # and strict mode raises on the target's first bad line, else the
        # background's, as a scan of that source alone would
        both = ReadReport(
            reference.lines + background.report.lines,
            reference.parsed + background.report.parsed,
            reference.skipped + background.report.skipped,
            reference.first_error or background.report.first_error,
        )
        first = target if target.bad else background
        for make_target, make_background in zip(target.sources(), background.sources()):
            for workers in (1, 2):
                for name, scan in PAIR_SCANS.items():
                    report = ReadReport()
                    sources = [make_target(), make_background()]
                    result = scan(sources, seed_lexicon, report=report, workers=workers)
                    assert result == [target.expected[name], background.expected[name]], name
                    assert report == both, name
                    if first.bad:
                        sources = [make_target(), make_background()]
                        with pytest.raises(PostFormatError) as err:
                            scan(sources, seed_lexicon, strict=True, workers=workers)
                        assert err.value.line == first.bad[0], name
                        assert str(err.value) == str(first.strict_error), name


# the scans whose chunks read each word's best parse through the memo
MEMO_SCANS = ("affixes", "usage", "rendered")


@settings(max_examples=20, deadline=None)
@given(scan_lines, st.integers(1, 12), st.integers(1, 4))
def test_scans_invariant_to_the_memo_limit(tmp_path_factory, seed_lexicon, items, limit, size):
    """Each scan that reads the memo equals its reference under any memo
    limit, at 1 and 2 workers. A fresh lexicon starts cold, so even the
    first chunk meets the limit."""
    target = Corpus(items, tmp_path_factory.mktemp("memo") / "posts.jsonl", seed_lexicon)
    lexicon = Lexicon(seed_lexicon.entries, seed_lexicon.blocklist)
    with memo_limit(limit), chunk_lines(size):
        for workers in (1, 2):
            for name in MEMO_SCANS:
                result = SCANS[name](target.path, lexicon, workers=workers)
                assert result == target.expected[name], (name, workers)
    assert len(lexicon.memo) <= limit


def test_memo_stays_within_its_limit(monkeypatch, seed_lexicon):
    """An in-process scan over more distinct words than MEMO_LIMIT: at
    every miss and at the end the memo holds at most MEMO_LIMIT words, and
    every word still parses as it would without the limit."""
    n = morpho.MEMO_LIMIT + 1000
    lexicon = Lexicon(seed_lexicon.entries, seed_lexicon.blocklist)
    sizes = []

    def spy(normalized, lex, *, elongated=False):
        sizes.append(len(lex.memo))
        return decompose(normalized, lex, elongated=elongated)

    monkeypatch.setattr(morpho, "decompose", spy)
    # a novel stem under the productive suffix "cel", and a word that never parses
    lines = "".join(
        jline({**GOOD, "id": f"p{i}", "text": f"stem{i}cel word{i}"}) + "\n" for i in range(n)
    )
    (table,) = scan_tables([lines], lexicon)
    assert table.counts == {"cel": n}
    assert len(sizes) == 2 * n
    assert max(sizes) <= morpho.MEMO_LIMIT
    assert 0 < len(lexicon.memo) <= morpho.MEMO_LIMIT


# The largest peak resident set of the pool workers of an affix scan over
# the corpus, less that of the workers of a one-post scan, in KiB. Each pool
# starts by fork, so its workers are this process's children, which
# RUSAGE_CHILDREN reads (a forkserver's workers are not). RUSAGE_SELF cannot
# be the baseline: a process keeps the peak it reached before exec, here a
# copy of the test runner.
WORKER_GROWTH_SCRIPT = """
import json, multiprocessing, resource, sys
from pathlib import Path
multiprocessing.set_start_method("fork", force=True)
sys.path.insert(0, "src")
from cryptolex import load_seed_lexicon, scan_tables
lexicon = load_seed_lexicon()
post = {"id": "p", "user": "u", "forum": "f", "created_utc": 0, "text": "wristcel"}
scan_tables([json.dumps(post)], lexicon, workers=2)
one_post = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
(table,) = scan_tables([Path(sys.argv[1])], lexicon, workers=2)
assert table.doc_count == int(sys.argv[2]), table.doc_count
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss - one_post)
"""


def test_worker_memory_stays_bounded(tmp_path):
    """Each worker's memo is capped, so a worker's memory does not grow
    with the number of distinct words it meets. 40,000 posts of 15 random
    words give each worker about 300,000 distinct words. On Python 3.11,
    the largest worker grew about 14 MiB with the cap and 34 MiB without
    it."""
    rng = random.Random(20261020)
    letters = "abcdefghijklmnopqrstuvwxyz"
    n_posts = 40_000
    path = tmp_path / "posts.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_posts):
            words = ("".join(rng.choices(letters, k=rng.randint(6, 10))) for _ in range(15))
            fh.write(jline({**GOOD, "id": f"p{i}", "text": " ".join(words)}) + "\n")
    done = subprocess.run(
        [sys.executable, "-c", WORKER_GROWTH_SCRIPT, str(path), str(n_posts)],
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    grown_mib = int(done.stdout) / 1024
    assert grown_mib < 22, f"a worker's peak grew {grown_mib:.1f} MiB"
