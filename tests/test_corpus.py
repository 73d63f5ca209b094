from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from cryptolex import (
    FrequencyTable,
    Post,
    PostFormatError,
    ReadReport,
    build_affix_table,
    build_frequency_table,
    bucket_posts,
    iso_week,
    merge,
    parse_post_line,
    read_posts,
    scan_affix_table,
    scan_annotations,
    scan_frequency_table,
    scan_usage,
    week_index,
)

from conftest import make_post, week_ts, write_jsonl

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
            list(read_posts(text, strictness="strict"))

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

    def test_unknown_strictness(self):
        with pytest.raises(ValueError):
            list(read_posts("", strictness="hope"))


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
        merged = merge(a, b)
        assert merged.counts == {"x": 3, "y": 1}
        assert merged.total_tokens == 4
        assert merged.doc_count == 3

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
        forward = tables[0]
        for t in tables[1:]:
            forward = merge(forward, t)
        backward = tables[-1]
        for t in reversed(tables[:-1]):
            backward = merge(backward, t)
        assert forward.canonical_json() == backward.canonical_json()


class TestAffixTable:
    def test_productive_affixes_counted(self, seed_lexicon):
        posts = [
            parse_post_line(jline({**GOOD, "text": "looksmaxxing and heightmogging chadpreet"}))
        ]
        table = build_affix_table(posts, seed_lexicon)
        assert table.counts == {"maxx": 1, "mog": 1, "chad": 1}
        assert table.doc_count == 1

    def test_variant_counts_toward_canonical_surface(self, seed_lexicon):
        posts = [parse_post_line(jline({**GOOD, "text": "mogging deppmogged"}))]
        table = build_affix_table(posts, seed_lexicon)
        assert table.counts == {"mog": 2}

    def test_plain_roots_not_counted(self, seed_lexicon):
        posts = [parse_post_line(jline({**GOOD, "text": "incel betabuxxing stacy"}))]
        assert build_affix_table(posts, seed_lexicon).counts == {}


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

    def test_bucket_by_user(self):
        posts = [
            parse_post_line(jline({**GOOD, "id": "a", "user": "zoe"})),
            parse_post_line(jline({**GOOD, "id": "b", "user": "amy"})),
            parse_post_line(jline({**GOOD, "id": "c", "user": "zoe"})),
        ]
        buckets = bucket_posts(posts, by="user")
        assert [(k, [p.id for p in v]) for k, v in buckets] == [
            ("amy", ["b"]),
            ("zoe", ["a", "c"]),
        ]

    def test_bucket_by_user_week(self):
        posts = [
            parse_post_line(jline({**GOOD, "id": "a", "created_utc": week_ts(2020, 2)})),
            parse_post_line(jline({**GOOD, "id": "b", "created_utc": week_ts(2020, 3)})),
        ]
        buckets = bucket_posts(posts, by="user_week")
        assert [k for k, _ in buckets] == [("u1", "2020-W02"), ("u1", "2020-W03")]

    def test_bucket_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            bucket_posts([], by="forum")


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
        assert (
            scan_frequency_table(path, workers=1, chunk_lines=7).canonical_json()
            == build_frequency_table(posts).canonical_json()
        )
        assert (
            scan_affix_table(path, seed_lexicon, workers=1, chunk_lines=7).canonical_json()
            == build_affix_table(posts, seed_lexicon).canonical_json()
        )

    def test_worker_count_does_not_change_result(self, tmp_path, seed_lexicon):
        path = corpus_file(tmp_path)
        one = scan_frequency_table(path, workers=1, chunk_lines=5)
        four = scan_frequency_table(path, workers=4, chunk_lines=5)
        assert one.canonical_json() == four.canonical_json()
        assert (
            scan_affix_table(path, seed_lexicon, workers=1, chunk_lines=5).canonical_json()
            == scan_affix_table(path, seed_lexicon, workers=4, chunk_lines=5).canonical_json()
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
        usage = scan_usage(path, seed_lexicon, workers=2, chunk_lines=1)
        assert usage[("u1", "2020-W01")] == (2, 4, 1)
        assert usage[("u2", "2020-W02")] == (1, 1, 1)

    def test_scan_annotations_preserves_order(self, tmp_path, seed_lexicon):
        path = corpus_file(tmp_path, n=25)
        ids = [a.post_id for a in scan_annotations(path, seed_lexicon, workers=3, chunk_lines=4)]
        assert ids == [p.id for p in read_posts(path)]

    def test_strict_scan_raises_with_line(self, tmp_path, seed_lexicon):
        path = tmp_path / "bad.jsonl"
        path.write_text(jline(GOOD) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(PostFormatError, match="line 2"):
            scan_frequency_table(path, workers=2, strictness="strict", chunk_lines=1)

    def test_invalid_utf8_line_skipped(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(jline(GOOD).encode() + b"\n\xff\n" + jline({**GOOD, "id": "p2"}).encode())
        report = ReadReport()
        assert [p.id for p in read_posts(path, report=report)] == ["p1", "p2"]
        scan_report = ReadReport()
        table = scan_frequency_table(path, workers=2, chunk_lines=1, report=scan_report)
        assert table.doc_count == 2
        assert report == scan_report
        assert (report.lines, report.skipped, report.first_error) == (3, 1, "line 2: invalid UTF-8")

    def test_skip_scan_reports(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(jline(GOOD) + "\nbroken\n" + jline({**GOOD, "id": "p2"}) + "\n")
        report = ReadReport()
        table = scan_frequency_table(path, workers=2, chunk_lines=1, report=report)
        assert table.doc_count == 2
        assert report.skipped == 1
        assert "line 2" in report.first_error


MALFORMED = ["", "  ", "broken", "{", jline({"id": "x"}), jline([1]), jline({**GOOD, "created_utc": -1})]

scan_lines = st.lists(
    st.one_of(
        st.text(max_size=30).map(lambda text: ("post", text)),
        st.sampled_from(MALFORMED).map(lambda bad: ("bad", bad)),
    ),
    max_size=12,
)


def render_lines(items) -> str:
    out = []
    for i, (kind, value) in enumerate(items):
        if kind == "post":
            value = json.dumps({**GOOD, "id": f"p{i}", "text": value}, ensure_ascii=False)
        out.append(value + "\n")
    return "".join(out)


@settings(max_examples=30, deadline=None)
@given(scan_lines, st.integers(1, 4))
def test_scan_invariant_to_source_workers_and_chunks(tmp_path_factory, items, chunk_lines):
    text = render_lines(items)
    path = tmp_path_factory.mktemp("scan") / "posts.jsonl"
    path.write_bytes(text.encode("utf-8"))
    reference = ReadReport()
    expected = build_frequency_table(read_posts(text, report=reference)).canonical_json()
    bad = [i for i, (kind, _) in enumerate(items, start=1) if kind == "bad"]
    for make_source in (lambda: path, lambda: text, lambda: io.StringIO(text)):
        for workers in (1, 2):
            report = ReadReport()
            table = scan_frequency_table(
                make_source(), workers=workers, chunk_lines=chunk_lines, report=report
            )
            assert table.canonical_json() == expected
            assert report == reference
            if bad:
                with pytest.raises(PostFormatError) as err:
                    scan_frequency_table(
                        make_source(), workers=workers, strictness="strict", chunk_lines=chunk_lines
                    )
                assert err.value.line == bad[0]
