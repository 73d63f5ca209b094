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
    annotate_text,
    annotation_json,
    build_affix_table,
    build_frequency_table,
    build_lexicon,
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
from cryptolex import corpus
from cryptolex.corpus import scan_annotation_lines

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


def corpus_file(tmp_path, n=40):
    rows = []
    texts = ["wristcel cope", "the gymcel lifts", "plain words only", "mogging sooo hard"]
    for i in range(n):
        rows.append(
            make_post(f"p{i}", f"u{i % 3}", week_ts(2020, 1 + i % 5), texts[i % len(texts)])
        )
    return write_jsonl(tmp_path / "corpus.jsonl", rows)


def test_read_posts_rejects_bad_strictness_at_call():
    with pytest.raises(ValueError, match="strictness"):
        read_posts([], strictness="lenient")


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

    def test_in_process_scan_keeps_its_strictness(self, tmp_path, seed_lexicon):
        # a strict workers=1 scan started while a skip-mode one is still being
        # consumed must not make the first one abort on its malformed line
        path = tmp_path / "bad.jsonl"
        path.write_text(jline(GOOD) + "\nbroken\n" + jline({**GOOD, "id": "p2"}) + "\n")
        skipping = scan_annotations(path, seed_lexicon, chunk_lines=1)
        assert next(skipping).post_id == "p1"
        strict = scan_annotations(path, seed_lexicon, strictness="strict", chunk_lines=1)
        assert next(strict).post_id == "p1"
        assert [a.post_id for a in skipping] == ["p2"]
        with pytest.raises(PostFormatError, match="line 2"):
            next(strict)

    def test_in_process_scan_keeps_its_lexicon(self, tmp_path, seed_lexicon):
        path = corpus_file(tmp_path, n=8)
        expected = [a.matched_count for a in scan_annotations(path, seed_lexicon)]
        seeded = scan_annotations(path, seed_lexicon, chunk_lines=2)
        first = next(seeded)
        empty = scan_annotations(path, build_lexicon([]), chunk_lines=2)
        assert next(empty).matched_count == 0
        assert [first.matched_count] + [a.matched_count for a in seeded] == expected
        assert sum(expected) > 0
        assert sum(a.matched_count for a in empty) == 0

    def test_in_process_scan_frees_its_state(self, seed_lexicon):
        text = jline(GOOD) + "\n" + jline({**GOOD, "id": "p2", "text": "wristcel"}) + "\n"
        assert scan_usage(text, seed_lexicon, chunk_lines=1) == {("u1", "2020-W01"): (2, 2, 1)}
        assert corpus._state is None
        annotations = scan_annotations(text, seed_lexicon, chunk_lines=1)
        assert next(annotations).post_id == "p1"
        annotations.close()
        assert corpus._state is None


MALFORMED = ["", "  ", "broken", "{", jline({"id": "x"}), jline([1]), jline({**GOOD, "created_utc": -1})]

CODED_TEXTS = ["wristcel cope", "the gymcels lifts", "mogging sooo hard", "currycel mogg"]

post_texts = st.one_of(
    st.text(max_size=30),
    st.sampled_from(CODED_TEXTS),
    # İ and Σ take the tokenize path of the word reader
    st.text(alphabet="İΣσςıI wristcelmog'_", max_size=30),
)

scan_lines = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["u1", "u2"]), st.integers(1, 3), post_texts).map(
            lambda post: ("post", post)
        ),
        st.sampled_from(MALFORMED).map(lambda bad: ("bad", bad)),
    ),
    max_size=12,
)


def render_lines(items) -> str:
    out = []
    for i, (kind, value) in enumerate(items):
        if kind == "post":
            user, week, text = value
            record = {**GOOD, "id": f"p{i}", "user": user, "created_utc": week_ts(2020, week)}
            value = json.dumps({**record, "text": text}, ensure_ascii=False)
        out.append(value + "\n")
    return "".join(out)


def rendered(parts) -> tuple[str, int, int, int]:
    """scan_annotation_lines' chunk items, concatenated and summed."""
    parts = list(parts)
    return ("".join(p[0] for p in parts), *(sum(p[i] for p in parts) for i in (1, 2, 3)))


SCANS = {
    "words": lambda source, lex, **kw: scan_frequency_table(source, **kw).canonical_json(),
    "affixes": lambda source, lex, **kw: scan_affix_table(source, lex, **kw).canonical_json(),
    "usage": lambda source, lex, **kw: scan_usage(source, lex, **kw),
    "annotations": lambda source, lex, **kw: list(scan_annotations(source, lex, **kw)),
    "rendered": lambda source, lex, **kw: rendered(scan_annotation_lines(source, lex, **kw)),
}


def reference_scans(posts, lexicon) -> dict:
    """What each scan must return, from one pass over the parsed posts."""
    anns = [annotate_text(post.id, post.text, lexicon) for post in posts]
    usage: dict = {}
    for post, ann in zip(posts, anns):
        key = (post.user, iso_week(post.created_utc))
        n_posts, n_tokens, n_matched = usage.get(key, (0, 0, 0))
        usage[key] = (n_posts + 1, n_tokens + ann.token_count, n_matched + ann.matched_count)
    return {
        "words": build_frequency_table(posts).canonical_json(),
        "affixes": build_affix_table(posts, lexicon).canonical_json(),
        "usage": usage,
        "annotations": anns,
        "rendered": (
            "".join(annotation_json(ann) + "\n" for ann in anns),
            len(anns),
            sum(ann.token_count for ann in anns),
            sum(ann.matched_count for ann in anns),
        ),
    }


@settings(max_examples=30, deadline=None)
@given(scan_lines, st.integers(1, 4))
def test_scan_invariant_to_source_workers_and_chunks(
    tmp_path_factory, seed_lexicon, items, chunk_lines
):
    text = render_lines(items)
    path = tmp_path_factory.mktemp("scan") / "posts.jsonl"
    path.write_bytes(text.encode("utf-8"))
    reference = ReadReport()
    expected = reference_scans(list(read_posts(text, report=reference)), seed_lexicon)
    bad = [i for i, (kind, _) in enumerate(items, start=1) if kind == "bad"]
    if bad:
        with pytest.raises(PostFormatError) as first_bad:
            list(read_posts(text, "strict"))
    for make_source in (lambda: path, lambda: text, lambda: io.StringIO(text)):
        for workers in (1, 2):
            for name, scan in SCANS.items():
                report = ReadReport()
                kwargs = {"workers": workers, "chunk_lines": chunk_lines}
                result = scan(make_source(), seed_lexicon, report=report, **kwargs)
                assert result == expected[name], name
                assert report == reference, name
                if bad:
                    with pytest.raises(PostFormatError) as err:
                        scan(make_source(), seed_lexicon, strictness="strict", **kwargs)
                    assert err.value.line == bad[0], name
                    assert str(err.value) == str(first_bad.value), name
