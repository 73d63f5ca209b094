from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from cryptolex import (
    CATEGORIES,
    DiscoveryError,
    FrequencyTable,
    LexiconEntry,
    LogRatioRow,
    load_lexicon,
    load_word_list,
    log_ratio_rank,
    normalize_token,
    review_sheet,
    rows_to_jsonl,
    rows_to_tsv,
)
from cryptolex.lexicon import _tsv_safe

from conftest import definitions, lexicon_jsonl


def table(counts, docs=1):
    return FrequencyTable(counts=dict(counts), total_tokens=sum(counts.values()), doc_count=docs)


SKEWED = table({"a": 2, "b": 1})
MIRROR = table({"a": 1, "b": 2})


class TestLogRatio:
    def test_two_token_worked_example(self):
        rows = {r.token: r for r in log_ratio_rank(SKEWED, MIRROR, min_count=1)}
        want = math.log2(5 / 3)
        assert rows["a"].log_ratio == pytest.approx(want, rel=1e-15)
        assert rows["b"].log_ratio == pytest.approx(-want, rel=1e-15)

    def test_rank_is_target_frequency_position(self):
        rows = log_ratio_rank(table({"a": 5, "b": 9, "c": 5}), table({"a": 1, "b": 1, "c": 1}), min_count=1)
        by_token = {r.token: r.target_rank for r in rows}
        assert by_token == {"b": 1, "a": 2, "c": 3}

    def test_sorted_by_ratio_then_token(self):
        rows = log_ratio_rank(table({"z": 4, "a": 4}), table({"z": 4, "a": 4}), min_count=1)
        assert [r.token for r in rows] == ["a", "z"]
        assert all(r.log_ratio == 0.0 for r in rows)

    def test_min_count_filters_target(self):
        rows = log_ratio_rank(table({"a": 5, "b": 4}), table({"a": 1}), min_count=5)
        assert [r.token for r in rows] == ["a"]

    def test_top_k_window(self):
        rows = log_ratio_rank(table({"a": 9, "b": 8, "c": 7}), table({"a": 1, "b": 1, "c": 1}),
                              min_count=1, top_k=2)
        assert sorted(r.token for r in rows) == ["a", "b"]

    def test_absent_background_token_still_scored(self):
        (row,) = log_ratio_rank(table({"new": 6}), table({"old": 6}), min_count=5)
        assert row.background_count == 0
        assert row.log_ratio > 0

    def test_empty_tables_rejected(self):
        empty = FrequencyTable(counts={}, total_tokens=0, doc_count=0)
        with pytest.raises(DiscoveryError):
            log_ratio_rank(empty, MIRROR)
        with pytest.raises(DiscoveryError):
            log_ratio_rank(SKEWED, empty)

    @pytest.mark.parametrize("kw", [{"alpha": -0.1}, {"top_k": 0}, {"min_count": 0}])
    def test_bad_parameters(self, kw):
        with pytest.raises(ValueError):
            log_ratio_rank(SKEWED, MIRROR, **kw)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            log_ratio_rank(SKEWED, MIRROR, alpha=alpha)

    def test_alpha_zero_needs_background_coverage(self):
        with pytest.raises(DiscoveryError, match="alpha=0 needs full coverage"):
            log_ratio_rank(table({"new": 6}), table({"old": 6}), alpha=0.0, min_count=1)

    @pytest.mark.parametrize(
        "alpha",
        [
            1e-320,  # new's background share is a denormal, and its ratio overflows
            5e-324,  # new's background share underflows to 0
            1e308,  # alpha * vocab overflows, and every share is 0
        ],
    )
    def test_ratio_out_of_float_range_names_alpha(self, alpha):
        with pytest.raises(DiscoveryError) as exc:
            log_ratio_rank(table({"new": 6}), table({"old": 6}), alpha=alpha, min_count=1)
        assert str(exc.value).startswith(f"alpha={alpha!r} gives token ")
        assert "full coverage" not in str(exc.value)

    def test_alpha_zero_with_coverage(self):
        (row,) = log_ratio_rank(table({"a": 6}), table({"a": 3, "b": 3}), alpha=0.0, min_count=1)
        assert row.log_ratio == pytest.approx(1.0)

    @given(st.floats(min_value=0.01, max_value=10.0, allow_nan=False))
    def test_smoothing_shrinks_magnitude(self, alpha):
        """More smoothing pulls the a-vs-b contrast toward zero."""
        base = log_ratio_rank(SKEWED, MIRROR, alpha=alpha, min_count=1)
        stronger = log_ratio_rank(SKEWED, MIRROR, alpha=alpha + 0.5, min_count=1)
        a0 = {r.token: r.log_ratio for r in base}["a"]
        a1 = {r.token: r.log_ratio for r in stronger}["a"]
        assert a1 < a0
        assert a1 > 0


def reference_rank(target, background, alpha, top_k, min_count):
    """log_ratio_rank by brute force: rank the whole vocabulary, filter by
    min_count, then cut at top_k."""
    by_frequency = sorted(target.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    rank_of = {token: rank for rank, (token, _) in enumerate(by_frequency, start=1)}
    candidates = [(t, c) for t, c in by_frequency if c >= min_count][:top_k]
    vocab = len(set(target.counts) | set(background.counts))
    rows = []
    for token, count in candidates:
        bg_count = background.counts.get(token, 0)
        p_target = (count + alpha) / (target.total_tokens + alpha * vocab)
        p_background = (bg_count + alpha) / (background.total_tokens + alpha * vocab)
        rows.append(LogRatioRow(token, count, bg_count, rank_of[token], math.log2(p_target / p_background)))
    return sorted(rows, key=lambda r: (-r.log_ratio, r.token))


# few short tokens and small counts, so tables share tokens and tie on counts
count_tables = st.dictionaries(st.text("abc", min_size=1, max_size=3), st.integers(1, 6), min_size=1)


@settings(max_examples=300)
@given(count_tables, count_tables, st.integers(1, 5), st.data())
def test_rank_matches_brute_force_reference(target_counts, background_counts, min_count, data):
    target, background = table(target_counts), table(background_counts)
    top_k = data.draw(st.integers(1, len(target_counts) + 2))
    got = log_ratio_rank(target, background, top_k=top_k, min_count=min_count)
    assert got == reference_rank(target, background, 0.5, top_k, min_count)


class TestStoplist:
    def test_load(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("the\n\nof  # article\n", encoding="utf-8")
        assert load_word_list(p) == frozenset({"the", "of"})


ROWS = [
    LogRatioRow("gymcel", 12, 0, 3, 5.954196310386801),
    LogRatioRow("cope", 40, 2, 1, 3.25),
]


class TestExports:
    # golden bytes: renaming or reordering a LogRatioRow field changes a table
    def test_tsv_shape(self):
        lines = rows_to_tsv(ROWS).splitlines()
        assert lines[0] == "token\ttarget_count\tbackground_count\ttarget_rank\tlog_ratio"
        assert lines[1] == "gymcel\t12\t0\t3\t5.9542"
        assert rows_to_tsv(ROWS[1:]) == (
            "token\ttarget_count\tbackground_count\ttarget_rank\tlog_ratio\n"
            "cope\t40\t2\t1\t3.2500\n"
        )

    def test_jsonl_keeps_full_precision(self):
        first = json.loads(rows_to_jsonl(ROWS).splitlines()[0])
        assert first["log_ratio"] == 5.954196310386801
        assert rows_to_jsonl(ROWS[:1]) == (
            '{"token": "gymcel", "target_count": 12, "background_count": 0, '
            '"target_rank": 3, "log_ratio": 5.954196310386801}\n'
        )
        assert rows_to_jsonl([LogRatioRow("güzel", 5, 1, 2, 1.0)]).startswith('{"token": "güzel", ')

    def test_review_sheet_bytes(self):
        assert review_sheet(ROWS[:1]) == (
            "token\ttarget_count\tbackground_count\tlog_ratio\tdefinition\t"
            "dehumanizing\tracist\tmisogynistic\n"
            "gymcel\t12\t0\t5.9542\t\t\t\t\n"
        )

    def test_review_sheet_codes_every_category(self, monkeypatch):
        monkeypatch.setattr("cryptolex.discovery.CATEGORIES", (*CATEGORIES, "new"))
        header, line = review_sheet(ROWS[:1]).splitlines()
        assert header.endswith("\tmisogynistic\tnew")
        assert line.count("\t") == header.count("\t")

    def test_review_sheet_round_trip(self):
        # the coding loop: each row kept from the sheet is written as a
        # JSON Lines entry of any kind, under its token as the surface
        header, *lines = review_sheet(ROWS).splitlines()
        assert header.split("\t")[4:] == ["definition", "dehumanizing", "racist", "misogynistic"]
        assert all(line.endswith("\t\t\t\t") for line in lines)
        tokens = [line.split("\t")[0] for line in lines]
        coded = [
            LexiconEntry(surface=tokens[0], kind="root", definition="gym rat",
                         categories=frozenset({"dehumanizing"})),
            LexiconEntry(surface=tokens[1], kind="standalone",
                         categories=frozenset({"racist", "misogynistic"})),
        ]
        lexicon = load_lexicon(lexicon_jsonl(coded))
        assert lexicon.entries == tuple(coded)
        assert [lexicon.forms[t].surface for t in tokens] == ["gymcel", "cope"]


@given(st.lists(definitions, max_size=4))
def test_stoplist_lines_split_on_newline_only(tmp_path_factory, texts):
    words = [_tsv_safe(t) for t in texts]
    expected = {normalize_token(w.split("#", 1)[0].strip())[0] for w in words} - {""}
    text = "\n".join(words) + "\n"
    path = tmp_path_factory.mktemp("stoplist") / "stoplist.txt"
    for source in (text, text.replace("\n", "\r\n")):
        path.write_bytes(source.encode("utf-8"))
        assert load_word_list(source) == expected
        assert load_word_list(path) == expected
