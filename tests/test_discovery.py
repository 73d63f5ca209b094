from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, strategies as st

from cryptolex import (
    DiscoveryError,
    FrequencyTable,
    LogRatioRow,
    filter_stoplist,
    import_review_sheet,
    load_stoplist,
    log_ratio_rank,
    normalize_token,
    review_sheet,
    rows_to_jsonl,
    rows_to_tsv,
)
from cryptolex.lexicon import _tsv_safe

from conftest import definitions


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


class TestStoplist:
    def test_filter_preserves_order(self):
        rows = [
            LogRatioRow("the", 9, 9, 1, 0.0),
            LogRatioRow("gymcel", 5, 0, 2, 4.0),
            LogRatioRow("of", 5, 5, 3, 0.0),
        ]
        kept = filter_stoplist(rows, {"the", "of"})
        assert [r.token for r in kept] == ["gymcel"]

    def test_load(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("the\n\nof\n", encoding="utf-8")
        assert load_stoplist(p) == frozenset({"the", "of"})


ROWS = [
    LogRatioRow("gymcel", 12, 0, 3, 5.954196310386801),
    LogRatioRow("cope", 40, 2, 1, 3.25),
]


class TestExports:
    def test_tsv_shape(self):
        lines = rows_to_tsv(ROWS).splitlines()
        assert lines[0] == "token\ttarget_count\tbackground_count\ttarget_rank\tlog_ratio"
        assert lines[1] == "gymcel\t12\t0\t3\t5.9542"

    def test_jsonl_keeps_full_precision(self):
        first = json.loads(rows_to_jsonl(ROWS).splitlines()[0])
        assert first["log_ratio"] == 5.954196310386801

    def test_review_sheet_round_trip(self):
        sheet = review_sheet(ROWS)
        lines = sheet.splitlines()
        assert lines[1].endswith("\t\t\t\t")
        filled = [lines[0]]
        filled.append(lines[1].rstrip("\t") + "\tgym rat\tx\t\t")
        filled.append(lines[2].rstrip("\t") + "\t\t\tX\tx")
        entries = import_review_sheet("\n".join(filled) + "\n")
        assert [e.surface for e in entries] == ["gymcel", "cope"]
        assert entries[0].kind == "standalone"
        assert not entries[0].productive
        assert entries[0].categories == frozenset({"dehumanizing"})
        assert entries[0].definition == "gym rat"
        assert entries[1].categories == frozenset({"racist", "misogynistic"})

    def test_review_sheet_rejects_stray_flag(self):
        sheet = review_sheet(ROWS[:1])
        bad = sheet.splitlines()
        bad[1] = bad[1].rstrip("\t") + "\t\tyes\t\t"
        with pytest.raises(DiscoveryError, match="flag column"):
            import_review_sheet("\n".join(bad) + "\n")

    def test_review_sheet_header_checked(self):
        for sheet in ("token\tstuff\n", ""):
            with pytest.raises(DiscoveryError):
                import_review_sheet(sheet)

    def test_review_sheet_keeps_unicode_line_separators(self):
        lines = review_sheet(ROWS[:1]).splitlines()
        lines[1] = lines[1].rstrip("\t") + "\tcell\u2028mate\t\t\t"
        (imported,) = import_review_sheet("\n".join(lines) + "\n")
        assert imported.definition == "cell\u2028mate"


@given(st.lists(definitions, min_size=1, max_size=4))
def test_review_sheet_any_definition(texts):
    """Each row's definition comes back whole, from LF and from CRLF sheets,
    whatever line separators other than "\\n" it holds."""
    header, *rows = review_sheet(
        [LogRatioRow(f"w{i}", 1, 0, i + 1, 1.0) for i in range(len(texts))]
    ).splitlines()
    filled = [row.rstrip("\t") + f"\t{_tsv_safe(t)}\t\t\t" for row, t in zip(rows, texts)]
    text = "\n".join([header, *filled]) + "\n"
    for sheet in (text, text.replace("\n", "\r\n")):
        entries = import_review_sheet(sheet)
        assert [e.definition for e in entries] == [_tsv_safe(t) for t in texts]


@given(st.lists(definitions, max_size=4))
def test_stoplist_lines_split_on_newline_only(tmp_path_factory, texts):
    words = [_tsv_safe(t) for t in texts]
    expected = {normalize_token(w.strip())[0] for w in words if w.strip()}
    text = "\n".join(words) + "\n"
    path = tmp_path_factory.mktemp("stoplist") / "stoplist.txt"
    for source in (text, text.replace("\n", "\r\n")):
        path.write_bytes(source.encode("utf-8"))
        assert load_stoplist(source) == expected
        assert load_stoplist(path) == expected
