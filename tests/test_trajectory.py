from __future__ import annotations

import csv
import json
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from cryptolex import (
    Gap,
    GapReport,
    UsageSeries,
    WeekBucket,
    detect_gaps,
    export_series,
    parse_post_line,
    series_from_counts,
    usage_series,
    week_index,
)

from conftest import make_post, week_ts


def post(pid, user, year, week, text):
    return parse_post_line(json.dumps(make_post(pid, user, week_ts(year, week), text)))


class TestSeries:
    def test_from_counts_sorts_weeks(self):
        series = series_from_counts(
            "u1", {"2020-W10": (1, 10, 2), "2020-W02": (2, 20, 1)}
        )
        assert [b.iso_week for b in series.buckets] == ["2020-W02", "2020-W10"]
        assert series.buckets[0] == WeekBucket("2020-W02", 2, 20, 1, 0.05)

    def test_zero_token_week_has_zero_rate(self):
        series = series_from_counts("u1", {"2020-W01": (1, 0, 0)})
        assert series.buckets[0].rate == 0.0

    def test_usage_series_aggregates_by_week(self, seed_lexicon):
        posts = [
            post("a", "u1", 2020, 1, "wristcel cope"),
            post("b", "u1", 2020, 1, "nothing here"),
            post("c", "u1", 2020, 3, "gymcel gymcel"),
        ]
        series = usage_series(posts, seed_lexicon)
        assert series.user == "u1"
        assert [(b.iso_week, b.posts, b.tokens, b.matched) for b in series.buckets] == [
            ("2020-W01", 2, 4, 1),
            ("2020-W03", 1, 2, 2),
        ]

    # u2 in u1's week, and u2 first in a later week u1 never posted in
    @pytest.mark.parametrize("weeks", [(1, 1), (1, 2, 5)])
    def test_mixed_users_rejected(self, seed_lexicon, weeks):
        posts = [post(f"p{i}", "u1", 2020, week, "x y") for i, week in enumerate(weeks[:-1])]
        posts.append(post("last", "u2", 2020, weeks[-1], "x"))
        with pytest.raises(ValueError, match="mixed user ids: expected 'u1', got 'u2'"):
            usage_series(posts, seed_lexicon)

    def test_pinned_user_checked(self, seed_lexicon):
        with pytest.raises(ValueError, match="expected 'zoe'"):
            usage_series([post("a", "u1", 2020, 1, "x")], seed_lexicon, user="zoe")

    def test_empty_stream_needs_pin(self, seed_lexicon):
        series = usage_series([], seed_lexicon, user="zoe")
        assert series == UsageSeries(user="zoe", buckets=())


def weeks(table):
    """Series from {week_label: (tokens, matched)} with one post per week."""
    return series_from_counts(
        "u1", {w: (1, t, m) for w, (t, m) in table.items()}
    )


class TestGaps:
    def test_dense_series_has_no_gaps(self):
        series = weeks({f"2020-W{i:02d}": (10, 1) for i in range(1, 9)})
        assert detect_gaps(series).gaps == ()

    def test_threshold_boundary(self):
        # W01 active, W02..W04 absent, W05 active: three absent weeks
        series = weeks({"2020-W01": (10, 1), "2020-W05": (10, 1)})
        assert detect_gaps(series, min_gap_weeks=4).gaps == ()
        report = detect_gaps(series, min_gap_weeks=3)
        assert len(report.gaps) == 1
        assert report.gaps[0].gap_weeks == 3

    def test_gap_spanning_year_end(self):
        # absent run: 2019-W51, 2019-W52, then 2020-W01 through 2020-W04
        series = weeks({"2019-W50": (10, 1), "2020-W05": (10, 3)})
        (gap,) = detect_gaps(series, min_gap_weeks=4).gaps
        assert gap.gap_weeks == 6
        assert gap.last_active_week == "2019-W50"
        assert gap.next_active_week == "2020-W05"

    def test_rates_are_token_weighted_over_all_weeks(self):
        series = weeks(
            {
                "2020-W01": (100, 10),
                "2020-W02": (300, 10),
                "2020-W10": (50, 25),
                "2020-W11": (150, 25),
            }
        )
        (gap,) = detect_gaps(series, min_gap_weeks=4).gaps
        assert gap.pre_rate == pytest.approx(20 / 400)
        assert gap.post_rate == pytest.approx(50 / 200)
        assert gap.escalation == pytest.approx(5.0)

    def test_silent_before_gap_has_no_escalation(self):
        series = weeks({"2020-W01": (100, 0), "2020-W10": (100, 10)})
        (gap,) = detect_gaps(series).gaps
        assert gap.pre_rate == 0.0
        assert gap.escalation is None

    def test_multiple_gaps(self):
        series = weeks({"2020-W01": (10, 1), "2020-W10": (10, 2), "2020-W20": (10, 3)})
        report = detect_gaps(series)
        assert [g.gap_weeks for g in report.gaps] == [8, 9]

    def test_min_gap_validated(self):
        with pytest.raises(ValueError):
            detect_gaps(weeks({}), min_gap_weeks=0)


def naive_gaps(series, min_gap_weeks):
    """detect_gaps by the definition: re-sum every week before and after
    each gap."""

    def weighted_rate(buckets):
        tokens = sum(b.tokens for b in buckets)
        matched = sum(b.matched for b in buckets)
        return matched / tokens if tokens > 0 else 0.0

    buckets = series.buckets
    gaps = []
    for i in range(len(buckets) - 1):
        absent = week_index(buckets[i + 1].iso_week) - week_index(buckets[i].iso_week) - 1
        if absent >= min_gap_weeks:
            pre = weighted_rate(buckets[: i + 1])
            post = weighted_rate(buckets[i + 1 :])
            escalation = post / pre if pre > 0 else None
            gaps.append(
                Gap(buckets[i].iso_week, buckets[i + 1].iso_week, absent, pre, post, escalation)
            )
    return GapReport(series.user, tuple(gaps))


# (weeks since the previous active week, tokens, matched) per active week
active_weeks = st.lists(
    st.tuples(st.integers(1, 12), st.integers(0, 10**6), st.integers(0, 10**6)), max_size=40
)


@settings(max_examples=300, deadline=None)
@given(active_weeks, st.integers(1, 8))
def test_gaps_match_naive_reference(steps, min_gap_weeks):
    monday = date(2019, 12, 2)  # the series crosses the 53-week year 2020
    week_counts = {}
    for step, tokens, matched in steps:
        monday += timedelta(weeks=step)
        year, week, _ = monday.isocalendar()
        week_counts[f"{year:04d}-W{week:02d}"] = (1, tokens, min(matched, tokens))
    series = series_from_counts("u1", week_counts)
    assert detect_gaps(series, min_gap_weeks) == naive_gaps(series, min_gap_weeks)


class TestExport:
    def test_series_csv(self):
        series = series_from_counts("u1", {"2020-W02": (2, 20, 1)})
        assert export_series(series) == (
            "user,iso_week,posts,tokens,matched,rate\n" "u1,2020-W02,2,20,1,0.050000\n"
        )

    def test_series_jsonl_round_trips_numbers(self):
        series = series_from_counts("u1", {"2020-W02": (2, 20, 1)})
        record = json.loads(export_series(series, format="jsonl"))
        assert record == {
            "user": "u1",
            "iso_week": "2020-W02",
            "posts": 2,
            "tokens": 20,
            "matched": 1,
            "rate": 0.05,
        }
        assert export_series(series, format="jsonl") == (
            '{"user": "u1", "iso_week": "2020-W02", "posts": 2, "tokens": 20, "matched": 1, '
            '"rate": 0.05}\n'
        )

    def test_gap_csv_blank_escalation(self):
        series = weeks({"2020-W01": (100, 0), "2020-W10": (100, 10)})
        text = export_series(detect_gaps(series))
        assert text.splitlines()[1].endswith(",0.000000,0.100000,")
        assert text == (
            "user,last_active_week,next_active_week,gap_weeks,pre_rate,post_rate,escalation\n"
            "u1,2020-W01,2020-W10,8,0.000000,0.100000,\n"
        )

    def test_gap_jsonl_null_escalation(self):
        series = weeks({"2020-W01": (100, 0), "2020-W10": (100, 10)})
        record = json.loads(export_series(detect_gaps(series), format="jsonl"))
        assert record["escalation"] is None
        assert export_series(detect_gaps(series), format="jsonl") == (
            '{"user": "u1", "last_active_week": "2020-W01", "next_active_week": "2020-W10", '
            '"gap_weeks": 8, "pre_rate": 0.0, "post_rate": 0.1, "escalation": null}\n'
        )

    def test_list_shares_one_header(self):
        a = series_from_counts("a", {"2020-W01": (1, 10, 1)})
        b = series_from_counts("b", {"2020-W01": (1, 10, 2)})
        lines = export_series([a, b]).splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("a,") and lines[2].startswith("b,")

    def test_mixing_kinds_rejected(self):
        series = series_from_counts("a", {"2020-W01": (1, 10, 1)})
        report = GapReport(user="a", gaps=())
        with pytest.raises(ValueError, match="mix"):
            export_series([series, report])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="nothing"):
            export_series([])

    def test_unknown_format_rejected(self):
        series = series_from_counts("a", {"2020-W01": (1, 10, 1)})
        with pytest.raises(ValueError, match="format"):
            export_series(series, format="xml")


rates = st.floats(min_value=0, max_value=1e17, allow_subnormal=True)


@given(rates, st.lists(st.tuples(rates, rates, st.none() | rates), min_size=1, max_size=4))
def test_export_writes_floats_to_six_decimals(rate, gap_rates):
    series = UsageSeries("u", (WeekBucket("2020-W01", 1, 2, 1, rate),))
    report = GapReport(
        "u", tuple(Gap("2020-W01", "2020-W09", 7, pre, post, esc) for pre, post, esc in gap_rates)
    )

    def cell(v):
        return "" if v is None else f"{v:.6f}"

    def number(v):
        return None if v is None else float(f"{v:.6f}")

    _, row = csv.reader(export_series(series).splitlines())
    assert row[-1] == cell(rate)
    assert json.loads(export_series(series, format="jsonl"))["rate"] == number(rate)
    rows = list(csv.reader(export_series(report).splitlines()))[1:]
    records = [json.loads(line) for line in export_series(report, format="jsonl").splitlines()]
    assert [r[4:] for r in rows] == [[cell(v) for v in gap] for gap in gap_rates]
    assert [[r["pre_rate"], r["post_rate"], r["escalation"]] for r in records] == [
        [number(v) for v in gap] for gap in gap_rates
    ]
