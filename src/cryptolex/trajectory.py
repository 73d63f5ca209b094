"""Per-user weekly usage series and break-and-rejoin gap detection.

The usage rate of a week bucket is matched lexicon tokens divided by total
tokens in that week. Buckets are sparse: a week without posts simply does
not appear. A gap is a long-enough run of absent weeks between two active
ones, and escalation compares token-weighted mean rates after versus
before the gap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from io import StringIO
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple

import csv

from .corpus import Post, fold_usage, label_weeks, week_index
from .lexicon import Lexicon


class WeekBucket(NamedTuple):
    # NamedTuples, as Post is: a trajectory run builds one per (user, week)
    # and one per gap, and a tuple builds faster than a frozen dataclass
    iso_week: str
    posts: int
    tokens: int
    matched: int
    rate: float


@dataclass(frozen=True)
class UsageSeries:
    user: str
    buckets: tuple[WeekBucket, ...]


class Gap(NamedTuple):
    last_active_week: str
    next_active_week: str
    gap_weeks: int
    pre_rate: float
    post_rate: float
    escalation: float | None  # None when pre_rate is 0 (undefined)


@dataclass(frozen=True)
class GapReport:
    user: str
    gaps: tuple[Gap, ...]


def _rate(matched: int, tokens: int) -> float:
    return matched / tokens if tokens > 0 else 0.0


def series_from_counts(user: str, week_counts: dict[str, tuple[int, int, int]]) -> UsageSeries:
    """Build a series from {iso_week: (posts, tokens, matched)} aggregates."""
    # tuple.__new__ skips the Python frame of WeekBucket's own __new__, and
    # the rate is _rate's, inline, for the same reason
    new = tuple.__new__
    buckets = tuple(
        new(WeekBucket, (week, posts, tokens, matched, matched / tokens if tokens > 0 else 0.0))
        for week, (posts, tokens, matched) in sorted(week_counts.items())
    )
    return UsageSeries(user=user, buckets=buckets)


def usage_series(posts: Iterable[Post], lexicon: Lexicon) -> UsageSeries:
    """Weekly usage buckets for a single user's posts, which must all carry
    the same user id. An empty stream gives an empty series, user "".
    """
    usage = label_weeks(fold_usage(posts, lexicon))
    names = list(dict.fromkeys(name for name, _ in usage))  # in order of first post
    if len(names) > 1:
        raise ValueError(f"mixed user ids: expected {names[0]!r}, got {names[1]!r}")
    user = names[0] if names else ""
    return series_from_counts(user, {week: cell for (_, week), cell in usage.items()})


def detect_gaps(series: UsageSeries, min_gap_weeks: int = 4) -> GapReport:
    """Find runs of at least min_gap_weeks absent weeks between active weeks.

    pre_rate and post_rate are token-weighted means over every active week
    strictly before and after the gap, not just the adjacent ones. They
    come from integer prefix sums, so each is one division, as exact as
    summing the weeks afresh.
    """
    if min_gap_weeks < 1:
        raise ValueError("min_gap_weeks must be >= 1")
    buckets = series.buckets
    weeks = [week_index(b.iso_week) for b in buckets]
    tokens = list(accumulate((b.tokens for b in buckets), initial=0))
    matched = list(accumulate((b.matched for b in buckets), initial=0))
    gaps = []
    for i in range(1, len(buckets)):
        absent = weeks[i] - weeks[i - 1] - 1
        if absent >= min_gap_weeks:
            pre = _rate(matched[i], tokens[i])
            post = _rate(matched[-1] - matched[i], tokens[-1] - tokens[i])
            escalation = (post / pre) if pre > 0 else None
            last, next_ = buckets[i - 1].iso_week, buckets[i].iso_week
            gaps.append(tuple.__new__(Gap, (last, next_, absent, pre, post, escalation)))
    return GapReport(user=series.user, gaps=tuple(gaps))


def _rows(groups: list[tuple[str, tuple]], number: Callable[[float], object]) -> Iterator[list]:
    """One row per record: its user, then its fields, each float through number."""
    for user, records in groups:
        for record in records:
            yield [user, *[number(v) if isinstance(v, float) else v for v in record]]


def export_series(data, format: str = "csv") -> str:
    """Render series or gap reports as csv (header + rows) or jsonl.

    data may be one UsageSeries, one GapReport, or a homogeneous list of
    either; lists share a single header. The columns are "user", then
    WeekBucket's or Gap's fields. Rates have six decimals in both formats,
    and an undefined escalation is an empty cell or null. Row order follows
    input order, so callers control grouping.
    """
    if format not in ("csv", "jsonl"):
        raise ValueError(f"format must be 'csv' or 'jsonl', got {format!r}")
    items = data if isinstance(data, list) else [data]
    if not items:
        raise ValueError("nothing to export")
    if all(isinstance(it, UsageSeries) for it in items):
        record_type, groups = WeekBucket, [(it.user, it.buckets) for it in items]
    elif all(isinstance(it, GapReport) for it in items):
        record_type, groups = Gap, [(it.user, it.gaps) for it in items]
    else:
        raise ValueError("cannot mix series and gap reports in one export")
    columns = ["user", *record_type._fields]

    if format == "csv":
        buffer = StringIO()
        writer = csv.writer(buffer, lineterminator="\n")  # writes None as an empty cell
        writer.writerow(columns)
        writer.writerows(_rows(groups, "{:.6f}".format))
        return buffer.getvalue()
    # round(v, 6) is the float that the csv cell f"{v:.6f}" reads as
    rows = _rows(groups, lambda v: round(v, 6))
    return "".join(json.dumps(dict(zip(columns, row)), ensure_ascii=False) + "\n" for row in rows)
