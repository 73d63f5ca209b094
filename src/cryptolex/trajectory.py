"""Per-user weekly usage series and break-and-rejoin gap detection.

The usage rate of a week bucket is matched lexicon tokens divided by total
tokens in that week. Buckets are sparse: a week without posts simply does
not appear. A gap is a long-enough run of absent weeks between two active
ones, and escalation compares token-weighted mean rates after versus
before the gap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from io import StringIO
from itertools import accumulate
from typing import Callable, Iterable, Iterator

import csv

from .corpus import Post, fold_usage, label_weeks, week_index
from .lexicon import Lexicon


@dataclass(frozen=True)
class WeekBucket:
    iso_week: str
    posts: int
    tokens: int
    matched: int
    rate: float


@dataclass(frozen=True)
class UsageSeries:
    user: str
    buckets: tuple[WeekBucket, ...]


@dataclass(frozen=True)
class Gap:
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
    buckets = []
    for week in sorted(week_counts):
        n_posts, n_tokens, n_matched = week_counts[week]
        buckets.append(WeekBucket(week, n_posts, n_tokens, n_matched, _rate(n_matched, n_tokens)))
    return UsageSeries(user=user, buckets=tuple(buckets))


def usage_series(posts: Iterable[Post], lexicon: Lexicon, user: str | None = None) -> UsageSeries:
    """Weekly usage buckets for a single user's posts.

    All posts must carry the same user id; pass user= to pin the expected
    id (required for an empty stream, where it cannot be inferred).
    """
    usage = label_weeks(fold_usage(posts, lexicon))
    names = dict.fromkeys(name for name, _ in usage)  # in order of first post
    series_user = next(iter(names), "") if user is None else user
    other = next((name for name in names if name != series_user), None)
    if other is not None:
        raise ValueError(f"mixed user ids: expected {series_user!r}, got {other!r}")
    return series_from_counts(series_user, {week: cell for (_, week), cell in usage.items()})


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
            gaps.append(
                Gap(
                    last_active_week=buckets[i - 1].iso_week,
                    next_active_week=buckets[i].iso_week,
                    gap_weeks=absent,
                    pre_rate=pre,
                    post_rate=post,
                    escalation=(post / pre) if pre > 0 else None,
                )
            )
    return GapReport(user=series.user, gaps=tuple(gaps))


def _rows(groups: list[tuple[str, tuple]], number: Callable[[float], object]) -> Iterator[list]:
    """One row per record: its user, then its fields, each float through number."""
    for user, records in groups:
        for record in records:
            yield [user, *[number(v) if isinstance(v, float) else v for v in vars(record).values()]]


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
    columns = ["user", *(f.name for f in fields(record_type))]

    if format == "csv":
        buffer = StringIO()
        writer = csv.writer(buffer, lineterminator="\n")  # writes None as an empty cell
        writer.writerow(columns)
        writer.writerows(_rows(groups, "{:.6f}".format))
        return buffer.getvalue()
    # round(v, 6) is the float that the csv cell f"{v:.6f}" reads as
    rows = _rows(groups, lambda v: round(v, 6))
    return "".join(json.dumps(dict(zip(columns, row)), ensure_ascii=False) + "\n" for row in rows)
