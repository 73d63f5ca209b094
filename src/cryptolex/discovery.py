"""Comparative keyword extraction over two frequency tables.

Ranks the most frequent target-corpus tokens by smoothed base-2 log ratio
against a background corpus. Candidates go to a review sheet for human
coding; each row kept is then written by hand as a JSON Lines lexicon
entry, which may be a root, an affix or a standalone term.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, fields
from typing import Iterable

from .corpus import FrequencyTable
from .lexicon import CATEGORIES


class DiscoveryError(ValueError):
    pass


@dataclass(frozen=True)
class LogRatioRow:
    token: str
    target_count: int
    background_count: int
    target_rank: int  # 1-based frequency rank within the target corpus
    log_ratio: float


def log_ratio_rank(
    target: FrequencyTable,
    background: FrequencyTable,
    alpha: float = 0.5,
    top_k: int = 1000,
    min_count: int = 5,
) -> list[LogRatioRow]:
    """Rank candidate tokens by smoothed log2 frequency ratio, descending.

    Candidates are the top_k most frequent target tokens with at least
    min_count occurrences. Smoothing adds alpha to every count and alpha
    times the union-vocabulary size to every total, so unseen background
    tokens stay finite. alpha=0 is allowed for exact ratio work but then
    every candidate must occur in the background. An alpha so small or so
    large that a ratio leaves the float range raises DiscoveryError.
    """
    if not target.counts or target.total_tokens < 1:
        raise DiscoveryError("target table is empty")
    if not background.counts or background.total_tokens < 1:
        raise DiscoveryError("background table is empty")
    if not 0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 0")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")

    vocab = len(target.counts.keys() | background.counts.keys())
    # the top_k most frequent tokens all count at least the top_k-th largest
    # count, so only the tokens at or above it (and min_count) need sorting
    threshold = max(heapq.nlargest(top_k, target.counts.values())[-1], min_count)
    at_threshold = [(t, c) for t, c in target.counts.items() if c >= threshold]
    candidates = sorted(at_threshold, key=lambda kv: (-kv[1], kv[0]))[:top_k]

    n_target = target.total_tokens
    n_background = background.total_tokens
    rows = []
    for rank, (token, count) in enumerate(candidates, start=1):
        bg_count = background.counts.get(token, 0)
        p_target = (count + alpha) / (n_target + alpha * vocab)
        p_background = (bg_count + alpha) / (n_background + alpha * vocab)
        if p_background == 0 and alpha == 0:
            raise DiscoveryError(
                f"token {token!r} absent from background; alpha=0 needs full coverage"
            )
        # alpha * vocab may overflow, or alpha underflow, to a zero or infinite ratio
        ratio = math.log2(p_target / p_background) if p_target and p_background else math.inf
        if not math.isfinite(ratio):
            raise DiscoveryError(f"alpha={alpha!r} gives token {token!r} a non-finite log ratio")
        rows.append(LogRatioRow(token, count, bg_count, rank, ratio))
    rows.sort(key=lambda r: (-r.log_ratio, r.token))
    return rows


def _tsv(rows: Iterable[LogRatioRow], columns: list[str], blank: tuple[str, ...] = ()) -> str:
    """A header, then one line per row: its columns' values, log ratios to
    four decimals, and an empty cell under each blank column."""
    lines = ["\t".join([*columns, *blank])]
    pad = "\t" * len(blank)
    for r in rows:
        cells = [getattr(r, c) for c in columns]
        lines.append("\t".join(f"{v:.4f}" if isinstance(v, float) else str(v) for v in cells) + pad)
    return "\n".join(lines) + "\n"


def rows_to_tsv(rows: Iterable[LogRatioRow]) -> str:
    """Ranked TSV whose columns are LogRatioRow's fields."""
    return _tsv(rows, [f.name for f in fields(LogRatioRow)])


def rows_to_jsonl(rows: Iterable[LogRatioRow]) -> str:
    """One JSON object per row, keyed by LogRatioRow's fields in order;
    log_ratio keeps full precision."""
    return "".join(json.dumps(vars(r), ensure_ascii=False) + "\n" for r in rows)


def review_sheet(rows: Iterable[LogRatioRow]) -> str:
    """TSV for manual coding: the ranked columns but target_rank, then empty
    definition and category columns."""
    columns = [f.name for f in fields(LogRatioRow) if f.name != "target_rank"]
    return _tsv(rows, columns, ("definition", *CATEGORIES))
