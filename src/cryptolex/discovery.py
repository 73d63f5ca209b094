"""Comparative keyword extraction over two frequency tables.

Ranks the most frequent target-corpus tokens by smoothed base-2 log ratio
against a background corpus. Candidates go to a review sheet for human
coding; each row kept is then written by hand as a JSON Lines lexicon
entry, which may be a root, an affix or a standalone term.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

from .corpus import FrequencyTable


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

    vocab = len(set(target.counts) | set(background.counts))
    by_frequency = sorted(target.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    rank_of = {token: rank for rank, (token, _) in enumerate(by_frequency, start=1)}
    candidates = [(t, c) for t, c in by_frequency if c >= min_count][:top_k]

    n_target = target.total_tokens
    n_background = background.total_tokens
    rows = []
    for token, count in candidates:
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
        rows.append(LogRatioRow(token, count, bg_count, rank_of[token], ratio))
    rows.sort(key=lambda r: (-r.log_ratio, r.token))
    return rows


RANKED_COLUMNS = ("token", "target_count", "background_count", "target_rank", "log_ratio")
SHEET_COLUMNS = (
    "token",
    "target_count",
    "background_count",
    "log_ratio",
    "definition",
    "dehumanizing",
    "racist",
    "misogynistic",
)


def rows_to_tsv(rows: Iterable[LogRatioRow]) -> str:
    lines = ["\t".join(RANKED_COLUMNS)]
    for r in rows:
        lines.append(
            f"{r.token}\t{r.target_count}\t{r.background_count}\t{r.target_rank}\t{r.log_ratio:.4f}"
        )
    return "\n".join(lines) + "\n"


def rows_to_jsonl(rows: Iterable[LogRatioRow]) -> str:
    out = []
    for r in rows:
        out.append(
            json.dumps(
                {
                    "token": r.token,
                    "target_count": r.target_count,
                    "background_count": r.background_count,
                    "target_rank": r.target_rank,
                    "log_ratio": r.log_ratio,
                },
                ensure_ascii=False,
            )
        )
    return "".join(line + "\n" for line in out)


def review_sheet(rows: Iterable[LogRatioRow]) -> str:
    """TSV for manual coding: stats plus empty definition/category columns."""
    lines = ["\t".join(SHEET_COLUMNS)]
    for r in rows:
        lines.append(f"{r.token}\t{r.target_count}\t{r.background_count}\t{r.log_ratio:.4f}\t\t\t\t")
    return "\n".join(lines) + "\n"

