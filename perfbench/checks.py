"""Check a CLI output file against the generator's truth sidecar.

Each checker returns (failed posts, problems). A post fails when its
output record is missing or disagrees with the truth; for outputs that
aggregate posts, every post behind a wrong aggregate fails.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# CLI defaults the discover-words invocation relies on
ALPHA = 0.5
TOP_K = 1000
MIN_COUNT = 5


def expected_ranked_tsv(target: dict, background: dict) -> list[str]:
    """The ranked TSV lines the paper's smoothed log2 ratio defines."""
    vocab = len(set(target) | set(background))
    n_target = sum(target.values())
    n_background = sum(background.values())
    by_frequency = sorted(target.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = []
    for rank, (token, count) in enumerate(by_frequency, start=1):
        if count < MIN_COUNT:
            continue
        if len(rows) == TOP_K:
            break
        bg = background.get(token, 0)
        p_target = (count + ALPHA) / (n_target + ALPHA * vocab)
        p_background = (bg + ALPHA) / (n_background + ALPHA * vocab)
        rows.append((token, count, bg, rank, math.log2(p_target / p_background)))
    rows.sort(key=lambda r: (-r[4], r[0]))
    header = "token\ttarget_count\tbackground_count\ttarget_rank\tlog_ratio"
    return [header] + [f"{t}\t{c}\t{b}\t{r}\t{lr:.4f}" for t, c, b, r, lr in rows]


def check_discover(truth: dict, output: Path) -> tuple[int, list[str]]:
    got = output.read_text(encoding="utf-8").splitlines()
    want = expected_ranked_tsv(truth["target_counts"], truth["background_counts"])
    if got == want:
        return 0, []
    wrong = sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
    return truth["posts"], [f"{wrong} of {len(want)} ranked rows differ"]


def check_annotate(truth: dict, output: Path) -> tuple[int, list[str]]:
    expected = {rec["id"]: rec for rec in truth["expected"]}
    ok = 0
    problems = []
    with open(output, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if expected.get(record.get("id")) == record:
                ok += 1
            elif len(problems) < 3:
                problems.append(f"record {record.get('id')!r} differs from truth")
    return truth["posts"] - ok, problems


def check_trajectory(truth: dict, output: Path) -> tuple[int, list[str]]:
    got: dict[str, list[list[str]]] = {}
    with open(output, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows, None)
        for row in rows:
            got.setdefault(row[0], []).append(row)
    failed = 0
    problems = []
    for user, planned in truth["users"].items():
        if got.pop(user, []) != planned["gaps"]:
            failed += planned["posts"]
            if len(problems) < 3:
                problems.append(f"gap rows of {user} differ from truth")
    if got:
        problems.append(f"{len(got)} users in output the generator never wrote")
    return failed, problems


CHECKERS = {
    "discover-words": check_discover,
    "annotate-coded": check_annotate,
    "trajectory-gaps": check_trajectory,
}
