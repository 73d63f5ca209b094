"""Run run.py over several seeds and summarize each metric's spread.

    python3 perfbench/baseline.py [--seeds 0-9] [--trace 0|1] [--write FILE]

Run from the root of a checkout. For every workload and end-to-end metric
(or per-layer metric with --trace 1) it prints the median over the seeds
and the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median. With --trace 1 a
seed given twice (--seeds 0,0) must repeat its counts exactly, apart
from run.SCHEDULE_DEPENDENT; it exits 1 if one differs. --write stores the
summary with every run's values, nproc, the Python version and the git
commit, so a later change can be compared against the same numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float | None:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0-9", type=seed_list)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    root = Path.cwd()
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        rows = {}
        for metric in declared:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            rows[name] = {"median": statistics.median(values), "spread": spread(values),
                          "unit": metric["unit"], "bound": metric.get("bound")}
            share = rows[name]["spread"]
            flag = ""
            if metric.get("bound") is not None and share is not None and share > metric["bound"] / 3:
                flag = "  above a third of its bound"
            print(f"  {name} median {rows[name]['median']:.6g} {metric['unit']} "
                  f"spread {'n/a' if share is None else f'{share:.4f}'}{flag}")
            print("    " + " ".join(f"{v:.6g}" for v in values))
        if args.trace:
            for seed in set(args.seeds):
                same = [{n: m["value"] for n, m in r["metrics"].items()} for r in runs if r["seed"] == seed]
                if unstable := run.differing_counts(same):
                    print(f"  seed {seed}: counts differ between runs: {', '.join(unstable)}")
                    ok = False
        summary[workload] = {"metrics": rows, "runs": runs}
    if args.write:
        record = {
            "git_commit": git_commit(root),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "run_seconds": spec["run_seconds"],
            "trace": args.trace,
            "seeds": args.seeds,
            "workloads": summary,
        }
        args.write.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
