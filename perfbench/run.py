"""Benchmark entry point: one seeded run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Generates the workload's corpus from the
seed into .perfbench_work/, then starts fresh processes of invoke.py
one after another until S seconds have passed; each times one CLI
invocation and checks its output against the generator's truth.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: throughput as
posts over cli.main time, both summed over the untraced invocations;
peak memory as low medians over them; and set-up time as the median over
every process started. Throughput and set-up time are scaled to a
reference machine speed by two probes that take no part of the program
(see REFERENCE_PROBE_S and REFERENCE_START_S); the unscaled values and the
probes are printed too. --trace 1 alternates untraced and traced invocations and
reports the per-layer metrics: timings are medians over the traced
invocations, counts come from the first, and trace.overhead_s is the
median traced cli.main time minus the median untraced one. A count that
differs between traced invocations makes the run incorrect, except the
two in SCHEDULE_DEPENDENT, which are low medians.

Every metric is printed as "name value unit", then the last line is one
JSON object with correct, attempted, failed and metrics. attempted counts
posts handed to the CLI over all invocations; failed counts those whose
output record was missing or wrong, so failed / attempted is the run's
error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpora  # noqa: E402
from invoke import INVOCATIONS  # noqa: E402

SETUP_PROBES = 2  # set-up-only and bare start-up pairs before each untraced invocation
MIN_INVOCATIONS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s
# The machine is shared, and its speed moves by up to 1.5x in phases that
# last from seconds to many minutes; its two vCPUs often run at different
# speeds at the same moment. Each run therefore samples two probes all
# through the run and reports its timings as on a reference machine.
# Throughput is scaled by probe.py, a fixed pure-Python job shaped like the
# program's work, run as one process per CLI worker at once, so that it
# meets the same vCPUs the invocation used: the run's scale is the mean,
# over the probes, of the slowest process's time, over REFERENCE_PROBE_S.
# Set-up time is mostly interpreter start-up and imports, so it is scaled
# by a bare interpreter that starts and imports the standard modules
# cryptolex imports: the median of those over REFERENCE_START_S.
STDLIB_IMPORTS = (
    "import argparse, contextlib, csv, json, math, os, re, sys, collections, dataclasses, datetime, "
    "io, pathlib, typing, importlib.resources, concurrent.futures"
)
REFERENCE_START_S = 0.1
REFERENCE_PROBE_S = 0.7
# Which worker takes which chunk decides how often each worker's own parse
# cache misses, so these vary between runs at --workers 2. Every other
# count must repeat exactly.
SCHEDULE_DEPENDENT = {"morpho.decompose_calls", "morpho.cache_hit_ratio"}


def start_invocation(root: Path, workload: str, workdir: Path, *flags: str, deadline: float) -> dict:
    """Run one invoke.py process to completion; returns its JSON result plus setup_s."""
    cmd = [sys.executable, str(HERE / "invoke.py"), "--workload", workload, "--workdir", str(workdir), *flags]
    env = dict(os.environ, CRYPTOLEX_NO_WARN="1")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"invocation of {workload} passed the run's time limit")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"invocation of {workload} exited {proc.returncode}: {err.strip()[-500:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def python_start(root: Path) -> float:
    """Seconds from spawning an interpreter until it has imported the
    standard modules that cryptolex imports; the program takes no part.
    The child reads the clock itself, as invoke.py does for setup_s: a
    wait with a timeout polls the child at up to 50 ms intervals, which
    would round the time up to that step."""
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", STDLIB_IMPORTS + "; import time; print(time.monotonic())"],
        cwd=root, check=True, timeout=60, capture_output=True, text=True,
    ).stdout
    return float(out) - started


def cpu_probe(root: Path, processes: int) -> float:
    """Seconds the slowest of `processes` probe.py jobs, started at once,
    took for its timed rounds."""
    procs = [
        subprocess.Popen([sys.executable, str(HERE / "probe.py")], cwd=root, stdout=subprocess.PIPE, text=True)
        for _ in range(processes)
    ]
    times = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=60)
            if proc.returncode != 0:
                raise RuntimeError(f"probe.py exited {proc.returncode}")
            times.append(float(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return max(times)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(corpora.PRESETS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "cryptolex" / "cli.py").is_file():
        print("no src/cryptolex in the current directory; run from a checkout root", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = root / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    corpora.generate(args.workload, args.seed, workdir)

    def invoke(*flags: str) -> dict:
        return start_invocation(root, args.workload, workdir, *flags, deadline=deadline)

    invoke("--setup-only")  # warm-up: writes bytecode caches, not counted
    setups: list[float] = []
    starts: list[float] = []
    probes: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    measure_from = time.monotonic()
    while True:
        enough = len(plain) >= (1 if args.trace else MIN_INVOCATIONS) and len(traced) >= (2 if args.trace else 0)
        if enough and time.monotonic() - measure_from >= args.seconds:
            break
        if args.trace and len(traced) < len(plain):
            traced.append(invoke("--trace"))
        else:
            # spread over the run, so that they meet the same speed phases
            # of the machine as the measured invocations
            if not args.trace:
                for _ in range(SETUP_PROBES):
                    setups.append(invoke("--setup-only")["setup_s"])
                    starts.append(python_start(root))
                probes.append(cpu_probe(root, INVOCATIONS[args.workload][1]))
            plain.append(invoke())
    invocations = plain + traced
    setups += [r["setup_s"] for r in invocations]

    if args.trace:
        layers = [r["layers"] for r in traced]
        metrics = combine_layers(layers)
        metrics["trace.overhead_s"] = (
            statistics.median(r["main_s"] for r in traced) - statistics.median(r["main_s"] for r in plain)
        )
    else:
        # the invocations' times are bimodal (the machine's speed jumps
        # between phases), and a ratio of sums is steadier than a median
        unscaled_posts_per_s = sum(r["posts"] for r in plain) / sum(r["main_s"] for r in plain)
        metrics = {
            "posts_per_s": unscaled_posts_per_s * statistics.fmean(probes) / REFERENCE_PROBE_S,
            "setup_s": statistics.median(setups) * REFERENCE_START_S / statistics.median(starts),
            # the CLI process's peak depends on how many results wait for it:
            # on annotate-coded it is 65.5 MiB, but 76.5 in about one
            # invocation in five. A run has only four there, so a plain
            # median moves when two of them peak high; the low median
            # needs three
            "peak_rss_mib": statistics.median_low(r["peak_rss_kib"] for r in plain) / 1024,
            "worker_peak_rss_mib": statistics.median_low(r["worker_peak_rss_kib"] for r in plain) / 1024,
        }

    attempted = sum(r["posts"] for r in invocations)
    failed = sum(r["failed"] for r in invocations)
    problems = [p for r in invocations for p in r["problems"]]
    if args.trace and (unstable := differing_counts([r["layers"] for r in traced])):
        problems.append(f"counts differ between traced invocations: {', '.join(unstable)}")
    for problem in problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in declared}
    print(f"# {args.workload} seed {args.seed}: {len(plain)} untraced, {len(traced)} traced "
          f"invocations, {len(setups)} set-ups, {time.monotonic() - measure_from:.1f} s measured")
    for name in units:
        print(f"{name} {metrics[name]} {units[name]}")
    print(f"error_rate {failed / attempted} ratio")
    if not args.trace:
        print(f"python_start_s {statistics.median(starts)} s")
        print(f"cpu_probe_s {statistics.fmean(probes)} s")
        print(f"unscaled_posts_per_s {unscaled_posts_per_s} 1/s")
        print(f"unscaled_setup_s {statistics.median(setups)} s")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def combine_layers(runs: list[dict]) -> dict:
    """Median of each timing over traced runs, low median of each
    schedule-dependent count, and every other count from the first run."""
    combined = {}
    for name, value in runs[0].items():
        if name.endswith("_s"):
            value = statistics.median(r[name] for r in runs)
        elif name in SCHEDULE_DEPENDENT:
            value = statistics.median_low(r[name] for r in runs)
        combined[name] = value
    return combined


def differing_counts(runs: list[dict]) -> list[str]:
    """Counts, other than the schedule-dependent ones, that are not the same
    in every one of runs (dicts of per-layer metric values)."""
    return [
        name for name, value in runs[0].items()
        if not name.endswith("_s") and name not in SCHEDULE_DEPENDENT
        and any(r[name] != value for r in runs[1:])
    ]


if __name__ == "__main__":
    sys.exit(main())
