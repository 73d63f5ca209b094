"""One CLI invocation in a fresh process, timed and checked.

    python3 perfbench/invoke.py --workload NAME --workdir DIR [--trace] [--setup-only]

Imports cryptolex from the checkout's src/, loads the lexicon, and prints
the monotonic time at which that set-up finished. Then it times
cryptolex.cli.main over the corpus in DIR, reads peak RSS of itself
(VmHWM) and of its waited-for workers (RUSAGE_CHILDREN), checks the output against DIR/truth.json and
prints one JSON line. With --trace it also records spans around each
layer's public calls, writes them to DIR/trace-<pid>.jsonl and adds the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# workload -> (CLI arguments with {dir} for the corpus directory, workers)
INVOCATIONS = {
    "discover-words": (
        ["discover", "--input", "{dir}/target.jsonl", "--background", "{dir}/background.jsonl",
         "--output", "{dir}/out.tsv"],
        2,
    ),
    "annotate-coded": (["annotate", "--input", "{dir}/posts.jsonl", "--output", "{dir}/out.jsonl"], 2),
    "trajectory-gaps": (
        ["trajectory", "--all", "--gaps", "--input", "{dir}/posts.jsonl", "--output", "{dir}/out.csv"],
        1,
    ),
}

_SKIPPED = re.compile(r"^skipped (\d+) malformed lines", re.MULTILINE)


def own_peak_rss_kib() -> int:
    """Peak resident set of this process since it started, in KiB.

    ru_maxrss of RUSAGE_SELF would carry the spawning process's peak across
    exec: run.py reaches 64 MiB while it writes the annotate-coded corpus,
    more than the CLI process itself uses. VmHWM belongs to this process's
    own address space, which exec made new."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(INVOCATIONS))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import cryptolex
    from cryptolex import cli, lexicon

    if Path(cryptolex.__file__).resolve().parent != SRC / "cryptolex":
        print(f"imported cryptolex from {cryptolex.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing

        spill = args.workdir / f"spill-{os.getpid()}"
        spill.mkdir()
        tracer = tracing.Tracer(str(os.getpid()), spill)
        tracing.install(tracer)
    lexicon.load_lexicon(lexicon.seed_lexicon_text(), lexicon.seed_blocklist())
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    template, workers = INVOCATIONS[args.workload]
    argv = [a.format(dir=args.workdir) for a in template] + ["--workers", str(workers)]
    output = Path(argv[argv.index("--output") + 1])
    stderr = io.StringIO()
    problems = []
    token = tracer.begin("cli.main") if tracer else None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except Exception:  # a crash fails every post; report it, do not die
        rc = None
        problems.append(traceback.format_exc(limit=3))
    main_s = time.perf_counter() - started
    if tracer:
        tracer.end(token)
    rss_self = own_peak_rss_kib()
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    import checks

    with open(args.workdir / "truth.json", encoding="utf-8") as fh:
        truth = json.load(fh)
    found = _SKIPPED.search(stderr.getvalue())
    skipped = int(found.group(1)) if found else 0
    if rc != 0:
        failed = truth["posts"]
        problems.append(f"exit code {rc}: {stderr.getvalue().strip()[-300:]}")
    else:
        failed, found_problems = checks.CHECKERS[args.workload](truth, output)
        problems += found_problems
    if skipped != truth["malformed"]:
        problems.append(f"skipped {skipped} lines, truth has {truth['malformed']} malformed")

    result = {
        "ready": ready,
        "main_s": main_s,
        "posts": truth["posts"],
        "failed": failed,
        "problems": problems,
        "peak_rss_kib": rss_self,
        # with one worker the CLI process does the workers' job itself
        "worker_peak_rss_kib": rss_children if workers > 1 else rss_self,
    }
    if tracer:
        tracer.collect()
        tracer.write(args.workdir / f"trace-{os.getpid()}.jsonl")
        size = output.stat().st_size if output.exists() else 0
        result["layers"] = tracing.layer_metrics(tracer, size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
