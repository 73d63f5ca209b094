from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # perfbench/tracing.py wraps cryptolex functions by attribute name, so a
    # rename or deletion in src/ breaks traced benchmark runs; installing
    # the tracer reads every such name
    script = (
        'import sys; from pathlib import Path; sys.path[:0] = ["src", "perfbench"]; '
        "import tracing; tracing.install(tracing.Tracer('t', Path(sys.argv[1])))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
