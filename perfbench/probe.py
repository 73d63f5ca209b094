"""Machine-speed probe: a fixed pure-Python job shaped like the program's work.

    python3 perfbench/probe.py

Builds 2,000 JSON post lines, then ROUNDS times parses them, tokenizes
their text with a regular expression into a Counter and round-trips the
Counter through pickle: the operations cryptolex spends its time on, done
with the standard library alone. Prints the seconds the timed rounds
took, so interpreter start-up is left out. It imports nothing from
cryptolex, so a change to the program cannot move it.
"""

from __future__ import annotations

import json
import pickle
import random
import re
import time
from collections import Counter

ROUNDS = 20
LINES = 2000
WORD = re.compile(r"\w+")


def posts() -> list[str]:
    rng = random.Random(7)
    vocab = [f"w{i:05d}" for i in range(20000)]
    return [
        json.dumps({"id": f"p{i}", "user": f"u{i % 97}", "text": " ".join(rng.choices(vocab, k=rng.randint(5, 20)))})
        for i in range(LINES)
    ]


def job(lines: list[str]) -> float:
    started = time.perf_counter()
    for _ in range(ROUNDS):
        counts = Counter()
        for line in lines:
            counts.update(WORD.findall(json.loads(line)["text"].lower()))
        pickle.loads(pickle.dumps(counts))
    return time.perf_counter() - started


if __name__ == "__main__":
    print(job(posts()))
