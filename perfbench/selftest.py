"""Self-test of the benchmark's corpus generator.

    python3 perfbench/selftest.py

Run from the root of a checkout (it imports src/ and tests/). Checks that:
- the discover-words target at seed 0, with its malformed lines dropped, is
  byte-identical to a prefix of generate_big_corpus in tests/test_acceptance.py;
- filler words and novel stems never match the seed lexicon, and the
  planted known forms and near-misses parse as the truth tables say;
- every sidecar agrees with its corpus: malformed-line counts, token counts
  and span offsets per post, and per-user bucket totals;
- layers.json maps exactly the per-layer metrics BENCHMARK.json declares.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import corpora  # noqa: E402
from cryptolex import decompose, load_seed_lexicon, normalize_token  # noqa: E402

WORD = re.compile(r"[^\W_]+")
failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def valid_lines(path: Path) -> tuple[list[str], int]:
    """Lines that hold a well-formed post, and the count of the others."""
    good, bad = [], 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                bad += 1
                continue
            fields = ("id", "user", "forum", "text")
            if all(isinstance(record.get(f), str) for f in fields) and "created_utc" in record:
                good.append(line)
            else:
                bad += 1
    return good, bad


def best(lexicon, raw: str):
    normalized, elongated = normalize_token(raw)
    parses = decompose(normalized, lexicon, elongated=elongated)
    return parses[0] if parses else None


def main() -> int:
    from test_acceptance import generate_big_corpus

    work = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    lexicon = load_seed_lexicon()

    truths = {name: corpora.generate(name, 0, work / name) for name in corpora.PRESETS}

    target, bad = valid_lines(work / "discover-words" / "target.jsonl")
    generate_big_corpus(work / "big.jsonl", n_posts=len(target))
    reference = (work / "big.jsonl").read_bytes()
    check("".join(target).encode("utf-8") == reference,
          f"discover-words target = first {len(target)} posts of generate_big_corpus")
    _, bad_bg = valid_lines(work / "discover-words" / "background.jsonl")
    check(bad + bad_bg == truths["discover-words"]["malformed"], "discover-words malformed count")

    rng = random.Random(1)
    filler = {corpora.filler_word(rng, rng.randint(1, 4)) for _ in range(50_000)}
    matched = sorted(w for w in filler if best(lexicon, w) is not None)
    check(not matched, f"{len(filler)} filler words never match {matched[:5]}")

    for raw, (segments, categories, specificity) in corpora.KNOWN_FORMS.items():
        parse = best(lexicon, raw)
        got = None if parse is None else (
            [(s.slice, s.role, s.entry.surface if s.entry else None) for s in parse.segments],
            sorted({c for s in parse.segments if s.entry for c in s.entry.categories}),
            parse.specificity,
        )
        check(got == (segments, categories, specificity), f"known form {raw!r} parses as planted")
    missed = [w for w in corpora.NEAR_MISSES if best(lexicon, w) is not None]
    check(not missed, f"near-misses stay unmatched {missed}")

    truth = truths["annotate-coded"]
    posts, bad = valid_lines(work / "annotate-coded" / "posts.jsonl")
    check(bad == truth["malformed"], "annotate-coded malformed count")
    consistent = len(posts) == len(truth["expected"])
    for line, want in zip(posts, truth["expected"]):
        text = json.loads(line)["text"]
        consistent &= len(WORD.findall(text)) == want["token_count"]
        consistent &= all(text[s["start"]:s["end"]] == s["term"] for s in want["spans"])
    check(consistent, "annotate-coded token counts and span offsets match the corpus text")

    truth = truths["trajectory-gaps"]
    posts, bad = valid_lines(work / "trajectory-gaps" / "posts.jsonl")
    check(bad == truth["malformed"], "trajectory-gaps malformed count")
    per_user = Counter(json.loads(line)["user"] for line in posts)
    check(
        all(per_user[u] == sum(b[0] for b in t["buckets"].values()) == t["posts"] for u, t in truth["users"].items()),
        "trajectory-gaps bucket post counts match the corpus",
    )
    check(all(t["gaps"] for t in truth["users"].values()), "every trajectory user has a planned gap")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    with open(HERE / "layers.json", encoding="utf-8") as fh:
        mapped = set(json.load(fh)["layers"])
    check(declared == mapped, "layers.json maps every per-layer metric of BENCHMARK.json")

    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
