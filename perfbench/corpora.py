"""Seeded corpus presets, one per benchmark workload, with ground truth.

Each preset writes a JSON Lines corpus the program reads and a truth
sidecar the benchmark checks the program's output against. The truth is
what the generator planted, never what the program computed: the planned
matches per post, per-user week buckets and planned gaps, the planted
coded-term counts, and the number of malformed lines.

Filler words are spelled only from letters that no seed-lexicon form can
be built without (every surface, variant and affix holds a c, m, f or e),
so filler can never match. selftest.py checks this against the program.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from datetime import date, datetime, timezone
from pathlib import Path

# criterion-6 generator in tests/test_acceptance.py: seed 0 reproduces it
BIG_CORPUS_SEED = 20260815
BIG_VOCAB = [f"w{i:05d}" for i in range(20000)]
CODED_TYPES = [
    "wristcel", "gymcel", "looksmaxxing", "heightmog",
    "ropefuel", "chadpreet", "normie", "incel",
]

FILLER_CONSONANTS = "bdghklnprtvz"
FILLER_VOWELS = "aiou"
FILLER_CODAS = ("", "", "", "k", "n", "r", "t")

MALFORMED_EVERY = 200  # one line in 200 is malformed
MALFORMED_KINDS = ("blank", "truncated", "missing_field", "wrong_type")

DISCOVER_POSTS = 20_000  # per corpus; target and background
ANNOTATE_POSTS = 20_000  # five chunks of the CLI's default 5000 lines
TRAJECTORY_USERS = 300
TRAJECTORY_WEEKS = 110
TRAJECTORY_START = date.fromisocalendar(2019, 40, 1)  # spans the 53-week 2020

# Known forms: raw spelling -> expected best parse as the CLI renders it,
# (slice, role, entry surface) per segment and the sorted categories.
KNOWN_FORMS = {
    "incel": ([("incel", "stem", "incel")], ["dehumanizing"], 1),
    "Incels": ([("incel", "stem", "incel")], ["dehumanizing"], 1),
    "Incelllll": ([("incel", "stem", "incel")], ["dehumanizing"], 1),
    "normies": ([("normie", "stem", "normie")], ["dehumanizing"], 1),
    "NORMIE": ([("normie", "stem", "normie")], ["dehumanizing"], 1),
    "stacyyy": ([("stacy", "stem", "stacy")], ["misogynistic"], 1),
    "Stacy": ([("stacy", "stem", "stacy")], ["misogynistic"], 1),
    "betabuxxing": ([("betabux", "stem", "betabux")], ["dehumanizing", "misogynistic"], 1),
    "toilets": ([("toilet", "stem", "toilet")], ["dehumanizing", "misogynistic"], 1),
    "cumskin": ([("cumskin", "stem", "cumskin")], ["dehumanizing", "racist"], 1),
    "JBW": ([("jbw", "stem", "jbw")], ["racist"], 1),
    "chadrone": ([("chadrone", "stem", "chadrone")], ["dehumanizing", "racist"], 1),
    "chaddam": ([("chaddam", "stem", "chaddam")], ["dehumanizing", "racist"], 1),
    "mogged": ([("mogg", "stem", "mog")], ["dehumanizing"], 2),
    "currycel": ([("curry", "stem", "curry"), ("cel", "suffix", "cel")], ["dehumanizing", "racist"], 2),
    "wristcel": ([("wrist", "stem", None), ("cel", "suffix", "cel")], ["dehumanizing"], 3),
    "gymcels": ([("gym", "stem", None), ("cel", "suffix", "cel")], ["dehumanizing"], 3),
    "looksmaxxing": ([("looks", "stem", None), ("maxx", "suffix", "maxx")], ["misogynistic"], 3),
    "heightmogg": ([("height", "stem", None), ("mogg", "suffix", "mog")], ["dehumanizing"], 3),
    "chadpreet": ([("chad", "prefix", "chad"), ("preet", "stem", None)], ["dehumanizing"], 3),
}

KNOWN_SPELLINGS = sorted(KNOWN_FORMS)

# Ordinary words shaped like coinages; the blocklist must keep them unmatched.
NEAR_MISSES = (
    "cancel", "Cancel", "cancels", "cancelled", "parcel", "parcels", "excel",
    "marcel", "chancel", "tercel", "climax", "minimax", "max", "Max",
    "biofuel", "synfuel", "jetfuel", "chador", "currycomb",
)

# Novel-coinage templates: (prefix, suffix slice, suffix entry, inflection, categories)
COINAGES = (
    ("", "cel", "cel", "", ["dehumanizing"]),
    ("", "cel", "cel", "s", ["dehumanizing"]),
    ("", "maxx", "maxx", "", ["misogynistic"]),
    ("", "maxx", "maxx", "ing", ["misogynistic"]),
    ("", "mog", "mog", "", ["dehumanizing"]),
    ("", "mogg", "mog", "ed", ["dehumanizing"]),
    ("", "fuel", "fuel", "", []),
    ("chad", "", "", "", ["dehumanizing"]),
    ("curry", "", "", "", ["dehumanizing", "racist"]),
)

SEPARATORS = (" ",) * 12 + (", ", ". ", "! ", " - ", " — ", "? ")


def filler_word(rng: random.Random, syllables: int) -> str:
    parts = [rng.choice(FILLER_CONSONANTS) + rng.choice(FILLER_VOWELS) for _ in range(syllables)]
    return "".join(parts) + rng.choice(FILLER_CODAS)


def big_corpus_record(i: int, rng: random.Random, vocab: list[str]) -> dict:
    """Post i of the criterion-6 corpus shape, drawing text from rng."""
    return {
        "id": f"p{i}",
        "user": f"u{i % 9973}",
        "forum": "f",
        "created_utc": 1577836800 + (i % 500000),
        "text": " ".join(rng.choices(vocab, k=rng.randint(5, 20))),
    }


def malformed_line(kind: str, n: int) -> str:
    if kind == "blank":
        return "   \n"
    full = json.dumps({"id": f"bad{n}", "user": "u0", "forum": "f", "created_utc": 0, "text": "zz"})
    if kind == "truncated":
        return full[: len(full) // 2] + "\n"
    if kind == "missing_field":
        return json.dumps({"id": f"bad{n}", "user": "u0", "forum": "f", "created_utc": 0}) + "\n"
    return json.dumps({"id": f"bad{n}", "user": "u0", "forum": "f", "created_utc": 0, "text": 7}) + "\n"


def write_with_malformed(path: Path, valid_lines, n_lines: int, rng: random.Random) -> int:
    """Write n_lines lines: valid lines in order, with malformed lines at
    rng-chosen positions. Returns the malformed count."""
    n_bad = n_lines // MALFORMED_EVERY
    bad_at = set(rng.sample(range(n_lines), n_bad))
    valid = iter(valid_lines)
    with open(path, "w", encoding="utf-8") as fh:
        for lineno in range(n_lines):
            if lineno in bad_at:
                fh.write(malformed_line(MALFORMED_KINDS[lineno % len(MALFORMED_KINDS)], lineno))
            else:
                fh.write(next(valid))
    return n_bad


def write_discover_words(workdir: Path, seed: int) -> dict:
    """Target: the criterion-6 corpus shape (seed 0 is byte-identical to a
    prefix of generate_big_corpus once malformed lines are dropped).
    Background: the same shape under another seed, without coded types."""
    target_rng = random.Random(BIG_CORPUS_SEED + seed)
    background_rng = random.Random(f"background-{seed}")
    target_vocab = BIG_VOCAB + CODED_TYPES
    n_lines = DISCOVER_POSTS + DISCOVER_POSTS // (MALFORMED_EVERY - 1)
    n_valid = n_lines - n_lines // MALFORMED_EVERY

    def lines(rng, vocab, counts):
        for i in range(n_valid):
            record = big_corpus_record(i, rng, vocab)
            counts.update(record["text"].split())
            yield json.dumps(record) + "\n"

    target_counts: Counter = Counter()
    background_counts: Counter = Counter()
    bad = write_with_malformed(
        workdir / "target.jsonl", lines(target_rng, target_vocab, target_counts),
        n_lines, random.Random(f"target-malformed-{seed}"),
    )
    bad += write_with_malformed(
        workdir / "background.jsonl", lines(background_rng, BIG_VOCAB, background_counts),
        n_lines, random.Random(f"background-malformed-{seed}"),
    )
    return {
        "workload": "discover-words",
        "seed": seed,
        "posts": 2 * n_valid,
        "malformed": bad,
        "target_counts": dict(target_counts),
        "background_counts": dict(background_counts),
        "coded_counts": {t: target_counts[t] for t in CODED_TYPES},
    }


def _segments(parts) -> list[dict]:
    return [{"slice": s, "role": r, "entry": e} for s, r, e in parts]


def _annotate_token(rng: random.Random, common: list[str]):
    """One token: (raw, planned span fields or None, kind)."""
    draw = rng.random()
    if draw < 0.08:
        raw = rng.choice(KNOWN_SPELLINGS)
        parts, cats, _ = KNOWN_FORMS[raw]
        return raw, (cats, _segments(parts)), "known"
    if draw < 0.14:
        prefix, suffix, entry, inflection, cats = rng.choice(COINAGES)
        stem = filler_word(rng, rng.randint(2, 3))
        raw = prefix + stem + suffix + inflection
        parts = [(prefix, "prefix", prefix)] if prefix else []
        parts.append((stem, "stem", None))
        if suffix:
            parts.append((suffix, "suffix", entry))
        return raw, (cats, _segments(parts)), "novel"
    if draw < 0.16:
        return rng.choice(NEAR_MISSES), None, "near_miss"
    if draw < 0.55:
        return rng.choice(common), None, "filler"
    return filler_word(rng, rng.randint(2, 4)), None, "filler"


def write_annotate_coded(workdir: Path, seed: int) -> dict:
    rng = random.Random(f"annotate-{seed}")
    common = [filler_word(rng, rng.randint(1, 3)) for _ in range(400)]
    n_lines = ANNOTATE_POSTS + ANNOTATE_POSTS // (MALFORMED_EVERY - 1)
    n_valid = n_lines - n_lines // MALFORMED_EVERY
    expected = []
    kinds: Counter = Counter()

    def lines():
        for i in range(n_valid):
            text = ""
            spans = []
            n_tokens = rng.randint(5, 40)
            for k in range(n_tokens):
                if k:
                    text += rng.choice(SEPARATORS)
                raw, planned, kind = _annotate_token(rng, common)
                kinds[kind] += 1
                if planned is not None:
                    cats, segments = planned
                    spans.append({
                        "start": len(text), "end": len(text) + len(raw), "term": raw,
                        "categories": cats, "segments": segments,
                    })
                text += raw
            pid = f"a{seed}-{i}"
            expected.append({"id": pid, "spans": spans, "token_count": n_tokens, "matched_count": len(spans)})
            record = {
                "id": pid, "user": f"u{rng.randrange(2000)}", "forum": "f",
                "created_utc": 1577836800 + rng.randrange(86400 * 365), "text": text,
            }
            yield json.dumps(record) + "\n"

    bad = write_with_malformed(
        workdir / "posts.jsonl", lines(), n_lines, random.Random(f"annotate-malformed-{seed}")
    )
    return {
        "workload": "annotate-coded",
        "seed": seed,
        "posts": n_valid,
        "malformed": bad,
        "token_kinds": dict(kinds),
        "expected": expected,
    }


TRAJECTORY_CODED = ("incel", "normies", "Stacy", "chadrone", "wristcel", "looksmaxxing", "heightmogg", "JBW")
PHASE_RATES = (0.0, 0.02, 0.05, 0.1, 0.2, 0.3)


def _week_plan(rng: random.Random) -> list[tuple[int, float, bool]]:
    """(week offset, match rate, first week after a planned break) per
    active week. Breaks are 4-10 absent weeks; inside a phase at most two
    weeks in a row are absent, so only the planned breaks are gaps."""
    plan = []
    week = rng.randrange(12)
    phases = 0
    while True:
        length = rng.randint(3, 9)
        if week + length > TRAJECTORY_WEEKS:
            break
        rate = rng.choice(PHASE_RATES)
        absent_run = 0
        for offset in range(length):
            active = offset in (0, length - 1) or absent_run == 2 or rng.random() < 0.75
            if active:
                plan.append((week + offset, rate, offset == 0 and phases > 0))
                absent_run = 0
            else:
                absent_run += 1
        phases += 1
        week += length + rng.randint(4, 10)
    return plan


def _rate(buckets) -> float:
    """Token-weighted match rate over (posts, tokens, matched) buckets."""
    tokens = sum(b[1] for b in buckets)
    return sum(b[2] for b in buckets) / tokens if tokens > 0 else 0.0


def write_trajectory_gaps(workdir: Path, seed: int) -> dict:
    rng = random.Random(f"trajectory-{seed}")
    vocab = sorted({filler_word(rng, rng.randint(1, 3)) for _ in range(300)})
    posts = []
    users = {}
    for u in range(TRAJECTORY_USERS):
        user = f"u{u:04d}"
        plan = _week_plan(rng)
        while not any(after_break for _, _, after_break in plan):
            plan = _week_plan(rng)
        labels = []
        buckets = []  # [posts, tokens, matched] per active week, in plan order
        for week, rate, _ in plan:
            day = date.fromordinal(TRAJECTORY_START.toordinal() + 7 * week)
            labels.append("%04d-W%02d" % day.isocalendar()[:2])
            start = int(datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp())
            bucket = [0, 0, 0]
            for _ in range(rng.randint(1, 3)):
                n_tokens = rng.randint(5, 30)
                words = []
                for _ in range(n_tokens):
                    if rng.random() < rate:
                        words.append(rng.choice(TRAJECTORY_CODED))
                        bucket[2] += 1
                    else:
                        words.append(rng.choice(vocab))
                bucket[0] += 1
                bucket[1] += n_tokens
                posts.append((start + rng.randrange(7 * 86400), user, " ".join(words)))
            buckets.append(bucket)
        gaps = []
        for i, (week, _, after_break) in enumerate(plan):
            if after_break:
                pre, post = _rate(buckets[:i]), _rate(buckets[i:])
                gaps.append([
                    user, labels[i - 1], labels[i], str(week - plan[i - 1][0] - 1),
                    f"{pre:.6f}", f"{post:.6f}", "" if pre == 0 else f"{post / pre:.6f}",
                ])
        users[user] = {
            "posts": sum(b[0] for b in buckets),
            "buckets": dict(zip(labels, buckets)),
            "gaps": gaps,
        }
    posts.sort()
    bad = write_with_malformed(
        workdir / "posts.jsonl",
        (
            json.dumps({"id": f"t{seed}-{i}", "user": user, "forum": "f", "created_utc": ts, "text": text}) + "\n"
            for i, (ts, user, text) in enumerate(posts)
        ),
        len(posts) + len(posts) // (MALFORMED_EVERY - 1),
        random.Random(f"trajectory-malformed-{seed}"),
    )
    return {
        "workload": "trajectory-gaps",
        "seed": seed,
        "posts": len(posts),
        "malformed": bad,
        "users": users,
    }


PRESETS = {
    "discover-words": write_discover_words,
    "annotate-coded": write_annotate_coded,
    "trajectory-gaps": write_trajectory_gaps,
}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's corpus files and truth.json into workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    truth = PRESETS[workload](workdir, seed)
    with open(workdir / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh)
    return truth
