"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a PASS or FAIL line so a verbose run reads as a
checklist. Tolerances are pinned next to the asserts they guard.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import resource
import time
from fractions import Fraction

import pytest

from cryptolex import (
    CATEGORIES,
    annotate_text,
    category_stats,
    decompose,
    detect_gaps,
    log_ratio_rank,
    normalize_token,
    scan_frequency_table,
    tokenize,
    usage_series,
)
from cryptolex.corpus import FrequencyTable, read_posts

from conftest import make_post, reconstruct, week_ts, write_jsonl


@contextlib.contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


# --- 1. golden segmentations ------------------------------------------------

CEL_STEMS = [
    "rice", "burger", "sand", "wrist", "gym", "taco", "bean", "sushi",
    "kimchi", "chollo", "burrito", "churro", "spic", "highlandpark",
]

GOLDEN = {
    "looksmaxxing": ([("looks", "stem"), ("maxx", "suffix")], "ing", False),
    "statusmaxxing": ([("status", "stem"), ("maxx", "suffix")], "ing", False),
    "cuckmaxxing": ([("cuck", "stem"), ("maxx", "suffix")], "ing", False),
    "betabuxxing": ([("betabux", "stem")], "ing", True),
    "ricecels": ([("rice", "stem"), ("cel", "suffix")], "s", False),
    "currycel": ([("curry", "stem"), ("cel", "suffix")], "", False),
    "heightmog": ([("height", "stem"), ("mog", "suffix")], "", False),
    "skullmog": ([("skull", "stem"), ("mog", "suffix")], "", False),
    "heightmogged": ([("height", "stem"), ("mogg", "suffix")], "ed", False),
    "dolphmogged": ([("dolph", "stem"), ("mogg", "suffix")], "ed", False),
    "deppmogged": ([("depp", "stem"), ("mogg", "suffix")], "ed", False),
    "chadpreet": ([("chad", "prefix"), ("preet", "stem")], "", False),
}
GOLDEN.update(
    {f"{stem}cel": ([(stem, "stem"), ("cel", "suffix")], "", False) for stem in CEL_STEMS}
)
BLENDS = ["chaddam", "chadrone", "chadriquez"]


def test_criterion_1_golden_parse_table(seed_lexicon):
    with verdict("criterion 1: golden parse table, 100% top-parse match under 1 s"):
        started = time.perf_counter()
        for token, (segments, inflection, dedoubled) in GOLDEN.items():
            parses = decompose(token, seed_lexicon)
            assert parses, token
            top = parses[0]
            assert [(s.slice, s.role) for s in top.segments] == segments, token
            assert top.inflection == inflection, token
            assert top.dedoubled == dedoubled, token
        for blend in BLENDS:
            top = decompose(blend, seed_lexicon)[0]
            assert top.specificity == 1, blend
            (seg,) = top.segments
            assert seg.entry.kind == "lexicalized_blend", blend
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


# --- 2. negative controls ---------------------------------------------------

CONTROLS = ["redpilled", "cancel", "parcel", "excel", "marcel", "table", "complete"]


def test_criterion_2_negative_controls(seed_lexicon):
    with verdict("criterion 2: negative controls produce zero spans"):
        for word in CONTROLS:
            assert decompose(word, seed_lexicon) == [], word
            for variant in (word, word.upper(), word.capitalize()):
                ann = annotate_text("ctl", f"they {variant} often", seed_lexicon)
                assert ann.spans == (), variant


# --- 3. worked message ------------------------------------------------------

MESSAGE = (
    "Finally, a cumskin acknowledges that JBW is a thing though the guy in "
    "the video is most definitely betabuxxing or cuckmaxxing bc toilets "
    "don't voluntarily go for n*****s."
)
EXPECTED_TERMS = ["cumskin", "JBW", "betabuxxing", "cuckmaxxing", "toilets"]


def test_criterion_3_worked_message(seed_lexicon):
    with verdict("criterion 3: worked message matches exactly its five coded terms"):
        ann = annotate_text("m1", MESSAGE, seed_lexicon)
        assert [s.term for s in ann.spans] == EXPECTED_TERMS
        for span in ann.spans:
            want_start = MESSAGE.index(span.term)
            assert (span.start, span.end) == (want_start, want_start + len(span.term))
            assert MESSAGE[span.start : span.end] == span.term


# --- 4. category percentages ------------------------------------------------


def test_criterion_4_category_percentages(coded_lexicon):
    with verdict("criterion 4: 46/17/17 coding reports 71.8/26.6/26.6 within 0.1 pp"):
        stats = category_stats(coded_lexicon)
        assert stats.total == 64
        targets = {"dehumanizing": 71.8, "racist": 26.6, "misogynistic": 26.6}
        for category, target in targets.items():
            got = stats.percentages[category]
            assert abs(got - target) <= 0.1 + 1e-9, (category, got)


# --- 5. log-ratio arithmetic -------------------------------------------------


def oracle_log_ratio(c_t, n_t, c_b, n_b, vocab, alpha):
    """Exact-fraction reference: log2 of the ratio of smoothed frequencies."""
    a = Fraction(alpha)
    p_t = (c_t + a) / (n_t + a * vocab)
    p_b = (c_b + a) / (n_b + a * vocab)
    ratio = p_t / p_b
    return math.log2(ratio.numerator) - math.log2(ratio.denominator)


def random_table(rng, vocab):
    counts = {t: rng.randint(1, 50) for t in vocab if rng.random() < 0.8}
    if not counts:
        counts = {vocab[0]: 1}
    return FrequencyTable(counts=counts, total_tokens=sum(counts.values()), doc_count=1)


def test_criterion_5_log_ratio_against_oracle():
    with verdict("criterion 5: log ratios match an exact-arithmetic oracle to 1e-12"):
        rng = random.Random(1702)
        for trial in range(100):
            vocab = [f"t{i}" for i in range(rng.randint(3, 25))]
            target = random_table(rng, vocab)
            background = random_table(rng, vocab)
            union = len(set(target.counts) | set(background.counts))
            rows = log_ratio_rank(target, background, alpha=0.5, min_count=1)
            assert rows
            for row in rows:
                want = oracle_log_ratio(
                    row.target_count, target.total_tokens,
                    row.background_count, background.total_tokens,
                    union, 0.5,
                )
                assert math.isclose(row.log_ratio, want, rel_tol=1e-12, abs_tol=1e-12), row

            # identical corpora: every ratio is exactly zero
            for row in log_ratio_rank(target, target, alpha=0.5, min_count=1):
                assert row.log_ratio == 0.0

            # swapping the corpora negates every shared candidate
            forward = {r.token: r.log_ratio for r in rows}
            backward = {
                r.token: r.log_ratio
                for r in log_ratio_rank(background, target, alpha=0.5, min_count=1)
            }
            for token in forward.keys() & backward.keys():
                assert math.isclose(
                    forward[token], -backward[token], rel_tol=1e-12, abs_tol=1e-12
                )

        # alpha=0 on fully covered tables is scale invariant, bit for bit
        vocab = [f"t{i}" for i in range(12)]
        base_t = {t: rng.randint(1, 9) for t in vocab}
        base_b = {t: rng.randint(1, 9) for t in vocab}
        for scale in (7, 1000):
            small_rows = log_ratio_rank(
                FrequencyTable(base_t, sum(base_t.values()), 1),
                FrequencyTable(base_b, sum(base_b.values()), 1),
                alpha=0.0, min_count=1,
            )
            big_rows = log_ratio_rank(
                FrequencyTable({t: c * scale for t, c in base_t.items()}, sum(base_t.values()) * scale, 1),
                FrequencyTable({t: c * scale for t, c in base_b.items()}, sum(base_b.values()) * scale, 1),
                alpha=0.0, min_count=1,
            )
            assert [(r.token, r.log_ratio) for r in small_rows] == [
                (r.token, r.log_ratio) for r in big_rows
            ]


# --- 6. sharded scans at scale ----------------------------------------------


def generate_big_corpus(path, n_posts=1_000_000):
    rng = random.Random(20260815)
    vocab = [f"w{i:05d}" for i in range(20000)] + [
        "wristcel", "gymcel", "looksmaxxing", "heightmog",
        "ropefuel", "chadpreet", "normie", "incel",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_posts):
            record = {
                "id": f"p{i}",
                "user": f"u{i % 9973}",
                "forum": "f",
                "created_utc": 1577836800 + (i % 500000),
                "text": " ".join(rng.choices(vocab, k=rng.randint(5, 20))),
            }
            fh.write(json.dumps(record) + "\n")


def test_criterion_6_sharded_scan_equality(tmp_path_factory):
    label = (
        "criterion 6: 1M-post scans are byte-identical for 1/2/8 workers, "
        "under 600 s and a 128 MiB ceiling"
    )
    with verdict(label):
        path = tmp_path_factory.mktemp("big") / "corpus.jsonl"
        generate_big_corpus(path)
        assert path.stat().st_size > 100 * 2**20  # the ceiling must undercut the input

        rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        blobs = {}
        for workers in (1, 2, 8):
            started = time.perf_counter()
            table = scan_frequency_table(path, workers=workers)
            elapsed = time.perf_counter() - started
            assert elapsed < 600, f"workers={workers} took {elapsed:.0f} s"
            blobs[workers] = table.canonical_json().encode("utf-8")
            assert table.doc_count == 1_000_000
        rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        assert blobs[1] == blobs[2] == blobs[8]
        grown_mib = (rss_after - rss_before) / 1024
        assert grown_mib < 128, f"resident set grew {grown_mib:.0f} MiB"


# --- 7. trajectory fixtures ---------------------------------------------------

SCRIPT = {
    (2019, 50): (2, 30, 3),
    (2019, 52): (1, 10, 0),
    (2020, 1): (3, 45, 9),
    (2020, 2): (1, 8, 2),
    (2020, 4): (2, 20, 5),
    (2020, 6): (1, 12, 6),
    (2020, 8): (1, 10, 1),
    (2020, 9): (2, 16, 4),
}


def scripted_posts(script, user="scripted"):
    """Posts whose token and match counts reproduce the script exactly.

    "incel" is the matched token, "word" the filler.
    """
    rows = []
    for (year, week), (n_posts, n_tokens, n_matched) in script.items():
        per_post_tokens = [n_tokens // n_posts] * n_posts
        per_post_tokens[-1] += n_tokens - sum(per_post_tokens)
        per_post_matched = [0] * n_posts
        remaining = n_matched
        for i in range(n_posts):
            take = min(remaining, per_post_tokens[i])
            per_post_matched[i] = take
            remaining -= take
        assert remaining == 0
        for i, (t, m) in enumerate(zip(per_post_tokens, per_post_matched)):
            text = " ".join(["incel"] * m + ["word"] * (t - m))
            rows.append(
                make_post(f"{year}w{week}p{i}", user, week_ts(year, week, day=2 + i % 5), text)
            )
    return rows


def test_criterion_7_trajectory_fixtures(seed_lexicon, tmp_path):
    with verdict("criterion 7: scripted weekly series exact; rejoin escalation 4.0"):
        path = write_jsonl(tmp_path / "scripted.jsonl", scripted_posts(SCRIPT))
        series = usage_series(read_posts(path), seed_lexicon)
        got = {
            b.iso_week: (b.posts, b.tokens, b.matched, b.rate) for b in series.buckets
        }
        want = {
            f"{year}-W{week:02d}": (p, t, m, m / t)
            for (year, week), (p, t, m) in SCRIPT.items()
        }
        assert got == want
        assert len(series.buckets) == 8

        rejoin = {(2020, w): (1, 100, 5) for w in (1, 2, 3)}
        rejoin.update({(2020, w): (1, 100, 20) for w in (10, 11, 12)})
        posts = read_posts(write_jsonl(tmp_path / "rejoin.jsonl", scripted_posts(rejoin)))
        report = detect_gaps(usage_series(posts, seed_lexicon), min_gap_weeks=4)
        (gap,) = report.gaps
        assert gap.last_active_week == "2020-W03"
        assert gap.next_active_week == "2020-W10"
        assert gap.gap_weeks == 6
        assert abs(gap.pre_rate - 0.05) <= 1e-12
        assert abs(gap.post_rate - 0.20) <= 1e-12
        assert abs(gap.escalation - 4.0) <= 1e-9


# --- 8. fuzz invariants -------------------------------------------------------

AFFIX_SURFACES = ["cel", "maxx", "mog", "fuel"]
PREFIX_SURFACES = ["chad", "curry"]


def fuzz_token(rng):
    stem = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(1, 10)))
    shape = rng.random()
    if shape < 0.35:
        token = stem
    elif shape < 0.6:
        token = stem + rng.choice(AFFIX_SURFACES)
    elif shape < 0.75:
        token = rng.choice(PREFIX_SURFACES) + stem
    else:
        token = rng.choice(PREFIX_SURFACES) + stem + rng.choice(AFFIX_SURFACES)
    if rng.random() < 0.4:
        token += rng.choice(["s", "es", "ed", "ing"])
    if rng.random() < 0.15 and token:
        at = rng.randrange(len(token))
        token = token[:at] + token[at] * rng.randint(2, 5) + token[at:]
    if rng.random() < 0.1:
        token = token.upper()
    return token


def squeeze(form):
    out = []
    for ch in form:
        if not out or out[-1] != ch:
            out.append(ch)
    return "".join(out)


def test_criterion_8_fuzz_invariants(seed_lexicon):
    with verdict("criterion 8: 10k-token fuzz, zero parse or span violations"):
        rng = random.Random(99173)
        violations = 0
        tokens = [fuzz_token(rng) for _ in range(10_000)]

        for raw in tokens:
            normalized, elongated = normalize_token(raw)
            for parse in decompose(normalized, seed_lexicon, elongated=elongated):
                if reconstruct(parse) != parse.token:
                    violations += 1
                if parse.token not in (normalized, squeeze(normalized)):
                    violations += 1
                if parse.specificity not in (1, 2, 3):
                    violations += 1
                if not parse.segments:
                    violations += 1

        for start in range(0, len(tokens), 20):
            text = ""
            for token in tokens[start : start + 20]:
                text += token + rng.choice([" ", ", ", "! ", "  "])
            ann = annotate_text("fuzz", text, seed_lexicon)
            last_end = -1
            for span in ann.spans:
                if not (0 <= span.start < span.end <= len(text)):
                    violations += 1
                if text[span.start : span.end] != span.term:
                    violations += 1
                if span.start <= last_end:
                    violations += 1
                last_end = span.end
                if not span.categories <= frozenset(CATEGORIES):
                    violations += 1
            if ann.matched_count != len(ann.spans):
                violations += 1
            if ann.token_count != len(tokenize(text)):
                violations += 1
            if ann.matched_count > ann.token_count:
                violations += 1

        assert violations == 0
