from __future__ import annotations

import csv
import dataclasses
import io
import json
import re
from datetime import date, datetime, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import strategies as st

from cryptolex import (
    Lexicon,
    LexiconEntry,
    corpus,
    decompose,
    iso_week,
    load_seed_lexicon,
    morpho,
    tokenize,
)
from cryptolex.lexicon import AFFIX_KINDS, TSV_COLUMNS, read_lines
from cryptolex.morpho import Annotation, Parse, Span

# definitions mixing in every character str.splitlines breaks a line on
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
definitions = st.text() | st.text(alphabet=LINE_BREAKS + "a\t ")

# lines json.loads rejects without a JSONDecodeError: an integer past
# int()'s digit limit (a plain ValueError) and nesting past the recursion
# limit (a RecursionError). BEYOND_JSON_PARSER pairs each with the reason a
# JSON Lines reader gives.
LONG_INTEGER_LINE = '{"n": ' + "1" * 5000 + "}"
DEEP_NESTING_LINE = "[" * 100_000
BEYOND_JSON_PARSER = [
    pytest.param(LONG_INTEGER_LINE, "integer too long", id="long-integer"),
    pytest.param(DEEP_NESTING_LINE, "nested too deeply", id="deep-nesting"),
]


def chunk_lines(n: int):
    """A context in which scans read their sources in chunks of n lines.
    A scan reads the size when its first chunk is read, so a lazy scan must
    be consumed inside the context. A context manager, not a fixture, so
    that hypothesis tests can use it per example."""
    return mock.patch.object(corpus, "CHUNK_LINES", n)


def memo_limit(n: int):
    """A context in which a best-parse memo holds at most n words. A pool
    started by fork inherits the limit; one started by spawn or forkserver
    keeps the module's own."""
    return mock.patch.object(morpho, "MEMO_LIMIT", n)


def reference_annotation(text: str, lexicon: Lexicon, post_id: str = "p") -> Annotation:
    """annotate_text built only from the reference tokenize and decompose:
    one Token per word and no memo."""
    tokens = tokenize(text)
    spans = []
    for tok in tokens:
        parses = decompose(tok.normalized, lexicon, elongated=tok.elongated)
        if parses:
            best = parses[0]
            categories = frozenset(
                c for seg in best.segments if seg.entry for c in seg.entry.categories
            )
            spans.append(Span(tok.start, tok.end, tok.raw, categories, best))
    return Annotation(post_id, tuple(spans), len(tokens), len(spans))


def reconstruct(parse: Parse) -> str:
    """Reassemble a parse from its segments, inflection and dedoubling;
    equals parse.token for every parse decompose emits."""
    body = "".join(seg.slice for seg in parse.segments)
    if parse.dedoubled:
        body += body[-1]
    return body + parse.inflection


def productive_affixes(text: str, lexicon: Lexicon) -> list[str]:
    """The productive affixes in the best parses of reference_annotation,
    which the affix scan counts."""
    return [
        seg.entry.surface
        for span in reference_annotation(text, lexicon).spans
        for seg in span.parse.segments
        if seg.entry is not None and seg.entry.productive and seg.entry.kind in AFFIX_KINDS
    ]


def reference_usage(posts, lexicon: Lexicon) -> dict:
    """The usage scan's cells, (user, week) -> (posts, tokens, matched),
    from reference_annotation over the posts."""
    usage: dict = {}
    for post in posts:
        ann = reference_annotation(post.text, lexicon, post.id)
        key = (post.user, iso_week(post.created_utc))
        n_posts, n_tokens, n_matched = usage.get(key, (0, 0, 0))
        usage[key] = (n_posts + 1, n_tokens + ann.token_count, n_matched + ann.matched_count)
    return usage


def lexicon_jsonl(entries) -> str:
    """Lexicon JSON Lines text, one record per entry with every field, as a
    coder writes the rows kept from a review sheet."""
    records = ({**dataclasses.asdict(e), "categories": sorted(e.categories)} for e in entries)
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)


def tsv_rows(text: str) -> list[dict[str, str]]:
    """export_tsv text read back as a spreadsheet reads it: one row per line
    under the TSV_COLUMNS header, one cell per tab-separated column."""
    header, *lines = read_lines(text)
    assert tuple(header.split("\t")) == TSV_COLUMNS
    return [dict(zip(TSV_COLUMNS, line.split("\t"), strict=True)) for line in lines]


def assert_tsv_rows(text: str, entries) -> None:
    """Each row of export_tsv text holds its entry's fields but source, with
    tabs and line breaks in the definition turned to spaces."""
    rows = tsv_rows(text)
    assert len(rows) == len(entries)
    for row, e in zip(rows, entries):
        assert row == {
            "surface": e.surface,
            "kind": e.kind,
            "productive": "true" if e.productive else "false",
            "categories": ",".join(sorted(e.categories)),
            "variants": ",".join(e.variants),
            "definition": re.sub(r"[\t\r\n]", " ", e.definition),
        }


# export_series' columns after "user", by record kind, and the ones holding rates
SERIES_FIELDS = ("iso_week", "posts", "tokens", "matched", "rate")
GAP_FIELDS = (
    "last_active_week", "next_active_week", "gap_weeks", "pre_rate", "post_rate", "escalation"
)
RATE_FIELDS = {"rate", "pre_rate", "post_rate", "escalation"}


def reference_export(items: list, format: str) -> str:
    """export_series over a list of series or of gap reports, each record
    read field by field by name: a rate to six decimals (f"{v:.6f}" in csv,
    round(v, 6) in jsonl), None as an empty cell or null."""
    gaps = hasattr(items[0], "gaps")
    names = GAP_FIELDS if gaps else SERIES_FIELDS
    rows = []
    for item in items:
        for record in item.gaps if gaps else item.buckets:
            row = {"user": item.user}
            for name in names:
                value = getattr(record, name)
                if name in RATE_FIELDS and value is not None:
                    value = f"{value:.6f}" if format == "csv" else round(value, 6)
                row[name] = value
            rows.append(row)
    if format == "jsonl":
        return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["user", *names])
    writer.writerows([["" if v is None else v for v in row.values()] for row in rows])
    return buffer.getvalue()


def week_ts(year: int, week: int, day: int = 3, hour: int = 12) -> int:
    """Unix timestamp inside the given ISO week (UTC)."""
    d = date.fromisocalendar(year, week, day)
    return int(datetime(d.year, d.month, d.day, hour, tzinfo=timezone.utc).timestamp())


def make_post(pid: str, user: str, created_utc: int, text: str, forum: str = "f") -> dict:
    return {"id": pid, "user": user, "forum": forum, "created_utc": created_utc, "text": text}


def write_jsonl(path: Path, rows: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path


@pytest.fixture(scope="session")
def seed_lexicon() -> Lexicon:
    return load_seed_lexicon()


@pytest.fixture(scope="session")
def coded_lexicon() -> Lexicon:
    """64 coded entries: 46 dehumanizing, 17 racist, 17 misogynistic.

    The category totals overlap on the first 16 entries so each surface
    carries at least one code.
    """
    entries = []
    for i in range(1, 65):
        if i <= 16:
            cats = {"dehumanizing", "racist"}
        elif i == 17:
            cats = {"racist"}
        elif i <= 47:
            cats = {"dehumanizing"}
        else:
            cats = {"misogynistic"}
        entries.append(
            LexiconEntry(surface=f"term{i:02d}", kind="root", categories=frozenset(cats))
        )
    return Lexicon(entries)
