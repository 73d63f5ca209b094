"""Streaming access to JSON Lines post archives and frequency counting.

Archives follow the common forum-dump convention: one JSON object per
line with id, user, forum, created_utc (epoch seconds, UTC), text, and
an optional parent_id. Unknown fields are ignored. Scans hold counts,
never the corpus, so memory tracks vocabulary size.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

from .lexicon import AFFIX_KINDS, Lexicon
from .morpho import Annotation, annotate_text, decompose, normalized_words, tokenize

DEFAULT_CHUNK_LINES = 5000


class PostFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Post:
    id: str
    user: str
    forum: str
    created_utc: int
    text: str
    parent_id: str | None = None


@dataclass
class ReadReport:
    """Tally kept by read_posts and the sharded scans."""

    lines: int = 0
    parsed: int = 0
    skipped: int = 0
    first_error: str | None = None

    def record_error(self, message: str) -> None:
        self.skipped += 1
        if self.first_error is None:
            self.first_error = message


def parse_post_record(record, line: int | None = None) -> Post:
    if not isinstance(record, dict):
        raise PostFormatError("record is not a JSON object", line)
    for name in ("id", "user", "forum", "created_utc", "text"):
        if name not in record:
            raise PostFormatError(f"missing required field {name!r}", line)
    for name in ("id", "user", "forum", "text"):
        if not isinstance(record[name], str):
            raise PostFormatError(f"field {name!r} must be a string", line)
    if not record["id"]:
        raise PostFormatError("field 'id' must be non-empty", line)
    created = record["created_utc"]
    # dumps store timestamps as int, float, or numeric string
    if isinstance(created, bool) or not isinstance(created, (int, float, str)):
        raise PostFormatError("field 'created_utc' must be an integer", line)
    try:
        as_float = float(created)
    except ValueError:
        raise PostFormatError("field 'created_utc' must be an integer", line) from None
    if not as_float.is_integer() or as_float < 0:
        raise PostFormatError("field 'created_utc' must be a non-negative integer", line)
    parent = record.get("parent_id")
    if parent is not None and not isinstance(parent, str):
        raise PostFormatError("field 'parent_id' must be a string when present", line)
    return Post(
        id=record["id"],
        user=record["user"],
        forum=record["forum"],
        created_utc=int(as_float),
        text=record["text"],
        parent_id=parent,
    )


def parse_post_line(raw: str | bytes, line: int | None = None) -> Post:
    """Parse one JSON Lines record; bytes are decoded strictly as UTF-8."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise PostFormatError("invalid UTF-8", line) from None
    text = raw.strip()
    if not text:
        raise PostFormatError("blank line", line)
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PostFormatError(f"invalid JSON ({exc.msg})", line) from None
    return parse_post_record(record, line)


def _as_lines(source: Path | str | Iterable[str | bytes]) -> Iterator[str | bytes]:
    """Split a source on "\\n" only, as JSON Lines does. A Path yields
    undecoded bytes, so invalid UTF-8 spoils one line, not the read."""
    if isinstance(source, Path):
        with source.open("rb") as handle:
            yield from handle
    elif isinstance(source, str):
        lines = source.split("\n")
        if lines[-1] == "":
            lines.pop()  # a final newline ends the last line, not a new one
        yield from lines
    else:
        yield from source


def read_posts(
    source: Path | str | Iterable[str | bytes],
    strictness: str = "skip",
    report: ReadReport | None = None,
) -> Iterator[Post]:
    """Yield posts in file order.

    skip mode drops malformed lines and tallies them in report; strict
    mode raises PostFormatError on the first bad line.
    """
    if strictness not in ("strict", "skip"):
        raise ValueError(f"strictness must be 'strict' or 'skip', got {strictness!r}")
    for lineno, raw in enumerate(_as_lines(source), start=1):
        if report is not None:
            report.lines += 1
        try:
            post = parse_post_line(raw, lineno)
        except PostFormatError as exc:
            if strictness == "strict":
                raise
            if report is not None:
                report.record_error(str(exc))
            continue
        if report is not None:
            report.parsed += 1
        yield post


@dataclass
class FrequencyTable:
    counts: dict[str, int] = field(default_factory=dict)
    total_tokens: int = 0
    doc_count: int = 0

    def canonical_json(self) -> str:
        """Stable serialization: key-sorted, no whitespace. Two tables with
        equal contents serialize byte-identically regardless of how they
        were accumulated."""
        return json.dumps(
            {"counts": self.counts, "doc_count": self.doc_count, "total_tokens": self.total_tokens},
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=False,
        )


def merge(a: FrequencyTable, b: FrequencyTable) -> FrequencyTable:
    counts = Counter(a.counts)
    counts.update(b.counts)
    return FrequencyTable(
        counts=dict(counts),
        total_tokens=a.total_tokens + b.total_tokens,
        doc_count=a.doc_count + b.doc_count,
    )


def build_frequency_table(posts: Iterable[Post]) -> FrequencyTable:
    """Count normalized token occurrences over a post stream."""
    counts: Counter[str] = Counter()
    total = 0
    docs = 0
    for post in posts:
        docs += 1
        words = normalized_words(post.text)
        counts.update(words)
        total += len(words)
    return FrequencyTable(counts=dict(counts), total_tokens=total, doc_count=docs)


def _count_affixes_in_text(
    text: str,
    lexicon: Lexicon,
    counts: Counter,
    cache: dict[tuple[str, bool], tuple[str, ...]],
) -> None:
    # An affix occurrence is any productive prefix/suffix entry referenced
    # by the token's best parse, keyed by canonical surface so variant
    # spellings ("mogg") count toward their entry ("mog").
    for tok in tokenize(text):
        key = (tok.normalized, tok.elongated)
        surfaces = cache.get(key)
        if surfaces is None:
            parses = decompose(tok.normalized, lexicon, elongated=tok.elongated)
            if parses:
                surfaces = tuple(
                    seg.entry.surface
                    for seg in parses[0].segments
                    if seg.entry is not None
                    and seg.entry.productive
                    and seg.entry.kind in AFFIX_KINDS
                )
            else:
                surfaces = ()
            cache[key] = surfaces
        counts.update(surfaces)


def build_affix_table(posts: Iterable[Post], lexicon: Lexicon) -> FrequencyTable:
    """Count productive-affix occurrences in best parses, keyed by surface."""
    counts: Counter[str] = Counter()
    cache: dict[tuple[str, bool], tuple[str, ...]] = {}
    docs = 0
    for post in posts:
        docs += 1
        _count_affixes_in_text(post.text, lexicon, counts, cache)
    return FrequencyTable(counts=dict(counts), total_tokens=sum(counts.values()), doc_count=docs)


def iso_week(created_utc: int) -> str:
    """ISO-8601 week label (UTC), e.g. 2020-W02."""
    moment = datetime.fromtimestamp(created_utc, tz=timezone.utc)
    year, week, _ = moment.isocalendar()
    return f"{year:04d}-W{week:02d}"


def week_index(label: str) -> int:
    """Monotone integer index of an ISO week label; consecutive weeks differ
    by exactly 1, across year boundaries too."""
    year, week = label.split("-W")
    return date.fromisocalendar(int(year), int(week), 1).toordinal() // 7


def bucket_posts(posts: Iterable[Post], by: str = "user"):
    """Group posts by user or by (user, ISO week), deterministically ordered.

    Materializes the groups; meant for desk-scale fixtures. Corpus-scale
    paths should aggregate counts with scan_usage instead of holding posts.
    """
    if by not in ("user", "user_week"):
        raise ValueError(f"by must be 'user' or 'user_week', got {by!r}")
    groups: dict = {}
    for post in posts:
        key = post.user if by == "user" else (post.user, iso_week(post.created_utc))
        groups.setdefault(key, []).append(post)
    return [(key, groups[key]) for key in sorted(groups)]


# ---------------------------------------------------------------------------
# Sharded scans. Line chunks fan out to worker processes; results merge with
# associative operations, so output is identical for any worker count.

_worker_lexicon: Lexicon | None = None
_worker_strict: bool = False
_worker_cache: dict = {}


def _init_worker(lexicon: Lexicon | None, strict: bool) -> None:
    global _worker_lexicon, _worker_strict, _worker_cache
    _worker_lexicon = lexicon
    _worker_strict = strict
    _worker_cache = {}


def _chunk_posts(chunk: tuple[int, list[str]]) -> tuple[list[Post], int, int, str | None]:
    start, lines = chunk
    posts = []
    skipped = 0
    first_error = None
    for offset, raw in enumerate(lines):
        try:
            posts.append(parse_post_line(raw, start + offset))
        except PostFormatError as exc:
            if _worker_strict:
                raise
            skipped += 1
            if first_error is None:
                first_error = str(exc)
    return posts, len(lines), skipped, first_error


def _scan_words_chunk(chunk) -> tuple[FrequencyTable, int, int, str | None]:
    posts, lines, skipped, first_error = _chunk_posts(chunk)
    return build_frequency_table(posts), lines, skipped, first_error


def _scan_affixes_chunk(chunk) -> tuple[FrequencyTable, int, int, str | None]:
    posts, lines, skipped, first_error = _chunk_posts(chunk)
    counts: Counter[str] = Counter()
    for post in posts:
        _count_affixes_in_text(post.text, _worker_lexicon, counts, _worker_cache)
    table = FrequencyTable(dict(counts), sum(counts.values()), len(posts))
    return table, lines, skipped, first_error


def _scan_usage_chunk(chunk) -> tuple[dict, int, int, str | None]:
    posts, lines, skipped, first_error = _chunk_posts(chunk)
    usage: dict[tuple[str, str], list[int]] = {}
    for post in posts:
        ann = annotate_text(post.id, post.text, _worker_lexicon, _worker_cache)
        cell = usage.setdefault((post.user, iso_week(post.created_utc)), [0, 0, 0])
        cell[0] += 1
        cell[1] += ann.token_count
        cell[2] += ann.matched_count
    return usage, lines, skipped, first_error


def _scan_annotate_chunk(chunk) -> tuple[list[Annotation], int, int, str | None]:
    posts, lines, skipped, first_error = _chunk_posts(chunk)
    anns = [annotate_text(p.id, p.text, _worker_lexicon, _worker_cache) for p in posts]
    return anns, lines, skipped, first_error


def _chunks(source, chunk_lines: int) -> Iterator[tuple[int, list[str]]]:
    batch: list[str] = []
    start = 1
    lineno = 0
    for lineno, raw in enumerate(_as_lines(source), start=1):
        batch.append(raw)
        if len(batch) >= chunk_lines:
            yield start, batch
            batch = []
            start = lineno + 1
    if batch:
        yield start, batch


def _map_chunks(
    source,
    chunk_fn,
    lexicon: Lexicon | None,
    workers: int,
    strictness: str,
    chunk_lines: int,
) -> Iterator[tuple]:
    """Run chunk_fn over line chunks, yielding results in input order.

    In-flight futures are capped so the parent never buffers more than a
    bounded window of lines regardless of corpus size.
    """
    if strictness not in ("strict", "skip"):
        raise ValueError(f"strictness must be 'strict' or 'skip', got {strictness!r}")
    strict = strictness == "strict"
    chunks = _chunks(source, chunk_lines)
    if workers <= 1:
        _init_worker(lexicon, strict)
        for chunk in chunks:
            yield chunk_fn(chunk)
        return
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(lexicon, strict)
    ) as pool:
        window = workers * 3
        pending: deque = deque()
        for chunk in chunks:
            pending.append(pool.submit(chunk_fn, chunk))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _tally(report: ReadReport | None, lines: int, skipped: int, first_error: str | None) -> None:
    if report is None:
        return
    report.lines += lines
    report.parsed += lines - skipped
    report.skipped += skipped
    if report.first_error is None and first_error is not None:
        report.first_error = first_error


def _fold_tables(parts: Iterator[tuple], report: ReadReport | None) -> FrequencyTable:
    """Fold chunk tables into one Counter in place; merge() would copy the
    whole accumulated table for every chunk."""
    counts: Counter[str] = Counter()
    total = docs = 0
    for part, lines, skipped, first_error in parts:
        counts.update(part.counts)
        total += part.total_tokens
        docs += part.doc_count
        _tally(report, lines, skipped, first_error)
    return FrequencyTable(counts=dict(counts), total_tokens=total, doc_count=docs)


def scan_frequency_table(
    source,
    *,
    workers: int = 1,
    strictness: str = "skip",
    report: ReadReport | None = None,
    chunk_lines: int = DEFAULT_CHUNK_LINES,
) -> FrequencyTable:
    return _fold_tables(
        _map_chunks(source, _scan_words_chunk, None, workers, strictness, chunk_lines), report
    )


def scan_affix_table(
    source,
    lexicon: Lexicon,
    *,
    workers: int = 1,
    strictness: str = "skip",
    report: ReadReport | None = None,
    chunk_lines: int = DEFAULT_CHUNK_LINES,
) -> FrequencyTable:
    return _fold_tables(
        _map_chunks(source, _scan_affixes_chunk, lexicon, workers, strictness, chunk_lines), report
    )


def scan_usage(
    source,
    lexicon: Lexicon,
    *,
    workers: int = 1,
    strictness: str = "skip",
    report: ReadReport | None = None,
    chunk_lines: int = DEFAULT_CHUNK_LINES,
) -> dict[tuple[str, str], tuple[int, int, int]]:
    """Aggregate (user, iso_week) -> (posts, tokens, matched) over a corpus."""
    usage: dict[tuple[str, str], list[int]] = {}
    for part, lines, skipped, first_error in _map_chunks(
        source, _scan_usage_chunk, lexicon, workers, strictness, chunk_lines
    ):
        for key, (n_posts, n_tokens, n_matched) in part.items():
            cell = usage.setdefault(key, [0, 0, 0])
            cell[0] += n_posts
            cell[1] += n_tokens
            cell[2] += n_matched
        _tally(report, lines, skipped, first_error)
    return {key: tuple(cell) for key, cell in usage.items()}


def scan_annotations(
    source,
    lexicon: Lexicon,
    *,
    workers: int = 1,
    strictness: str = "skip",
    report: ReadReport | None = None,
    chunk_lines: int = DEFAULT_CHUNK_LINES,
) -> Iterator[Annotation]:
    """Annotate a corpus, yielding annotations in input order."""
    for anns, lines, skipped, first_error in _map_chunks(
        source, _scan_annotate_chunk, lexicon, workers, strictness, chunk_lines
    ):
        _tally(report, lines, skipped, first_error)
        yield from anns
