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
from typing import Callable, Hashable, Iterable, Iterator

from .lexicon import AFFIX_KINDS, Lexicon
from .morpho import Annotation, annotate_text, annotation_json, match_counts, normalized_words

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

    def add(self, later: ReadReport) -> None:
        """Fold in the tally of the input that follows this one."""
        self.lines += later.lines
        self.parsed += later.parsed
        self.skipped += later.skipped
        if self.first_error is None:
            self.first_error = later.first_error


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


def _is_strict(strictness: str) -> bool:
    if strictness not in ("strict", "skip"):
        raise ValueError(f"strictness must be 'strict' or 'skip', got {strictness!r}")
    return strictness == "strict"


def _parse_lines(
    numbered: Iterable[tuple[int, str | bytes]], strict: bool, report: ReadReport
) -> Iterator[Post]:
    """The one skip/strict parser over (line number, raw line) pairs: skip
    mode tallies and drops malformed lines, strict mode raises on the first."""
    for lineno, raw in numbered:
        report.lines += 1
        try:
            post = parse_post_line(raw, lineno)
        except PostFormatError as exc:
            if strict:
                raise
            report.record_error(str(exc))
            continue
        report.parsed += 1
        yield post


def read_posts(
    source: Path | str | Iterable[str | bytes],
    strictness: str = "skip",
    report: ReadReport | None = None,
) -> Iterator[Post]:
    """Yield posts in file order.

    skip mode drops malformed lines and tallies them in report; strict
    mode raises PostFormatError on the first bad line.
    """
    strict = _is_strict(strictness)  # checked at the call, not on the first next()
    report = ReadReport() if report is None else report
    return _parse_lines(enumerate(_as_lines(source), start=1), strict, report)


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


def _affix_table(posts: Iterable[Post], lexicon: Lexicon, cache: dict) -> FrequencyTable:
    # An affix occurrence is any productive prefix/suffix entry referenced
    # by the token's best parse, keyed by canonical surface so variant
    # spellings ("mogg") count toward their entry ("mog").
    counts: Counter[str] = Counter()
    docs = 0
    for post in posts:
        docs += 1
        for span in annotate_text(post.id, post.text, lexicon, cache).spans:
            counts.update(
                seg.entry.surface
                for seg in span.parse.segments
                if seg.entry is not None and seg.entry.productive and seg.entry.kind in AFFIX_KINDS
            )
    return FrequencyTable(counts=dict(counts), total_tokens=sum(counts.values()), doc_count=docs)


def build_affix_table(posts: Iterable[Post], lexicon: Lexicon) -> FrequencyTable:
    """Count productive-affix occurrences in best parses, keyed by surface."""
    return _affix_table(posts, lexicon, {})


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


def fold_usage(
    posts: Iterable[Post], lexicon: Lexicon, cache: dict, key: Callable[[Post], Hashable]
) -> dict:
    """Sum [posts, tokens, matched] per key(post), counting through cache."""
    usage: dict = {}
    for post in posts:
        cell = usage.setdefault(key(post), [0, 0, 0])
        tokens, matched = match_counts(post.text, lexicon, cache)
        cell[0] += 1
        cell[1] += tokens
        cell[2] += matched
    return usage


# ---------------------------------------------------------------------------
# Sharded scans. Line chunks fan out to worker processes; each chunk
# function returns (part, ReadReport) for its chunk, and parts merge with
# associative operations, so output is identical for any worker count.

@dataclass(frozen=True)
class _ScanState:
    """What a scan's chunk functions read: its lexicon, its strictness and
    its parse cache, one value per scan."""

    lexicon: Lexicon | None
    strict: bool
    cache: dict = field(default_factory=dict)


_state: _ScanState | None = None


def _init_worker(state: _ScanState | None) -> None:
    global _state
    _state = state


def _chunk_posts(chunk: tuple[int, list[str | bytes]], report: ReadReport) -> list[Post]:
    # parsed up front: interleaving parsing with annotation measured about
    # 7% slower for CLI annotate at 2 workers on a 2-core machine
    start, lines = chunk
    return list(_parse_lines(enumerate(lines, start), _state.strict, report))


def _user_week(post: Post) -> tuple[str, str]:
    return post.user, iso_week(post.created_utc)


def _scan_words_chunk(chunk) -> tuple[FrequencyTable, ReadReport]:
    report = ReadReport()
    return build_frequency_table(_chunk_posts(chunk, report)), report


def _scan_affixes_chunk(chunk) -> tuple[FrequencyTable, ReadReport]:
    report = ReadReport()
    return _affix_table(_chunk_posts(chunk, report), _state.lexicon, _state.cache), report


def _scan_usage_chunk(chunk) -> tuple[dict, ReadReport]:
    report = ReadReport()
    posts = _chunk_posts(chunk, report)
    return fold_usage(posts, _state.lexicon, _state.cache, _user_week), report


def _annotate_posts(chunk, report: ReadReport) -> Iterator[Annotation]:
    """The one per-post annotate body of both annotation scans."""
    for post in _chunk_posts(chunk, report):
        yield annotate_text(post.id, post.text, _state.lexicon, _state.cache)


def _scan_annotations_chunk(chunk) -> tuple[list[Annotation], ReadReport]:
    report = ReadReport()
    return list(_annotate_posts(chunk, report)), report


def _scan_annotate_chunk(chunk) -> tuple[tuple[str, int, int, int], ReadReport]:
    # rendered in the worker, so the parent only writes text: unpickling and
    # rendering an Annotation per post kept the parent as busy as a worker.
    # perfbench/tracing.py wraps this name and the module's annotate_text.
    report = ReadReport()
    lines = []
    tokens = matched = 0
    for ann in _annotate_posts(chunk, report):
        lines.append(annotation_json(ann) + "\n")
        tokens += ann.token_count
        matched += ann.matched_count
    return ("".join(lines), len(lines), tokens, matched), report


def _chunks(source, chunk_lines: int) -> Iterator[tuple[int, list[str | bytes]]]:
    batch: list[str | bytes] = []
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


def _run_chunks(chunks: Iterator, chunk_fn, state: _ScanState, workers: int) -> Iterator[tuple]:
    if workers <= 1:
        try:
            for chunk in chunks:
                # rebound per chunk: another scan in this process may have
                # run since, and its state must not leak into this one
                _init_worker(state)
                yield chunk_fn(chunk)
        finally:
            # the scan's lexicon and parse cache go with it, unless another
            # scan has bound its own state since
            if _state is state:
                _init_worker(None)
        return
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(state,)
    ) as pool:
        window = workers * 3
        pending: deque = deque()
        for chunk in chunks:
            pending.append(pool.submit(chunk_fn, chunk))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _map_chunks(
    source,
    chunk_fn,
    lexicon: Lexicon | None,
    workers: int,
    strictness: str,
    chunk_lines: int,
    report: ReadReport | None,
) -> Iterator:
    """Run chunk_fn over line chunks, yielding its parts in input order and
    adding each chunk's ReadReport into report.

    In-flight futures are capped so the parent never buffers more than a
    bounded window of lines regardless of corpus size.
    """
    state = _ScanState(lexicon, _is_strict(strictness))
    for part, chunk_report in _run_chunks(_chunks(source, chunk_lines), chunk_fn, state, workers):
        if report is not None:
            report.add(chunk_report)
        yield part


def _fold_tables(parts: Iterator[FrequencyTable]) -> FrequencyTable:
    """Fold chunk tables into one Counter in place; merge() would copy the
    whole accumulated table for every chunk."""
    counts: Counter[str] = Counter()
    total = docs = 0
    for part in parts:
        counts.update(part.counts)
        total += part.total_tokens
        docs += part.doc_count
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
        _map_chunks(source, _scan_words_chunk, None, workers, strictness, chunk_lines, report)
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
        _map_chunks(source, _scan_affixes_chunk, lexicon, workers, strictness, chunk_lines, report)
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
    for part in _map_chunks(
        source, _scan_usage_chunk, lexicon, workers, strictness, chunk_lines, report
    ):
        for key, (n_posts, n_tokens, n_matched) in part.items():
            cell = usage.setdefault(key, [0, 0, 0])
            cell[0] += n_posts
            cell[1] += n_tokens
            cell[2] += n_matched
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
    for anns in _map_chunks(
        source, _scan_annotations_chunk, lexicon, workers, strictness, chunk_lines, report
    ):
        yield from anns


def scan_annotation_lines(
    source,
    lexicon: Lexicon,
    *,
    workers: int = 1,
    strictness: str = "skip",
    report: ReadReport | None = None,
    chunk_lines: int = DEFAULT_CHUNK_LINES,
) -> Iterator[tuple[str, int, int, int]]:
    """scan_annotations rendered, one item per chunk in input order: the
    chunk's annotation_json lines, each ending in "\\n", and its post,
    token and matched counts. Workers render, so the caller receives text
    rather than an Annotation per post."""
    return _map_chunks(
        source, _scan_annotate_chunk, lexicon, workers, strictness, chunk_lines, report
    )
