"""Streaming access to JSON Lines post archives and frequency counting.

Archives follow the common forum-dump convention: one JSON object per
line with id, user, forum, created_utc (epoch seconds, UTC), text, and
an optional parent_id. Unknown fields are ignored. Scans hold counts,
never the corpus, so memory tracks vocabulary size.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
from collections import Counter, defaultdict, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .lexicon import _SURROGATE, Lexicon, LineError, parse_json_line, read_lines
from .morpho import _best_parses, _lowered_words, annotate_text, annotation_json, normalized_words

# lines per chunk; no result depends on it, and tests patch it to vary it
CHUNK_LINES = 5000
# 9999-12-31T23:59:59Z, the last second iso_week can label
MAX_CREATED_UTC = 253402300799
_CREATED_RANGE = f"field 'created_utc' is out of range (0 to {MAX_CREATED_UTC})"


class PostFormatError(LineError):
    """Raised for a malformed line of a post archive."""


class Post(NamedTuple):
    # a NamedTuple, not a frozen dataclass: a scan builds one per line, and
    # this builds about twice as fast. Being a tuple, a Post also equals and
    # hashes as a plain tuple of its fields, and unpacks, indexes and orders
    # like one.
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
    """A Post from one decoded record. A record with an int created_utc
    in range and string fields, id, user, forum and parent_id holding no
    lone surrogate, passes one type test; every other record, one with a
    float or numeric-string created_utc included, goes to
    _check_post_record, the reference and the only source of errors."""
    if type(record) is dict:
        get = record.get
        pid, user, forum, text = get("id"), get("user"), get("forum"), get("text")
        created, parent = get("created_utc"), get("parent_id")
        # isascii is a flag test, and an ASCII string holds no surrogate
        if (
            type(created) is int and 0 <= created <= MAX_CREATED_UTC
            and type(pid) is str and pid and (pid.isascii() or not _SURROGATE.search(pid))
            and type(user) is str and (user.isascii() or not _SURROGATE.search(user))
            and type(forum) is str and (forum.isascii() or not _SURROGATE.search(forum))
            and type(text) is str
            and (
                parent is None
                or type(parent) is str and (parent.isascii() or not _SURROGATE.search(parent))
            )
        ):
            # tuple.__new__ skips the Python frame of Post's own __new__
            return tuple.__new__(Post, (pid, user, forum, created, text, parent))
    return _check_post_record(record, line)


def _check_post_record(record, line: int | None = None) -> Post:
    """Validate a decoded record field by field, raising PostFormatError
    with the first fault found."""
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
    except OverflowError:  # an int too large for a float
        raise PostFormatError(_CREATED_RANGE, line) from None
    if not as_float.is_integer() or as_float < 0:
        raise PostFormatError("field 'created_utc' must be a non-negative integer", line)
    if as_float > MAX_CREATED_UTC:
        raise PostFormatError(_CREATED_RANGE, line)
    parent = record.get("parent_id")
    if parent is not None and not isinstance(parent, str):
        raise PostFormatError("field 'parent_id' must be a string when present", line)
    # no output could encode a lone surrogate; text only yields words, which hold none
    for name in ("id", "user", "forum", "parent_id"):
        value = record.get(name) or ""
        if not value.isascii() and _SURROGATE.search(value):
            raise PostFormatError(f"field {name!r} holds a lone surrogate", line)
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
    return parse_post_record(parse_json_line(text, line, PostFormatError), line)


def _as_lines(source: Path | str | Iterable[str | bytes]) -> Iterator[str | bytes]:
    """Split a source on "\\n" only, as JSON Lines does, a str by read_lines.
    A Path yields undecoded bytes, so invalid UTF-8 spoils one line, not the read."""
    if isinstance(source, Path):
        with source.open("rb") as handle:
            yield from handle
    elif isinstance(source, str):
        yield from read_lines(source)
    else:
        yield from source


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
    *,
    strict: bool = False,
    report: ReadReport | None = None,
) -> Iterator[Post]:
    """Yield posts in file order.

    By default malformed lines are dropped and tallied in report; with
    strict=True the first bad line raises PostFormatError.
    """
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

    def add(self, later: FrequencyTable) -> None:
        """Fold in the table of the input that follows this one, in place."""
        counts = self.counts
        if counts:
            get = counts.get
            for word, n in later.counts.items():
                counts[word] = get(word, 0) + n
        else:
            counts.update(later.counts)  # an empty table copies in one C call
        self.total_tokens += later.total_tokens
        self.doc_count += later.doc_count


def merge(a: FrequencyTable, b: FrequencyTable) -> FrequencyTable:
    merged = FrequencyTable(dict(a.counts), a.total_tokens, a.doc_count)
    merged.add(b)
    return merged


def _joined_texts(texts: list[str]) -> list[str]:
    """texts as two texts, either perhaps empty (no words): the ASCII ones
    joined by "\\n", then the others, so one non-ASCII text does not send
    every other past the reader's ASCII byte table. Reading these gives the
    words of each text read alone: no word or letter run spans a "\\n", and
    the reader lowers a text holding İ or Σ word by word. Only the words'
    order changes, and no count depends on it."""
    ascii_texts = [text for text in texts if text.isascii()]
    return ["\n".join(ascii_texts), "\n".join(text for text in texts if not text.isascii())]


def build_frequency_table(posts: Iterable[Post]) -> FrequencyTable:
    """Count normalized token occurrences over a post stream, reading the
    texts as _joined_texts joins them."""
    texts = [post.text for post in posts]
    counts: Counter[str] = Counter()
    for text in _joined_texts(texts):
        counts.update(normalized_words(text))
    return FrequencyTable(dict(counts), total_tokens=counts.total(), doc_count=len(texts))


def _affix_counts(posts: Iterable[Post], lexicon: Lexicon) -> FrequencyTable:
    # An affix occurrence is any productive entry (only affixes may be) in
    # the token's best parse, keyed by canonical surface so variant
    # spellings ("mogg") count toward their entry ("mog"). Counted from the
    # best parses alone: no Span or category set per match.
    texts = [post.text for post in posts]
    counts = Counter(
        seg.entry.surface
        for text in _joined_texts(texts)
        for best in _best_parses(_lowered_words(text)[2], lexicon)
        if best is not None
        for seg in best.segments
        if seg.entry is not None and seg.entry.productive
    )
    return FrequencyTable(dict(counts), total_tokens=counts.total(), doc_count=len(texts))


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


def fold_usage(posts: Iterable[Post], lexicon: Lexicon) -> dict[tuple[str, int], tuple]:
    """Sum (posts, tokens, matched) per (user, ISO week number), keys in
    order of first post, from the best parses in the lexicon's memo, with
    no Span per match. Each key's texts are read as one, joined by "\\n",
    exact for the reason _joined_texts gives. The join is inline: a usage
    scan folds thousands of small keys per chunk, and _joined_texts cost
    more than it saved."""
    texts = defaultdict(list)
    for post in posts:
        # ISO weeks run Monday to Sunday and 1970-01-01 was a Thursday, so
        # this numbers each post's ISO week; label_weeks labels each number
        texts[post.user, (post.created_utc + 3 * 86400) // 604800].append(post.text)
    usage = {}
    for cell, group in texts.items():
        bests = _best_parses(_lowered_words("\n".join(group))[2], lexicon)
        usage[cell] = (len(group), len(bests), len(list(filter(None, bests))))
    return usage


def label_weeks(usage: dict[tuple[str, int], tuple]) -> dict[tuple[str, str], tuple]:
    """fold_usage's cells, in order, keyed by (user, iso_week label)."""
    # one label per distinct week: second week * 604800 starts the week's
    # Thursday, which lies in the week's ISO year
    labels = {week: iso_week(week * 604800) for week in {week for _, week in usage}}
    return {(name, labels[week]): cell for (name, week), cell in usage.items()}


# ---------------------------------------------------------------------------
# Sharded scans. Line chunks fan out to worker processes; each chunk
# function returns (part, ReadReport) for its chunk, and parts merge with
# associative operations, so output is identical for any worker count.

@dataclass(frozen=True)
class _ScanState:
    """What a scan's chunk functions read: its lexicon, whether it is
    strict, the one user a usage scan keeps (None keeps all) and the event
    a pooled scan sets once it has ended early (None in process)."""

    lexicon: Lexicon | None
    strict: bool
    user: str | None = None
    stop: multiprocessing.synchronize.Event | None = None


_state: _ScanState | None = None


def _init_worker(state: _ScanState) -> None:
    # Ctrl-C signals the whole process group; the parent alone handles it,
    # stopping the pool, so a worker neither dies of it nor prints a traceback
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _state
    _state = state


def _run_unless_stopped(chunk_fn, chunk):
    # cancel_futures reaches only the chunks still in the pool's own queue;
    # the workers' call queue holds a few more that only this check skips
    return None if _state.stop.is_set() else chunk_fn(chunk)


def _chunk_posts(chunk: tuple[int, list[str | bytes]]) -> tuple[list[Post], ReadReport]:
    # parsed up front: interleaving parsing with annotation measured about
    # 7% slower for CLI annotate at 2 workers on a 2-core machine
    start, lines = chunk
    report = ReadReport()
    return list(_parse_lines(enumerate(lines, start), _state.strict, report)), report


def _scan_words_chunk(chunk) -> tuple[FrequencyTable, ReadReport]:
    posts, report = _chunk_posts(chunk)
    return build_frequency_table(posts), report


def _scan_affixes_chunk(chunk) -> tuple[FrequencyTable, ReadReport]:
    posts, report = _chunk_posts(chunk)
    return _affix_counts(posts, _state.lexicon), report


def _scan_usage_chunk(chunk) -> tuple[dict, ReadReport]:
    posts, report = _chunk_posts(chunk)
    if _state.user is not None:
        posts = [post for post in posts if post.user == _state.user]
    return fold_usage(posts, _state.lexicon), report


def _scan_annotate_chunk(chunk) -> tuple[tuple[str, int, int], ReadReport]:
    # rendered in the worker, so the parent only writes text: unpickling and
    # rendering an Annotation per post kept the parent as busy as a worker.
    # perfbench/tracing.py wraps this name and the module's annotate_text.
    posts, report = _chunk_posts(chunk)
    lines = []
    tokens = matched = 0
    for post in posts:
        ann = annotate_text(post.id, post.text, _state.lexicon)
        lines.append(annotation_json(ann) + "\n")
        tokens += ann.token_count
        matched += ann.matched_count
    return ("".join(lines), tokens, matched), report


def _chunks(source) -> Iterator[tuple[int, list[str | bytes]]]:
    size = CHUNK_LINES  # read once, when the first chunk is asked for
    batch: list[str | bytes] = []
    start = 1
    lineno = 0
    for lineno, raw in enumerate(_as_lines(source), start=1):
        batch.append(raw)
        if len(batch) >= size:
            yield start, batch
            batch = []
            start = lineno + 1
    if batch:
        yield start, batch


def _run_chunks(
    chunks: Iterator[tuple[int, tuple]], chunk_fn, state: _ScanState, workers: int
) -> Iterator[tuple[int, tuple]]:
    """Run chunk_fn over (tag, chunk) pairs, yielding (tag, its result) in
    input order; the tag stays in this process."""
    global _state
    if workers <= 1:
        for tag, chunk in chunks:
            # bound only while chunk_fn runs: between chunks this scan may be
            # suspended while another scan in this process binds its own
            _state = state
            try:
                result = chunk_fn(chunk)
            finally:
                _state = None
            yield tag, result
        return
    state = replace(state, stop=multiprocessing.Event())
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(state,)
    ) as pool:
        # chunks in flight: each holds its lines in this process until its
        # result comes back, and 3 x workers raised discover's peak memory
        # by 1 to 3 MiB over 2 x workers, at the same speed
        window = workers * 2
        pending: deque = deque()
        try:
            while True:
                try:
                    tag, chunk = next(chunks)
                except StopIteration:
                    break
                except Exception:
                    # a source that cannot be read, such as a missing file:
                    # the chunks read before it come first, as at one worker,
                    # so a strict error in one of them is still the error
                    while pending:
                        tag, future = pending.popleft()
                        yield tag, future.result()
                    raise
                pending.append((tag, pool.submit(_run_unless_stopped, chunk_fn, chunk)))
                if len(pending) >= window:
                    tag, future = pending.popleft()
                    yield tag, future.result()
            while pending:
                tag, future = pending.popleft()
                yield tag, future.result()
        except BaseException:
            # a chunk's error, or a consumer that stopped early: the chunks
            # not yet started would only be thrown away, so leaving the pool
            # waits for the running ones alone
            state.stop.set()
            pool.shutdown(cancel_futures=True)
            raise


def _map_chunks(
    sources: Sequence, chunk_fn, state: _ScanState, workers: int, report: ReadReport | None
) -> Iterator[tuple[int, object]]:
    """Run chunk_fn under state over the line chunks of each source in
    turn, through one pool, yielding (source index, part) in input order
    and adding each chunk's ReadReport into report. Lines are numbered
    within each source.

    In-flight futures are capped so the parent never buffers more than a
    bounded window of lines regardless of corpus size.
    """
    tagged = ((index, chunk) for index, source in enumerate(sources) for chunk in _chunks(source))
    for index, (part, chunk_report) in _run_chunks(tagged, chunk_fn, state, workers):
        if report is not None:
            report.add(chunk_report)
        yield index, part


def scan_tables(
    sources: Sequence,
    lexicon: Lexicon | None = None,
    *,
    workers: int = 1,
    strict: bool = False,
    report: ReadReport | None = None,
) -> list[FrequencyTable]:
    """One table per source, all read in one pass through one worker pool:
    normalized word counts, or productive-affix counts when a lexicon is
    given. report tallies every source's lines, in source order.

    Chunk tables fold in place into their source's table; merge() would
    copy the whole accumulated table for every chunk."""
    chunk_fn = _scan_words_chunk if lexicon is None else _scan_affixes_chunk
    tables = [FrequencyTable() for _ in sources]
    for index, part in _map_chunks(sources, chunk_fn, _ScanState(lexicon, strict), workers, report):
        tables[index].add(part)
    return tables


def scan_frequency_table(
    source,
    *,
    workers: int = 1,
    strict: bool = False,
    report: ReadReport | None = None,
) -> FrequencyTable:
    return scan_tables([source], workers=workers, strict=strict, report=report)[0]


def scan_usage(
    source,
    lexicon: Lexicon,
    *,
    workers: int = 1,
    strict: bool = False,
    report: ReadReport | None = None,
    user: str | None = None,
) -> dict[tuple[str, str], tuple[int, int, int]]:
    """Aggregate (user, iso_week) -> (posts, tokens, matched) over a corpus,
    or over one user's posts when user is given; report still tallies every
    line."""
    usage: dict[tuple[str, int], tuple[int, int, int]] = {}
    state = _ScanState(lexicon, strict, user)
    for _, part in _map_chunks([source], _scan_usage_chunk, state, workers, report):
        for key, (n_posts, n_tokens, n_matched) in part.items():
            posts, tokens, matched = usage.get(key, (0, 0, 0))
            usage[key] = (posts + n_posts, tokens + n_tokens, matched + n_matched)
    return label_weeks(usage)


def scan_annotations(
    source,
    lexicon: Lexicon,
    *,
    workers: int = 1,
    strict: bool = False,
    report: ReadReport | None = None,
) -> Iterator[tuple[str, int, int]]:
    """Annotate a corpus, yielding one (text, tokens, matched) item per
    chunk in input order: the chunk's annotation_json lines, each ending in
    "\\n", and its token and matched counts; report.parsed counts the
    posts. Workers render, so the caller receives text rather than an
    Annotation per post."""
    state = _ScanState(lexicon, strict)
    for _, item in _map_chunks([source], _scan_annotate_chunk, state, workers, report):
        yield item
