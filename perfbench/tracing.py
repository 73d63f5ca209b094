"""Spans around the public calls of each cryptolex layer, from outside.

install() replaces module attributes of cryptolex with timed wrappers, so
the program runs unchanged while every call into a layer leaves a span
(name, start, end, parent span, pid) and bumps counts at the same
boundary. Spans stay in memory. Worker processes are forked from the
traced parent, so they inherit the wrappers; at the end of each chunk a
worker appends its spans and counts to a spill file, and collect() merges
those with the parent's. Times come from time.perf_counter, which is
CLOCK_MONOTONIC on Linux and so comparable across processes.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str, spill_dir: Path):
        self.run_id = run_id
        self.spill_dir = spill_dir
        self.pid = self.root_pid = os.getpid()
        self.spans: list[tuple] = []  # (id, parent, name, start, end, pid)
        self.counts: Counter = Counter()
        self.tokens: set[str] = set()
        self.stack: list[int] = []
        self.serial = 0

    def begin(self, name: str):
        self.serial += 1
        sid = self.pid * 10**9 + self.serial
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent, name, _clock()

    def end(self, token) -> None:
        sid, parent, name, start = token
        self.stack.pop()
        self.spans.append((sid, parent, name, start, _clock(), self.pid))

    def in_worker(self) -> bool:
        """True in a forked worker; the first call there drops the state
        copied from the parent, keeping its open-span stack as parents."""
        pid = os.getpid()
        if pid == self.pid:
            return self.pid != self.root_pid
        self.pid = pid
        self.spans, self.counts, self.tokens, self.serial = [], Counter(), set(), 0
        return True

    def spill(self) -> None:
        record = {"spans": self.spans, "counts": self.counts, "tokens": sorted(self.tokens)}
        with open(self.spill_dir / f"worker-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans, self.counts, self.tokens = [], Counter(), set()

    def collect(self) -> None:
        """Fold every worker spill file into this process's state."""
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    self.spans.extend(tuple(s) for s in record["spans"])
                    self.counts.update(record["counts"])
                    self.tokens.update(record["tokens"])

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, pid in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "pid": pid,
                }) + "\n")


def _timed(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(token)
        if after is not None:
            after(result, *args)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported cryptolex modules that the
    benchmark's CLI invocations pass through."""
    from cryptolex import cli, corpus, lexicon, morpho

    def on_tokens(result, *_):
        tracer.counts["morpho.tokens"] += len(result)
        tracer.tokens.update(t.normalized for t in result)

    def on_decompose(result, *_):
        tracer.counts["morpho.decompose_calls"] += 1

    def on_annotation(ann, *_):
        c = tracer.counts
        c["morpho.annotate_tokens"] += ann.token_count
        c["morpho.matched"] += ann.matched_count
        for span in ann.spans:
            c[f"morpho.spec{span.parse.specificity}"] += 1

    def on_merge(*_):
        tracer.counts["corpus.merge_calls"] += 1

    def on_lexicon(lex, *_):
        tracer.counts["lexicon.entries"] = len(lex)

    def on_rank(rows, target, background, *_):
        c = tracer.counts
        c["discovery.vocab"] = len(set(target.counts) | set(background.counts))
        c["discovery.rows"] += len(rows)

    def on_series(series, *_):
        tracer.counts["trajectory.users"] += 1
        tracer.counts["trajectory.buckets"] += len(series.buckets)

    def on_gaps(report, *_):
        tracer.counts["trajectory.gaps"] += len(report.gaps)

    tokenize = _timed(tracer, "morpho.tokenize", morpho.tokenize, on_tokens)
    decompose = _timed(tracer, "morpho.decompose", morpho.decompose, on_decompose)
    annotate_text = _timed(tracer, "morpho.annotate", morpho.annotate_text, on_annotation)
    load = _timed(tracer, "lexicon.load", lexicon.load_lexicon, on_lexicon)
    morpho.tokenize = corpus.tokenize = tokenize
    morpho.decompose = corpus.decompose = decompose
    corpus.annotate_text = annotate_text
    lexicon.load_lexicon = cli.load_lexicon = load

    parse_post_line = corpus.parse_post_line

    @functools.wraps(parse_post_line)
    def traced_parse(*args, **kwargs):
        token = tracer.begin("corpus.parse")
        tracer.counts["corpus.lines"] += 1
        try:
            return parse_post_line(*args, **kwargs)
        except corpus.PostFormatError:
            tracer.counts["corpus.skipped"] += 1
            raise
        finally:
            tracer.end(token)

    corpus.parse_post_line = traced_parse
    corpus.merge = _timed(tracer, "corpus.merge", corpus.merge, on_merge)

    chunks = corpus._chunks

    @functools.wraps(chunks)
    def traced_chunks(*args, **kwargs):
        it = chunks(*args, **kwargs)
        while True:
            token = tracer.begin("corpus.read")
            try:
                chunk = next(it)
            except StopIteration:
                return
            finally:
                tracer.end(token)
            tracer.counts["corpus.chunks"] += 1
            yield chunk

    corpus._chunks = traced_chunks

    def chunk_wrapper(fn):
        @functools.wraps(fn)
        def traced_chunk(chunk):
            in_worker = tracer.in_worker()
            token = tracer.begin("corpus.chunk")
            try:
                result = fn(chunk)
            finally:
                tracer.end(token)
            if in_worker:
                sent = len(ForkingPickler.dumps(chunk)) + len(ForkingPickler.dumps(result))
                tracer.counts["corpus.ipc_bytes"] += sent
                tracer.spill()
            return result

        return traced_chunk

    for name in ("_scan_words_chunk", "_scan_usage_chunk", "_scan_annotate_chunk"):
        setattr(corpus, name, chunk_wrapper(getattr(corpus, name)))

    def eager_scan(fn):
        # the consumer is blocked for the whole call
        @functools.wraps(fn)
        def traced_scan(*args, **kwargs):
            token = tracer.begin("corpus.scan")
            wait = tracer.begin("corpus.scan_wait")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(wait)
                tracer.end(token)

        return traced_scan

    for name in ("scan_frequency_table", "scan_usage"):
        setattr(cli, name, eager_scan(getattr(corpus, name)))

    scan_annotations = corpus.scan_annotations

    @functools.wraps(scan_annotations)
    def traced_scan_annotations(*args, **kwargs):
        # open from the call until the iterator is exhausted; the consumer's
        # own work between items nests inside it
        token = tracer.begin("corpus.scan")
        it = scan_annotations(*args, **kwargs)
        try:
            while True:
                wait = tracer.begin("corpus.scan_wait")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.end(wait)
                yield item
        finally:
            tracer.end(token)

    cli.scan_annotations = traced_scan_annotations
    cli.log_ratio_rank = _timed(tracer, "discovery.rank", cli.log_ratio_rank, on_rank)
    cli.rows_to_tsv = _timed(tracer, "discovery.render", cli.rows_to_tsv)
    cli.series_from_counts = _timed(tracer, "trajectory.series", cli.series_from_counts, on_series)
    cli.detect_gaps = _timed(tracer, "trajectory.gaps", cli.detect_gaps, on_gaps)
    cli.export_series = _timed(tracer, "trajectory.export", cli.export_series)
    cli._span_payload = _timed(tracer, "cli.render", cli._span_payload)


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics from the collected spans and counts."""
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end, pid in tracer.spans:
        total[name] += end - start
        if parent is not None:
            child[parent] += end - start
    annotate_self = sum(
        end - start - child[sid] for sid, _, name, start, end, _ in tracer.spans if name == "morpho.annotate"
    )
    c = tracer.counts
    seen = c["morpho.annotate_tokens"]
    return {
        "corpus.read_s": total["corpus.read"],
        "corpus.parse_s": total["corpus.parse"],
        "corpus.lines": c["corpus.lines"],
        "corpus.skipped": c["corpus.skipped"],
        "corpus.chunks": c["corpus.chunks"],
        "corpus.merge_s": total["corpus.merge"],
        "corpus.merge_calls": c["corpus.merge_calls"],
        "corpus.ipc_bytes": c["corpus.ipc_bytes"],
        "corpus.scan_s": total["corpus.scan"],
        "corpus.scan_wait_s": total["corpus.scan_wait"],
        "morpho.tokenize_s": total["morpho.tokenize"],
        "morpho.tokens": c["morpho.tokens"],
        "morpho.unique_tokens": len(tracer.tokens),
        "morpho.decompose_s": total["morpho.decompose"],
        "morpho.decompose_calls": c["morpho.decompose_calls"],
        "morpho.cache_hit_ratio": 1 - c["morpho.decompose_calls"] / seen if seen else 0.0,
        "morpho.annotate_s": annotate_self,
        "morpho.matched": c["morpho.matched"],
        "morpho.spec1": c["morpho.spec1"],
        "morpho.spec2": c["morpho.spec2"],
        "morpho.spec3": c["morpho.spec3"],
        "lexicon.load_s": total["lexicon.load"],
        "lexicon.entries": c["lexicon.entries"],
        "discovery.vocab": c["discovery.vocab"],
        "discovery.rank_s": total["discovery.rank"],
        "discovery.rows": c["discovery.rows"],
        "discovery.render_s": total["discovery.render"],
        "trajectory.users": c["trajectory.users"],
        "trajectory.buckets": c["trajectory.buckets"],
        "trajectory.gaps": c["trajectory.gaps"],
        "trajectory.series_s": total["trajectory.series"],
        "trajectory.gaps_s": total["trajectory.gaps"],
        "trajectory.export_s": total["trajectory.export"],
        "cli.main_s": total["cli.main"],
        "cli.output_bytes": output_bytes,
        "cli.render_s": total["cli.render"] + total["discovery.render"] + total["trajectory.export"],
    }

