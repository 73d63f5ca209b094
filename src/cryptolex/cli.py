"""Command-line interface: lexicon management, annotation, discovery,
and trajectory export. Human-readable messages go to stderr; data goes
to stdout or --output."""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from . import __version__
from .corpus import ReadReport, scan_annotations, scan_tables, scan_usage
from .discovery import log_ratio_rank, review_sheet, rows_to_jsonl, rows_to_tsv
from .lexicon import (
    Lexicon,
    category_stats,
    export_tsv,
    load_lexicon,
    load_word_list,
    seed_blocklist,
    seed_lexicon_text,
    validate,
)
from .morpho import annotate_text, annotation_json
from .trajectory import detect_gaps, export_series, series_from_counts

BANNER = (
    "content warning: the lexicon and any annotated output contain "
    "dehumanizing, racist, and misogynistic language."
)


def _warn_banner() -> None:
    if os.environ.get("CRYPTOLEX_NO_WARN") != "1":
        print(BANNER, file=sys.stderr)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < math.inf:  # also refuses nan
        raise argparse.ArgumentTypeError("must be finite and > 0")
    return value


def _path(text: str) -> str:
    # an empty value would read as the flag not given
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _add_lexicon_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lexicon", type=_path, metavar="PATH", help="lexicon JSON Lines (default: bundled seed)")
    parser.add_argument("--blocklist", type=_path, metavar="PATH", help="blocklist file (default: bundled list)")


def _usable_cpus() -> int:
    """CPUs this process may run on; os.cpu_count() ignores affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_scan_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strict", action="store_true", help="abort on the first malformed line")
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=_usable_cpus(),
        help="worker processes for corpus scans (result is identical for any value)",
    )


def _load_cli_lexicon(args) -> Lexicon:
    blocklist = load_word_list(Path(args.blocklist)) if args.blocklist else seed_blocklist()
    if args.lexicon:
        return load_lexicon(Path(args.lexicon), blocklist)
    return load_lexicon(seed_lexicon_text(), blocklist)


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # a file is missing, so only the same path names it twice
        return os.path.abspath(a) == os.path.abspath(b)


def _check_output(args) -> None:
    """Fail before any input is read if --output names a file the command
    reads or could not be written. Opening it here would truncate such a
    file, so the path is only looked at."""
    output = args.output
    if output:
        for flag in ("input", "background", "lexicon", "blocklist", "stoplist"):
            path = getattr(args, flag, None)
            if path and _same_file(path, output):
                raise argparse.ArgumentError(None, f"--output names the --{flag} file")
        if os.path.isdir(output):
            raise OSError(f"cannot write --output {output}: it is a directory")
        folder = os.path.dirname(output) or "."
        if not os.path.isdir(folder):
            raise OSError(f"cannot write --output {output}: no directory {folder}")
        if not os.access(folder, os.W_OK):
            raise OSError(f"cannot write --output {output}: directory {folder} is not writable")


def _open_output(output: str | None):
    if output:
        return open(output, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _report_skips(report: ReadReport) -> None:
    if report.skipped:
        detail = f" (first: {report.first_error})" if report.first_error else ""
        print(f"skipped {report.skipped} malformed lines{detail}", file=sys.stderr)


# perfbench/tracing.py wraps the renderer by this name
_span_payload = annotation_json


def run_lexicon(args) -> int:
    if args.output is not None and args.action == "validate":
        raise argparse.ArgumentError(None, "--output needs stats or export")
    lexicon = _load_cli_lexicon(args)
    if args.action == "validate":
        issues = validate(lexicon)
        for issue in issues:
            where = f" [{issue.surface}]" if issue.surface else ""
            print(f"{issue.severity}:{where} {issue.message}", file=sys.stderr)
        errors = sum(1 for i in issues if i.severity == "error")
        warnings = len(issues) - errors
        print(
            f"{len(lexicon)} entries, {errors} errors, {warnings} warnings",
            file=sys.stderr,
        )
        return 1 if errors else 0
    if args.action == "stats":
        stats = category_stats(lexicon)
        print(f"entries {stats.total}", file=sys.stderr)
        line = " ".join(
            f"{cat} {stats.counts[cat]} ({stats.percentages[cat]:.1f}%)"
            for cat in stats.counts
        )
        with _open_output(args.output) as out:
            out.write(line + "\n")
        return 0
    with _open_output(args.output) as out:
        out.write(export_tsv(lexicon))
    return 0


def run_annotate(args) -> int:
    _warn_banner()
    lexicon = _load_cli_lexicon(args)
    tokens = matched = 0
    if args.plain:
        # not read_text: its newline translation would shift every offset after a "\r\n"
        text = Path(args.input).read_bytes().decode("utf-8")
        ann = annotate_text("plain", text, lexicon)
        with _open_output(args.output) as out:
            out.write(annotation_json(ann) + "\n")
        posts, tokens, matched = 1, ann.token_count, ann.matched_count
        terms = list(dict.fromkeys(span.term for span in ann.spans))
        if terms:
            print("matched terms: " + ", ".join(terms), file=sys.stderr)
    else:
        report = ReadReport()
        with _open_output(args.output) as out:
            for text, n_tokens, n_matched in scan_annotations(
                Path(args.input), lexicon, workers=args.workers, strict=args.strict, report=report
            ):
                out.write(text)
                tokens += n_tokens
                matched += n_matched
        _report_skips(report)
        posts = report.parsed
    rate = matched / tokens if tokens else 0.0
    print(f"posts {posts} tokens {tokens} matched {matched} rate {rate:.6f}", file=sys.stderr)
    return 0


def run_discover(args) -> int:
    for flag, value in (("--lexicon", args.lexicon), ("--blocklist", args.blocklist)):
        if value is not None and not args.affixes:
            raise argparse.ArgumentError(None, f"{flag} needs --affixes")
    report = ReadReport()
    lexicon = _load_cli_lexicon(args) if args.affixes else None
    # read before the scan, so a bad stoplist costs no scan
    stoplist = load_word_list(Path(args.stoplist)) if args.stoplist else frozenset()
    target, background = scan_tables(
        (Path(args.input), Path(args.background)),
        lexicon,
        workers=args.workers,
        strict=args.strict,
        report=report,
    )
    rows = log_ratio_rank(
        target, background, alpha=args.alpha, top_k=args.top_k, min_count=args.min_count
    )
    rows = [row for row in rows if row.token not in stoplist]
    _report_skips(report)
    print(
        f"candidates {len(rows)} (target {target.total_tokens} tokens, "
        f"background {background.total_tokens} tokens)",
        file=sys.stderr,
    )
    if args.format == "sheet":
        text = review_sheet(rows)
    elif args.format == "jsonl":
        text = rows_to_jsonl(rows)
    else:
        text = rows_to_tsv(rows)
    with _open_output(args.output) as out:
        out.write(text)
    return 0


def run_trajectory(args) -> int:
    _warn_banner()
    lexicon = _load_cli_lexicon(args)
    report = ReadReport()
    usage = scan_usage(
        Path(args.input),
        lexicon,
        workers=args.workers,
        strict=args.strict,
        report=report,
        user=args.user,
    )
    _report_skips(report)
    if not report.parsed:
        raise ValueError("empty corpus: no posts parsed")
    per_user: dict[str, dict[str, tuple[int, int, int]]] = {}
    for (user, week), cell in usage.items():
        per_user.setdefault(user, {})[week] = cell
    # with --user the scan keeps only that user's posts
    users = sorted(per_user)
    if not users:
        raise ValueError(f"user not found: {args.user!r}")
    series_list = [series_from_counts(u, per_user[u]) for u in users]
    if args.gaps:
        data = [detect_gaps(s, args.min_gap_weeks) for s in series_list]
        n_gaps = sum(len(r.gaps) for r in data)
        print(f"users {len(users)} gaps {n_gaps}", file=sys.stderr)
    else:
        data = series_list
        n_buckets = sum(len(s.buckets) for s in series_list)
        print(f"users {len(users)} buckets {n_buckets}", file=sys.stderr)
    with _open_output(args.output) as out:
        out.write(export_series(data, format=args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptolex",
        description="Lexicon-driven cryptolect analysis for forum archives.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    lex = sub.add_parser("lexicon", help="validate, summarize, or export a lexicon")
    lex.add_argument("action", choices=("validate", "stats", "export"))
    _add_lexicon_flags(lex)
    lex.add_argument("--output", type=_path, metavar="PATH")
    lex.set_defaults(handler=run_lexicon)

    ann = sub.add_parser("annotate", help="annotate posts (or raw text) with lexicon spans")
    ann.add_argument("--input", required=True, metavar="PATH", help="posts JSON Lines, or raw text with --plain")
    ann.add_argument("--plain", action="store_true", help="treat input as one raw text document")
    _add_lexicon_flags(ann)
    _add_scan_flags(ann)
    ann.add_argument("--output", type=_path, metavar="PATH")
    ann.set_defaults(handler=run_annotate)

    dis = sub.add_parser("discover", help="rank target-corpus tokens against a background corpus")
    dis.add_argument("--input", required=True, metavar="PATH", help="target corpus JSON Lines")
    dis.add_argument("--background", required=True, metavar="PATH", help="background corpus JSON Lines")
    dis.add_argument("--affixes", action="store_true", help="rank productive affixes instead of words")
    dis.add_argument("--stoplist", type=_path, metavar="PATH", help="words to leave out, one per line, '#' starts a comment")
    dis.add_argument("--alpha", type=_positive_float, default=0.5, help="smoothing constant (default 0.5)")
    dis.add_argument("--top-k", type=_positive_int, default=1000, help="candidate window (default 1000)")
    dis.add_argument("--min-count", type=_positive_int, default=5, help="minimum target count (default 5)")
    dis.add_argument("--format", choices=("tsv", "jsonl", "sheet"), default="tsv", help="sheet: review sheet to code")
    _add_lexicon_flags(dis)
    _add_scan_flags(dis)
    dis.add_argument("--output", type=_path, metavar="PATH")
    dis.set_defaults(handler=run_discover)

    tra = sub.add_parser("trajectory", help="weekly usage series and gap reports per user")
    tra.add_argument("--input", required=True, metavar="PATH", help="posts JSON Lines")
    who = tra.add_mutually_exclusive_group(required=True)
    who.add_argument("--user", metavar="USER", help="one user id")
    who.add_argument("--all", action="store_true", help="every user in the corpus")
    tra.add_argument("--gaps", action="store_true", help="emit gap report instead of series")
    tra.add_argument("--min-gap-weeks", type=_positive_int, default=4, help="gap threshold (default 4)")
    tra.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    _add_lexicon_flags(tra)
    _add_scan_flags(tra)
    tra.add_argument("--output", type=_path, metavar="PATH")
    tra.set_defaults(handler=run_trajectory)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or version; fold into exit contract
        return int(exc.code or 0)
    try:
        _check_output(args)
        return args.handler(args)
    except argparse.ArgumentError as exc:  # a usage error argparse could not see
        print(f"cryptolex {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except BrokenProcessPool as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C: a pooled scan has already stopped its pool
        print("interrupted", file=sys.stderr)
        return 130


def entrypoint() -> None:
    sys.exit(main())
