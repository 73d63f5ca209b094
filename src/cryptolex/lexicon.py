"""Lexicon model for an in-group cryptolect.

Design goals:

- entries are plain data (surface, kind, gloss, category codes), easy to
  review and diff in JSON Lines form;
- the lexicon's entries and indexes are fixed after load, and safe to share
  across workers; its best-parse memo only memoizes;
- ordinary-English collisions are handled by an explicit blocklist rather
  than frequency modeling, so every exclusion is auditable.
"""

from __future__ import annotations

import json
import json.scanner
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

KINDS = ("root", "prefix", "suffix", "lexicalized_blend", "standalone")
AFFIX_KINDS = ("prefix", "suffix")
# Kinds whose exact surface match counts as a first-rank parse.
EXACT_KINDS = ("root", "standalone", "lexicalized_blend")
CATEGORIES = ("dehumanizing", "racist", "misogynistic")

# a surrogate code point: what a JSON \ud800 escape with no partner decodes to
_SURROGATE = re.compile("[\ud800-\udfff]")
# a letter three or more times running; token normalization collapses it to two
LETTER_RUN3 = re.compile(r"([^\W\d_])\1\1+")
# inflectional endings the segmenter strips from a token's end, longest first
# for readability (order does not matter)
INFLECTIONS = ("ing", "ed", "es", "s")


class LexiconFormatError(ValueError):
    """Raised for unreadable or invariant-breaking lexicon data."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class LexiconEntry:
    """One lexicon record.

    surface and variants are stored in normalized form: lowercase, letters
    and digits only, no letter run longer than two. Affix surfaces carry no
    hyphens; kind alone says which side attaches.
    """

    surface: str
    kind: str
    definition: str = ""
    categories: frozenset[str] = frozenset()
    productive: bool = False
    variants: tuple[str, ...] = ()
    source: str = ""

    def __post_init__(self):
        _check_surface_form(self.surface, "surface")
        if self.kind not in KINDS:
            raise LexiconFormatError(f"unknown kind {self.kind!r} for {self.surface!r}")
        for cat in self.categories:
            if cat not in CATEGORIES:
                raise LexiconFormatError(f"unknown category {cat!r} for {self.surface!r}")
        if self.productive and self.kind not in AFFIX_KINDS:
            raise LexiconFormatError(
                f"{self.surface!r}: productive=true is only meaningful for prefix/suffix entries"
            )
        seen = {self.surface}
        for v in self.variants:
            _check_surface_form(v, f"variant of {self.surface!r}")
            if v in seen:
                raise LexiconFormatError(f"{self.surface!r}: duplicate form {v!r}")
            seen.add(v)


def _check_surface_form(form: str, what: str) -> None:
    # Mirrors token normalization: anything failing these checks could never
    # equal a normalized token, so it would be dead weight in the lexicon.
    if not isinstance(form, str) or not form:
        raise LexiconFormatError(f"{what}: empty or non-string form")
    if not form.isalnum():
        raise LexiconFormatError(f"{what}: {form!r} must contain only letters and digits")
    if form != form.lower():
        raise LexiconFormatError(f"{what}: {form!r} must be lowercase")
    if LETTER_RUN3.search(form):
        raise LexiconFormatError(f"{what}: {form!r} contains a letter run longer than two")


def normalize_token(raw: str) -> tuple[str, bool]:
    """Lowercase and collapse letter runs of three or more down to two."""
    lowered = raw.lower()
    collapsed = LETTER_RUN3.sub(r"\1\1", lowered)
    return collapsed, collapsed != lowered


@dataclass(frozen=True)
class Segment:
    """One piece of a parse: its slice of the form, its role, and the entry
    it names (None for a novel stem)."""

    slice: str
    role: str  # "prefix" | "stem" | "suffix"
    entry: LexiconEntry | None


def _index():
    # built from entries by Lexicon.__post_init__, so equality and repr skip it
    return field(init=False, repr=False, compare=False)


@dataclass
class Lexicon:
    """Entry collection plus lookup indexes, built from entries.

    Lexicon(entries, blocklist) takes any iterables, kept as a tuple and a
    frozenset. Do not change entries or blocklist after construction; build
    a new one instead. Blocklist words are normalized as tokens are, as
    decompose checks them, so "GYMCEL" and "gymcel" block alike and make
    equal lexicons. Every surface and variant names exactly one entry, so
    forms, the one lookup, maps each to its entry; a collision would make
    it ambiguous, so it is an error rather than a warning. affix_tables
    holds, per affix kind, (length, {form: Segment}) pairs in ascending
    length, one pair per distinct length of that kind's forms, so the
    segmenter finds an affix by one dictionary lookup per length and
    reuses its Segment. may_parse is the segmenter's fast reject: a form
    it does not find cannot parse. memo maps a lowercased word to its best
    parse under this lexicon, or None; morpho._best_parses alone fills it,
    and clears it when a miss finds it holding morpho.MEMO_LIMIT words, so
    it stays bounded. It only memoizes, so it never changes a result.
    """

    entries: tuple[LexiconEntry, ...]
    blocklist: frozenset[str] = frozenset()
    forms: dict[str, LexiconEntry] = _index()
    affix_tables: dict[str, tuple[tuple[int, dict[str, Segment]], ...]] = _index()
    may_parse: re.Pattern = _index()
    memo: dict = _index()

    def __post_init__(self):
        self.entries = tuple(self.entries)
        self.blocklist = frozenset(normalize_token(word)[0] for word in self.blocklist)
        forms: dict[str, LexiconEntry] = {}
        for entry in self.entries:
            if entry.surface in forms:
                raise LexiconFormatError(f"duplicate surface {entry.surface!r}")
            forms[entry.surface] = entry
        for entry in self.entries:
            for v in entry.variants:
                other = forms.get(v)
                if other is not None:
                    what = "surface" if other.surface == v else "variant of"
                    raise LexiconFormatError(
                        f"variant {v!r} of {entry.surface!r} collides with {what} {other.surface!r}"
                    )
                forms[v] = entry
        self.forms = forms
        self.affix_tables = {kind: _affix_table(forms, kind) for kind in AFFIX_KINDS}
        self.may_parse = _may_parse_gate(
            [f for f, e in forms.items() if e.kind == "prefix"], list(forms)
        )
        self.memo = {}

    def __reduce__(self):
        # rebuilt from entries and blocklist, so a copy sent to a worker
        # starts with an empty memo rather than carrying this one's
        return Lexicon, (self.entries, self.blocklist)

    def __len__(self) -> int:
        return len(self.entries)


def _affix_table(forms: dict[str, LexiconEntry], kind: str) -> tuple:
    """(length, {form: Segment}) for each distinct length of kind's forms,
    ascending."""
    by_length: dict[int, dict[str, Segment]] = {}
    for form, entry in forms.items():
        if entry.kind == kind:
            by_length.setdefault(len(form), {})[form] = Segment(form, kind, entry)
    return tuple(sorted(by_length.items()))


def _may_parse_gate(prefix_forms: list[str], entry_forms: list[str]) -> re.Pattern:
    """A pattern found in every form the segmenter can parse, and in some
    it cannot. Each base strip_inflection offers is the form itself, or the
    form less an inflection and perhaps a doubled consonant before it; a
    base parses only if it starts with a prefix form or is, or ends with,
    an entry form (suffix forms included)."""

    def alternation(forms: list[str]) -> str:
        return "|".join(re.escape(f) for f in sorted(forms, key=lambda f: (-len(f), f)))

    branches = []
    if prefix_forms:
        branches.append(rf"\A(?:{alternation(prefix_forms)})")
    if entry_forms:
        endings = "|".join(INFLECTIONS)
        branches.append(rf"(?:{alternation(entry_forms)})(?:.?(?:{endings}))?\Z")
    # (?!) never matches: a lexicon with no forms parses nothing
    return re.compile("|".join(branches) or "(?!)", re.DOTALL)


_ENTRY_KEYS = {"surface", "kind", "definition", "categories", "productive", "variants", "source"}


def parse_entry(record: dict, line: int | None = None) -> LexiconEntry:
    if not isinstance(record, dict):
        raise LexiconFormatError("record is not a JSON object", line)
    unknown = set(record) - _ENTRY_KEYS
    if unknown:
        raise LexiconFormatError(f"unknown fields {sorted(unknown)}", line)
    for required in ("surface", "kind"):
        if required not in record:
            raise LexiconFormatError(f"missing required field {required!r}", line)
    categories = record.get("categories", [])
    variants = record.get("variants", [])
    if not isinstance(categories, list) or not all(isinstance(c, str) for c in categories):
        raise LexiconFormatError("categories must be a list of strings", line)
    if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
        raise LexiconFormatError("variants must be a list of strings", line)
    if not isinstance(record.get("productive", False), bool):
        raise LexiconFormatError("productive must be a boolean", line)
    definition = record.get("definition", "")
    if not isinstance(definition, str):
        raise LexiconFormatError("definition must be a string", line)
    # no output could encode it; surface and variants already fail isalnum
    if not definition.isascii() and _SURROGATE.search(definition):
        raise LexiconFormatError("field 'definition' holds a lone surrogate", line)
    try:
        return LexiconEntry(
            surface=record["surface"],
            kind=record["kind"],
            definition=definition,
            categories=frozenset(categories),
            productive=record.get("productive", False),
            variants=tuple(variants),
            source=record.get("source", ""),
        )
    except LexiconFormatError as exc:
        if line is not None and exc.line is None:
            raise LexiconFormatError(str(exc), line) from None
        raise


# json.loads' own C scanner, called without its Python wrapper frames
_scan_json = json.scanner.make_scanner(json.JSONDecoder())


def parse_json_line(text: str, line: int | None, error: type[ValueError]):
    """json.loads for one line of a JSON Lines file. Every line it rejects
    raises error(message, line) with a message that starts "invalid JSON",
    also those it rejects without a JSONDecodeError: an integer past int()'s
    digit limit (a plain ValueError) and nesting too deep (RecursionError).

    A line the scanner reads whole in one call is json.loads' value; any
    other line, even one with trailing whitespace, goes to json.loads
    itself, the reference and the only source of messages. The one
    departure is depth: how deep a line may nest is bounded by the stack
    left to the caller, and the scanner runs a few frames shallower than
    json.loads, so a line nested to within a few levels of that bound may
    parse here where json.loads would give "nested too deeply"."""
    try:
        value, end = _scan_json(text, 0)
    except (StopIteration, ValueError, RecursionError):
        pass
    else:
        if end == len(text):
            return value
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        message = exc.msg
    except ValueError:  # past sys.get_int_max_str_digits()
        message = "integer too long"
    except RecursionError:
        message = "nested too deeply"
    raise error(f"invalid JSON ({message})", line)


def parse_lexicon_lines(lines: Iterable[str]) -> list[LexiconEntry]:
    """Parse JSON Lines text into entries, reporting 1-based line numbers."""
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        entries.append(parse_entry(parse_json_line(text, lineno, LexiconFormatError), lineno))
    return entries


def read_lines(source: str | Path) -> list[str]:
    """The lines of a text (str) or of a UTF-8 file (Path), split on "\\n"
    only: one trailing "\\r" per line is dropped, so LF and CRLF files read
    alike, and a final newline ends the last line rather than starting an
    empty one. A file is decoded without newline translation, and
    str.splitlines is not used, so a line keeps a lone \\r, \\x0c, \\x85,
    U+2028 and other characters a definition or word may hold."""
    text = source.read_bytes().decode("utf-8") if isinstance(source, Path) else source
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


def load_lexicon(source: str | Path, blocklist: Iterable[str] = ()) -> Lexicon:
    """Load a lexicon from a JSON Lines file (Path) or raw text (str).

    Entry order in the file is preserved. The lexicon normalizes the
    optional blocklist's words; see load_word_list for the file format.
    """
    return Lexicon(parse_lexicon_lines(read_lines(source)), blocklist)


def load_word_list(source: str | Path) -> frozenset[str]:
    """Read a blocklist or a stoplist: one word per line, '#' comments and
    blanks ignored, normalized as tokens are: lowercased, letter runs
    collapsed to two. A leading UTF-8 signature (BOM) is ignored."""
    lines = read_lines(source)
    if lines:
        lines[0] = lines[0].removeprefix("\ufeff")
    words = {normalize_token(line.split("#", 1)[0].strip())[0] for line in lines}
    return frozenset(words - {""})


def _seed_text(name: str) -> str:
    return resources.files("cryptolex").joinpath("data", name).read_text(encoding="utf-8")


def seed_lexicon_text() -> str:
    """Raw JSON Lines text of the entries shipped with the package."""
    return _seed_text("seed_lexicon.jsonl")


def seed_blocklist() -> frozenset[str]:
    """The blocklist shipped with the package."""
    return load_word_list(_seed_text("blocklist.txt"))


def load_seed_lexicon() -> Lexicon:
    """The lexicon and blocklist shipped with the package."""
    return load_lexicon(seed_lexicon_text(), seed_blocklist())


@dataclass(frozen=True)
class Issue:
    severity: str  # "error" or "warning"
    message: str
    surface: str | None = None


def validate(lexicon: Lexicon) -> list[Issue]:
    """Flag data-quality gaps.

    A blocklist word that is also an entry surface is an error; missing
    category codes or glosses are warnings. Form collisions and malformed
    surfaces are not checked here: no Lexicon can hold them.
    """
    issues: list[Issue] = []
    for entry in lexicon.entries:
        if not entry.categories:
            issues.append(Issue("warning", "no category codes", entry.surface))
        if entry.kind in AFFIX_KINDS and entry.productive and not entry.definition:
            issues.append(Issue("warning", "productive affix without a definition", entry.surface))
    for word in sorted(lexicon.blocklist & {entry.surface for entry in lexicon.entries}):
        issues.append(Issue("error", f"blocklist word {word!r} is also an entry surface", word))
    return issues


@dataclass(frozen=True)
class CategoryStats:
    total: int
    counts: dict[str, int]
    percentages: dict[str, float]


def _pct_tenths(count: int, total: int) -> float:
    # round-half-up to one decimal, in exact integer arithmetic:
    # half-up(1000*count/total) / 10
    return ((2000 * count + total) // (2 * total)) / 10


def category_stats(lexicon: Lexicon) -> CategoryStats:
    """Entry counts and percentages per category code.

    Percentages are rounded half-up to one decimal. Categories are not
    exclusive, so percentages may sum past 100.
    """
    if not lexicon.entries:
        raise ValueError("lexicon has no entries")
    total = len(lexicon.entries)
    counts = {cat: 0 for cat in CATEGORIES}
    for entry in lexicon.entries:
        for cat in entry.categories:
            counts[cat] += 1
    percentages = {cat: _pct_tenths(counts[cat], total) for cat in CATEGORIES}
    return CategoryStats(total=total, counts=counts, percentages=percentages)


TSV_COLUMNS = ("surface", "kind", "productive", "categories", "variants", "definition")


def _tsv_safe(text: str) -> str:
    # definitions may not carry TSV control characters
    return text.replace("\t", " ").replace("\r", " ").replace("\n", " ")


def export_tsv(lexicon: Lexicon) -> str:
    """Render entries as spreadsheet-ready TSV, one row per entry.

    The source field is intentionally dropped, and tabs and line breaks in
    a definition become spaces: the TSV view is for review, not archival.
    """
    lines = ["\t".join(TSV_COLUMNS)]
    for e in lexicon.entries:
        lines.append(
            "\t".join(
                (
                    e.surface,
                    e.kind,
                    "true" if e.productive else "false",
                    ",".join(sorted(e.categories)),
                    ",".join(e.variants),
                    _tsv_safe(e.definition),
                )
            )
        )
    return "\n".join(lines) + "\n"

