"""Lexicon model for an in-group cryptolect.

Design goals:

- entries are plain data (surface, kind, gloss, category codes), easy to
  review and diff in JSON Lines form;
- the lexicon is immutable after load and safe to share across workers;
- ordinary-English collisions are handled by an explicit blocklist rather
  than frequency modeling, so every exclusion is auditable.
"""

from __future__ import annotations

import json
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

# a letter three or more times running; token normalization collapses it to two
LETTER_RUN3 = re.compile(r"([^\W\d_])\1\1+")


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

    def forms(self) -> tuple[str, ...]:
        return (self.surface, *self.variants)


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


@dataclass
class Lexicon:
    """Immutable entry collection plus lookup indexes.

    Do not mutate after construction; build a new one instead. Indexes map
    every surface and variant to its entry, and affix forms are kept in
    longest-first order for the segmenter.
    """

    entries: tuple[LexiconEntry, ...]
    blocklist: frozenset[str] = frozenset()
    by_surface: dict[str, LexiconEntry] = field(default_factory=dict, repr=False)
    by_variant: dict[str, LexiconEntry] = field(default_factory=dict, repr=False)
    prefix_forms: tuple[tuple[str, LexiconEntry], ...] = field(default=(), repr=False)
    suffix_forms: tuple[tuple[str, LexiconEntry], ...] = field(default=(), repr=False)

    def lookup(self, form: str) -> LexiconEntry | None:
        entry = self.by_surface.get(form)
        if entry is None:
            entry = self.by_variant.get(form)
        return entry

    def __len__(self) -> int:
        return len(self.entries)


def build_lexicon(entries: Iterable[LexiconEntry], blocklist: Iterable[str] = ()) -> Lexicon:
    """Index entries and enforce cross-entry uniqueness.

    Every surface and variant must be globally unique; a collision makes
    lookup ambiguous, so it is an error rather than a warning.
    """
    entries = tuple(entries)
    by_surface: dict[str, LexiconEntry] = {}
    by_variant: dict[str, LexiconEntry] = {}
    for entry in entries:
        if entry.surface in by_surface:
            raise LexiconFormatError(f"duplicate surface {entry.surface!r}")
        by_surface[entry.surface] = entry
    for entry in entries:
        for v in entry.variants:
            if v in by_surface:
                raise LexiconFormatError(
                    f"variant {v!r} of {entry.surface!r} collides with surface {v!r}"
                )
            if v in by_variant:
                other = by_variant[v].surface
                raise LexiconFormatError(
                    f"variant {v!r} of {entry.surface!r} collides with variant of {other!r}"
                )
            by_variant[v] = entry

    def affix_forms(kind: str) -> tuple[tuple[str, LexiconEntry], ...]:
        forms = [
            (form, entry)
            for entry in entries
            if entry.kind == kind
            for form in entry.forms()
        ]
        # longest first so greedy matching prefers the most specific affix
        forms.sort(key=lambda fe: (-len(fe[0]), fe[0]))
        return tuple(forms)

    return Lexicon(
        entries=entries,
        blocklist=frozenset(blocklist),
        by_surface=by_surface,
        by_variant=by_variant,
        prefix_forms=affix_forms("prefix"),
        suffix_forms=affix_forms("suffix"),
    )


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
    try:
        return LexiconEntry(
            surface=record["surface"],
            kind=record["kind"],
            definition=record.get("definition", ""),
            categories=frozenset(categories),
            productive=record.get("productive", False),
            variants=tuple(variants),
            source=record.get("source", ""),
        )
    except LexiconFormatError as exc:
        if line is not None and exc.line is None:
            raise LexiconFormatError(str(exc), line) from None
        raise


def parse_lexicon_lines(lines: Iterable[str]) -> list[LexiconEntry]:
    """Parse JSON Lines text into entries, reporting 1-based line numbers."""
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LexiconFormatError(f"invalid JSON ({exc.msg})", lineno) from None
        entries.append(parse_entry(record, lineno))
    return entries


def load_lexicon(source: str | Path, blocklist: Iterable[str] = ()) -> Lexicon:
    """Load a lexicon from a JSON Lines file (Path) or raw text (str).

    Entry order in the file is preserved. The optional blocklist is attached
    as-is; see load_blocklist for the file format.
    """
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    else:
        text = source
    # "\n" only: splitlines would break a record at a raw U+2028 and the like
    return build_lexicon(parse_lexicon_lines(text.split("\n")), blocklist)


def split_lines(text: str) -> list[str]:
    """Split on "\\n" only, dropping one trailing "\\r" per line, so LF and
    CRLF files read alike; str.splitlines would also break a line at \\x0c,
    \\x85, U+2028 and other characters a definition or word may hold."""
    return [line.removesuffix("\r") for line in text.split("\n")]


def load_blocklist(source: str | Path) -> frozenset[str]:
    """Read a blocklist: one word per line, '#' comments and blanks ignored."""
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    else:
        text = source
    words = set()
    for raw in split_lines(text):
        word = raw.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return frozenset(words)


def _seed_text(name: str) -> str:
    return resources.files("cryptolex").joinpath("data", name).read_text(encoding="utf-8")


def seed_lexicon_text() -> str:
    """Raw JSON Lines text of the entries shipped with the package."""
    return _seed_text("seed_lexicon.jsonl")


def seed_blocklist() -> frozenset[str]:
    """The blocklist shipped with the package."""
    return load_blocklist(_seed_text("blocklist.txt"))


def load_seed_lexicon() -> Lexicon:
    """The lexicon and blocklist shipped with the package."""
    return load_lexicon(seed_lexicon_text(), seed_blocklist())


@dataclass(frozen=True)
class Issue:
    severity: str  # "error" or "warning"
    message: str
    surface: str | None = None


def validate(lexicon: Lexicon) -> list[Issue]:
    """Re-check lexicon invariants and flag data-quality gaps.

    Structural violations (collisions, malformed surfaces) are errors;
    missing category codes or glosses are warnings. load_lexicon already
    rejects the errors, so this mostly matters for hand-built lexicons.
    """
    issues: list[Issue] = []
    seen: dict[str, str] = {}
    for entry in lexicon.entries:
        for form in entry.forms():
            if form in seen:
                issues.append(
                    Issue("error", f"form {form!r} collides with {seen[form]!r}", entry.surface)
                )
            else:
                seen[form] = entry.surface
        if not entry.categories:
            issues.append(Issue("warning", "no category codes", entry.surface))
        if entry.kind in AFFIX_KINDS and entry.productive and not entry.definition:
            issues.append(Issue("warning", "productive affix without a definition", entry.surface))
    for word in sorted(lexicon.blocklist & set(lexicon.by_surface)):
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

    The source field is intentionally dropped; the TSV view is for review,
    not archival. Converting back with lexicon_from_tsv reproduces every
    other field.
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


def lexicon_from_tsv(text: str, blocklist: frozenset[str] = frozenset()) -> Lexicon:
    """Rebuild a Lexicon from export_tsv output (source comes back empty)."""
    # numbered before blank lines drop out, so errors name the physical line
    rows = [(lineno, line) for lineno, line in enumerate(split_lines(text), start=1) if line]
    if not rows or tuple(rows[0][1].split("\t")) != TSV_COLUMNS:
        raise LexiconFormatError("missing or mangled TSV header")
    entries = []
    for lineno, line in rows[1:]:
        cols = line.split("\t")
        if len(cols) != len(TSV_COLUMNS):
            raise LexiconFormatError(f"expected {len(TSV_COLUMNS)} columns", lineno)
        surface, kind, productive, categories, variants, definition = cols
        if productive not in ("true", "false"):
            raise LexiconFormatError(f"productive must be true/false, got {productive!r}", lineno)
        entries.append(
            parse_entry(
                {
                    "surface": surface,
                    "kind": kind,
                    "definition": definition,
                    "categories": [c for c in categories.split(",") if c],
                    "productive": productive == "true",
                    "variants": [v for v in variants.split(",") if v],
                },
                lineno,
            )
        )
    return build_lexicon(entries, blocklist)


def entry_to_json(entry: LexiconEntry) -> str:
    """One canonical JSON Lines record; categories sorted for stable diffs."""
    return json.dumps(
        {
            "surface": entry.surface,
            "kind": entry.kind,
            "definition": entry.definition,
            "categories": sorted(entry.categories),
            "productive": entry.productive,
            "variants": list(entry.variants),
            "source": entry.source,
        },
        ensure_ascii=False,
    )


def entries_to_jsonl(entries: Iterable[LexiconEntry]) -> str:
    return "".join(entry_to_json(e) + "\n" for e in entries)
