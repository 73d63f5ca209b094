from __future__ import annotations

import json
from datetime import date, datetime, timezone
from pathlib import Path

import pytest
from hypothesis import strategies as st

from cryptolex import Lexicon, LexiconEntry, build_lexicon, load_seed_lexicon

# definitions mixing in every character str.splitlines breaks a line on
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
definitions = st.text() | st.text(alphabet=LINE_BREAKS + "a\t ")


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
    return build_lexicon(entries)
