from __future__ import annotations

import csv
import json
import os

import pytest

from cryptolex import corpus as corpus_module
from cryptolex import entries_to_jsonl, lexicon_from_tsv
from cryptolex.cli import build_parser, main

from conftest import make_post, week_ts, write_jsonl


@pytest.fixture(autouse=True)
def quiet_banner(monkeypatch):
    monkeypatch.setenv("CRYPTOLEX_NO_WARN", "1")


@pytest.fixture
def corpus(tmp_path):
    rows = [
        make_post("p1", "ann", week_ts(2020, 1), "wristcel cope harder"),
        make_post("p2", "ann", week_ts(2020, 1), "plain words"),
        make_post("p3", "bob", week_ts(2020, 2), "gymcel looksmaxxing"),
        make_post("p4", "ann", week_ts(2020, 8), "total normie"),
    ]
    return write_jsonl(tmp_path / "posts.jsonl", rows)


@pytest.fixture
def background(tmp_path):
    rows = [make_post(f"b{i}", "zed", week_ts(2020, 1), "plain words here") for i in range(3)]
    rows.append(make_post("b3", "zed", week_ts(2020, 1), "one ricecel mention"))
    return write_jsonl(tmp_path / "bg.jsonl", rows)


class TestLexiconCommand:
    def test_validate_seed(self, capsys):
        assert main(["lexicon", "validate"]) == 0
        err = capsys.readouterr().err
        assert "0 errors, 1 warnings" in err

    def test_validate_reports_errors(self, tmp_path, capsys):
        lex = tmp_path / "lex.jsonl"
        lex.write_text('{"surface": "cancel", "kind": "root"}\n', encoding="utf-8")
        block = tmp_path / "block.txt"
        block.write_text("cancel\n", encoding="utf-8")
        assert main(["lexicon", "validate", "--lexicon", str(lex), "--blocklist", str(block)]) == 1
        assert "error" in capsys.readouterr().err

    def test_stats_line(self, capsys):
        assert main(["lexicon", "stats"]) == 0
        out = capsys.readouterr().out
        assert out == "dehumanizing 12 (75.0%) racist 6 (37.5%) misogynistic 4 (25.0%)\n"

    def test_stats_of_custom_lexicon(self, tmp_path, coded_lexicon, capsys):
        lex = tmp_path / "coded.jsonl"
        lex.write_text(entries_to_jsonl(coded_lexicon.entries), encoding="utf-8")
        assert main(["lexicon", "stats", "--lexicon", str(lex)]) == 0
        out = capsys.readouterr().out
        assert out == "dehumanizing 46 (71.9%) racist 17 (26.6%) misogynistic 17 (26.6%)\n"

    def test_export_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "lex.tsv"
        assert main(["lexicon", "export", "--output", str(out_path)]) == 0
        lex = lexicon_from_tsv(out_path.read_text(encoding="utf-8"))
        assert lex.lookup("cel").kind == "suffix"

    def test_broken_lexicon_is_data_error(self, tmp_path, capsys):
        lex = tmp_path / "broken.jsonl"
        lex.write_text("not json\n", encoding="utf-8")
        assert main(["lexicon", "validate", "--lexicon", str(lex)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["lexicon", "stats", "--lexicon", str(tmp_path / "gone.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestAnnotateCommand:
    def test_corpus_stream(self, corpus, capsys):
        assert main(["annotate", "--input", str(corpus), "--workers", "1"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["id"] for r in records] == ["p1", "p2", "p3", "p4"]
        assert records[0]["spans"][0]["term"] == "wristcel"
        assert records[2]["matched_count"] == 2
        assert "posts 4" in captured.err

    def test_plain_mode(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text("Stacy ignores the gymcel", encoding="utf-8")
        assert main(["annotate", "--plain", "--input", str(doc)]) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["id"] == "plain"
        assert [s["term"] for s in record["spans"]] == ["Stacy", "gymcel"]
        assert "matched terms: Stacy, gymcel" in captured.err

    def test_output_file_and_worker_independence(self, corpus, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["annotate", "--input", str(corpus), "--workers", "1", "--output", str(a)]) == 0
        assert main(["annotate", "--input", str(corpus), "--workers", "3", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_banner_gating(self, corpus, capsys, monkeypatch):
        monkeypatch.delenv("CRYPTOLEX_NO_WARN", raising=False)
        main(["annotate", "--input", str(corpus), "--workers", "1"])
        assert "content warning" in capsys.readouterr().err
        monkeypatch.setenv("CRYPTOLEX_NO_WARN", "1")
        main(["annotate", "--input", str(corpus), "--workers", "1"])
        assert "content warning" not in capsys.readouterr().err

    def test_skip_summary(self, tmp_path, capsys):
        path = tmp_path / "posts.jsonl"
        path.write_text(
            json.dumps(make_post("p1", "u", week_ts(2020, 1), "wristcel")) + "\nbroken\n",
            encoding="utf-8",
        )
        assert main(["annotate", "--input", str(path), "--workers", "1"]) == 0
        assert "skipped 1 malformed lines" in capsys.readouterr().err

    def test_invalid_utf8_line_is_skipped(self, tmp_path, capsys):
        good = [json.dumps(make_post(f"p{i}", "u", week_ts(2020, 1), "wristcel")) for i in (1, 3)]
        path = tmp_path / "posts.jsonl"
        path.write_bytes(good[0].encode() + b'\n{"id": "p2", "text": "\xff"}\n' + good[1].encode() + b"\n")
        assert main(["annotate", "--input", str(path), "--workers", "1"]) == 0
        captured = capsys.readouterr()
        assert [json.loads(line)["id"] for line in captured.out.splitlines()] == ["p1", "p3"]
        assert "skipped 1 malformed lines (first: line 2: invalid UTF-8)" in captured.err
        assert "posts 2 " in captured.err
        assert main(["annotate", "--input", str(path), "--strict", "--workers", "1"]) == 1
        assert "error: line 2: invalid UTF-8" in capsys.readouterr().err

    def test_strict_aborts(self, tmp_path, capsys):
        path = tmp_path / "posts.jsonl"
        path.write_text("broken\n", encoding="utf-8")
        assert main(["annotate", "--input", str(path), "--strict", "--workers", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_strict_error_in_second_chunk_after_first_chunk_written(
        self, tmp_path, capsys, workers
    ):
        n = corpus_module.DEFAULT_CHUNK_LINES
        lines = [
            json.dumps(make_post(f"p{i}", "u", week_ts(2020, 1), "wristcel")) for i in range(n + 2)
        ]
        lines.insert(n + 1, "broken")  # line n + 2, in the second chunk
        path = tmp_path / "posts.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["annotate", "--input", str(path), "--strict", "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert [json.loads(line)["id"] for line in captured.out.splitlines()] == [
            f"p{i}" for i in range(n)
        ]
        assert captured.err == f"error: line {n + 2}: invalid JSON (Expecting value)\n"


class TestDiscoverCommand:
    def test_tsv_output(self, corpus, background, capsys):
        assert main(
            ["discover", "--input", str(corpus), "--background", str(background),
             "--min-count", "1", "--workers", "1"]
        ) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("token\t")
        tokens = [line.split("\t")[0] for line in lines[1:]]
        assert "wristcel" in tokens
        assert "candidates" in captured.err

    def test_stoplist_applies(self, corpus, background, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_text("wristcel\n", encoding="utf-8")
        main(
            ["discover", "--input", str(corpus), "--background", str(background),
             "--min-count", "1", "--stoplist", str(stop), "--workers", "1"]
        )
        tokens = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert "wristcel" not in tokens

    def test_jsonl_format(self, corpus, background, capsys):
        main(
            ["discover", "--input", str(corpus), "--background", str(background),
             "--min-count", "1", "--format", "jsonl", "--workers", "1"]
        )
        first = json.loads(capsys.readouterr().out.splitlines()[0])
        assert set(first) == {"token", "target_count", "background_count", "target_rank", "log_ratio"}

    def test_affix_mode(self, corpus, background, capsys):
        main(
            ["discover", "--input", str(corpus), "--background", str(background),
             "--affixes", "--min-count", "1", "--workers", "1"]
        )
        tokens = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert tokens and set(tokens) <= {"cel", "maxx", "mog", "fuel", "chad", "curry"}

    def test_sheet_output(self, corpus, background, capsys):
        main(
            ["discover", "--input", str(corpus), "--background", str(background),
             "--min-count", "1", "--sheet", "--workers", "1"]
        )
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith("definition\tdehumanizing\tracist\tmisogynistic")

    def test_alpha_zero_is_usage_error(self, corpus, background):
        assert main(
            ["discover", "--input", str(corpus), "--background", str(background), "--alpha", "0"]
        ) == 2


class TestTrajectoryCommand:
    def test_single_user_csv(self, corpus, capsys):
        assert main(["trajectory", "--input", str(corpus), "--user", "ann", "--workers", "1"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["user", "iso_week", "posts", "tokens", "matched", "rate"]
        assert rows[1] == ["ann", "2020-W01", "2", "5", "1", "0.200000"]
        assert rows[2] == ["ann", "2020-W08", "1", "2", "1", "0.500000"]

    def test_all_users_sorted(self, corpus, capsys):
        main(["trajectory", "--input", str(corpus), "--all", "--workers", "1"])
        users = [row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:]]
        assert users == ["ann", "ann", "bob"]

    def test_gap_report(self, corpus, capsys):
        main(
            ["trajectory", "--input", str(corpus), "--user", "ann", "--gaps",
             "--min-gap-weeks", "4", "--workers", "1"]
        )
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0][0] == "user"
        assert rows[1][:4] == ["ann", "2020-W01", "2020-W08", "6"]

    def test_jsonl_format(self, corpus, capsys):
        main(
            ["trajectory", "--input", str(corpus), "--user", "bob",
             "--format", "jsonl", "--workers", "1"]
        )
        record = json.loads(capsys.readouterr().out)
        assert record["user"] == "bob"
        assert record["matched"] == 2

    def test_unknown_user_is_data_error(self, corpus, capsys):
        assert main(["trajectory", "--input", str(corpus), "--user", "nobody"]) == 1
        assert "user not found" in capsys.readouterr().err

    def test_empty_corpus_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["trajectory", "--input", str(empty), "--user", "ann"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_user_and_all_conflict(self, corpus, capsys):
        assert main(["trajectory", "--input", str(corpus), "--user", "ann", "--all"]) == 2


def _crash_worker(chunk):
    os._exit(3)


class TestExitContract:
    def test_crashed_worker_is_data_error(self, corpus, background, monkeypatch, capsys):
        monkeypatch.setattr(corpus_module, "_scan_words_chunk", _crash_worker)
        argv = ["discover", "--input", str(corpus), "--background", str(background), "--workers", "2"]
        assert main(argv) == 1
        assert "error: a worker process died" in capsys.readouterr().err

    def test_workers_default_follows_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        args = build_parser().parse_args(["discover", "--input", "a", "--background", "b"])
        assert args.workers == 1

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["annotate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "lexicon" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("cryptolex ")
