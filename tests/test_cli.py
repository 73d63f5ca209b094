from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from cryptolex import (
    FrequencyTable,
    ReadReport,
    annotation_json,
    detect_gaps,
    export_series,
    load_seed_lexicon,
    log_ratio_rank,
    read_posts,
    rows_to_tsv,
    series_from_counts,
    tokenize,
)
from cryptolex import corpus as corpus_module
from cryptolex import PostFormatError
from cryptolex import cli
from cryptolex.cli import build_parser, main
from cryptolex.lexicon import seed_lexicon_text

from conftest import (
    BEYOND_JSON_PARSER,
    assert_tsv_rows,
    chunk_lines,
    lexicon_jsonl,
    make_post,
    productive_affixes,
    reference_annotation,
    reference_usage,
    tsv_rows,
    week_ts,
    write_jsonl,
)


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
        lex.write_text(lexicon_jsonl(coded_lexicon.entries), encoding="utf-8")
        assert main(["lexicon", "stats", "--lexicon", str(lex)]) == 0
        out = capsys.readouterr().out
        assert out == "dehumanizing 46 (71.9%) racist 17 (26.6%) misogynistic 17 (26.6%)\n"

    def test_export_round_trips(self, tmp_path, seed_lexicon, capsys):
        out_path = tmp_path / "lex.tsv"
        assert main(["lexicon", "export", "--output", str(out_path)]) == 0
        text = out_path.read_bytes().decode("utf-8")
        assert_tsv_rows(text, seed_lexicon.entries)
        assert {row["surface"]: row["kind"] for row in tsv_rows(text)}["cel"] == "suffix"

    def test_broken_lexicon_is_data_error(self, tmp_path, capsys):
        lex = tmp_path / "broken.jsonl"
        lex.write_text("not json\n", encoding="utf-8")
        assert main(["lexicon", "validate", "--lexicon", str(lex)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["lexicon", "stats", "--lexicon", str(tmp_path / "gone.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["validate", "export"])
    def test_unwritable_definition_fails_at_load(self, tmp_path, capsys, action):
        # a lone surrogate, which no output can encode, fails the load: so
        # validate fails, and export fails before it opens --output
        lex = tmp_path / "lex.jsonl"
        lex.write_text(
            '{"surface": "cope", "kind": "root", "definition": "\\ud800"}\n', encoding="utf-8"
        )
        out = tmp_path / "out.tsv"
        out.write_bytes(b"untouched")
        argv = ["lexicon", action, "--lexicon", str(lex)]
        assert main(argv + (["--output", str(out)] if action == "export" else [])) == 1
        assert capsys.readouterr().err == "error: line 1: field 'definition' holds a lone surrogate\n"
        assert out.read_bytes() == b"untouched"

    def test_validate_output_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        assert main(["lexicon", "validate", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "cryptolex lexicon: error: --output needs stats or export\n"
        assert not out.exists()


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

    def test_plain_mode_offsets_count_carriage_returns(self, tmp_path, capsys):
        # offsets index the file's own text: a newline-translating read
        # would put wristcel at 5, one short
        doc = tmp_path / "doc.txt"
        doc.write_bytes(b"cope\r\nwristcel\r\n")
        assert main(["annotate", "--plain", "--input", str(doc)]) == 0
        record = json.loads(capsys.readouterr().out)
        spans = {s["term"]: (s["start"], s["end"]) for s in record["spans"]}
        assert spans["wristcel"] == (6, 14)

    def test_plain_mode_invalid_utf8_is_data_error(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_bytes(b"wristcel \xff\n")
        assert main(["annotate", "--plain", "--input", str(doc)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_blocklist_with_byte_order_mark_blocks_its_first_word(self, corpus, tmp_path, capsys):
        outputs = []
        for text in ("gymcel\n", "\ufeffgymcel\n"):
            block = tmp_path / "block.txt"
            block.write_bytes(text.encode("utf-8"))
            assert main(["annotate", "--input", str(corpus), "--blocklist", str(block)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert '"term": "gymcel"' not in outputs[0].out

    def test_output_file_and_worker_independence(self, corpus, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["annotate", "--input", str(corpus), "--workers", "1", "--output", str(a)]) == 0
        assert main(["annotate", "--input", str(corpus), "--workers", "3", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_output_naming_the_input_is_usage_error(self, corpus, capsys, workers):
        # the scan reads the input while it writes the output, so opening
        # the output for writing would first empty the corpus
        before = corpus.read_bytes()
        argv = ["annotate", "--input", str(corpus), "--workers", workers]
        assert main([*argv, "--output", str(corpus)]) == 2
        assert corpus.read_bytes() == before
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "cryptolex annotate: error: --output names the --input file\n"

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        gone = tmp_path / "gone.jsonl"
        assert main(["annotate", "--input", str(gone), "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(gone)!r}\n"
        # named as the output too, the missing input was once created empty
        # and read as an empty corpus, with exit 0
        assert main(["annotate", "--input", str(gone), "--output", str(gone)]) == 2
        assert not gone.exists()

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
        n = corpus_module.CHUNK_LINES
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

    def test_stoplist_entries_are_normalized(self, tmp_path, background, capsys):
        # discover counts normalized tokens, so "The" and "SOOOOO" stop the
        # rows "the" and "soo"
        rows = [make_post(f"p{i}", "ann", week_ts(2020, 1), "The sooo wristcel") for i in range(2)]
        target = write_jsonl(tmp_path / "target.jsonl", rows)
        stop = tmp_path / "stop.txt"
        stop.write_text("The\nSOOOOO\n", encoding="utf-8")
        argv = ["discover", "--input", str(target), "--background", str(background),
                "--min-count", "1", "--workers", "1", "--stoplist", str(stop)]
        assert main(argv) == 0
        tokens = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert tokens == ["wristcel"]

    def test_stoplist_comment_is_not_a_word(self, tmp_path, background, capsys):
        # a stoplist reads as a blocklist does: "#" starts a comment
        rows = [make_post(f"p{i}", "ann", week_ts(2020, 1), "the wristcel") for i in range(2)]
        target = write_jsonl(tmp_path / "target.jsonl", rows)
        stop = tmp_path / "stop.txt"
        stop.write_text("# words to leave out\nthe  # article\n", encoding="utf-8")
        argv = ["discover", "--input", str(target), "--background", str(background),
                "--min-count", "1", "--workers", "1", "--stoplist", str(stop)]
        assert main(argv) == 0
        tokens = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert tokens == ["wristcel"]

    def test_missing_stoplist_fails_before_the_scan(
        self, corpus, background, tmp_path, capsys, monkeypatch
    ):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before the stoplist was read")

        monkeypatch.setattr("cryptolex.cli.scan_tables", no_scan)
        stop = tmp_path / "missing.txt"
        argv = ["discover", "--input", str(corpus), "--background", str(background),
                "--stoplist", str(stop), "--workers", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: [Errno 2] No such file or directory: '{stop}'" in err
        assert "candidates" not in err

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
        argv = ["discover", "--input", str(corpus), "--background", str(background),
                "--min-count", "1", "--workers", "1"]
        assert main([*argv, "--format", "sheet"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith("definition\tdehumanizing\tracist\tmisogynistic")
        # the sheet is one --format value, not a flag that overrides --format
        assert main([*argv, "--sheet"]) == 2

    @pytest.mark.parametrize("strict", [True, False])
    def test_missing_background_after_bad_target_line(self, corpus, tmp_path, capsys, strict):
        # the background is opened while target chunks are still in flight at
        # two workers; its error must still come after the target's results
        target = tmp_path / "target.jsonl"
        target.write_text(corpus.read_text(encoding="utf-8") + "broken\n", encoding="utf-8")
        missing = tmp_path / "missing.jsonl"
        errors = []
        for workers in ("1", "2"):
            argv = ["discover", "--input", str(target), "--background", str(missing),
                    "--workers", workers] + (["--strict"] if strict else [])
            assert main(argv) == 1
            errors.append(capsys.readouterr().err)
        if strict:
            expected = "error: line 5: invalid JSON (Expecting value)\n"
        else:
            expected = f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert errors == [expected, expected]

    def test_alpha_zero_is_usage_error(self, corpus, background):
        assert main(
            ["discover", "--input", str(corpus), "--background", str(background), "--alpha", "0"]
        ) == 2

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_non_finite_alpha_is_usage_error(self, corpus, background, capsys, alpha):
        argv = ["discover", "--input", str(corpus), "--background", str(background)]
        assert main([*argv, "--alpha", alpha]) == 2
        assert "argument --alpha: must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["1e-320", "1e308"])
    def test_alpha_out_of_float_range_is_data_error(self, corpus, background, capsys, alpha):
        # ricecel is in the target and not in the background: at 1e-320 its
        # background share is a denormal and its ratio overflows; at 1e308
        # alpha * vocab overflows, and every share is 0
        argv = ["discover", "--input", str(background), "--background", str(corpus),
                "--min-count", "1", "--workers", "1", "--alpha", alpha]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: alpha={float(alpha)!r} gives token ")
        assert err.endswith(" a non-finite log ratio\n")

    @pytest.mark.parametrize("flag", ["--lexicon", "--blocklist"])
    def test_lexicon_flag_without_affixes_is_usage_error(
        self, corpus, background, tmp_path, flag, capsys
    ):
        # the flag is refused before its file is read, so a missing one is no excuse
        args = ["discover", "--input", str(corpus), "--background", str(background)]
        assert main([*args, flag, str(tmp_path / "missing.jsonl")]) == 2
        assert f"{flag} needs --affixes" in capsys.readouterr().err


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


# each command with every file it reads, named by the flag's placeholder
READING_COMMANDS = {
    "annotate": ["annotate", "--input", "{input}", "--lexicon", "{lexicon}",
                 "--blocklist", "{blocklist}"],
    "annotate-plain": ["annotate", "--plain", "--input", "{input}", "--lexicon", "{lexicon}",
                       "--blocklist", "{blocklist}"],
    "discover": ["discover", "--input", "{input}", "--background", "{background}",
                 "--stoplist", "{stoplist}"],
    "discover-affixes": ["discover", "--affixes", "--input", "{input}", "--background",
                         "{background}", "--stoplist", "{stoplist}", "--lexicon", "{lexicon}",
                         "--blocklist", "{blocklist}"],
    "trajectory": ["trajectory", "--all", "--input", "{input}", "--lexicon", "{lexicon}",
                   "--blocklist", "{blocklist}"],
    "lexicon-stats": ["lexicon", "stats", "--lexicon", "{lexicon}", "--blocklist", "{blocklist}"],
    "lexicon-export": ["lexicon", "export", "--lexicon", "{lexicon}", "--blocklist", "{blocklist}"],
}
READ_FLAGS = [
    (name, flag)
    for name, argv in READING_COMMANDS.items()
    for flag, value in zip(argv, argv[1:])
    if value.startswith("{")
]


@pytest.fixture
def read_files(tmp_path, corpus, background):
    """A file for each flag of READING_COMMANDS, by its placeholder."""
    files = {"input": corpus, "background": background}
    for name, text in (
        ("lexicon", seed_lexicon_text()),
        ("blocklist", "# blocked\nwristcel\n"),
        ("stoplist", "# left out\nplain\n"),
    ):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text, encoding="utf-8")
    return files


class TestExitContract:
    def test_crashed_worker_is_data_error(self, corpus, background, monkeypatch, capsys):
        monkeypatch.setattr(corpus_module, "_scan_words_chunk", _crash_worker)
        argv = ["discover", "--input", str(corpus), "--background", str(background), "--workers", "2"]
        assert main(argv) == 1
        assert "error: a worker process died" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, reason", BEYOND_JSON_PARSER)
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_json_beyond_the_parser_is_a_malformed_line(
        self, tmp_path, capsys, raw, reason, workers
    ):
        good = json.dumps(make_post("p1", "u", week_ts(2020, 1), "wristcel"))
        path = tmp_path / "posts.jsonl"
        path.write_text(f"{good}\n{raw}\n{good}\n", encoding="utf-8")
        argv = ["trajectory", "--all", "--input", str(path), "--workers", workers]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert f"skipped 1 malformed lines (first: line 2: invalid JSON ({reason}))" in err
        assert main(argv + ["--strict"]) == 1
        assert capsys.readouterr().err == f"error: line 2: invalid JSON ({reason})\n"

    @pytest.mark.parametrize(
        "command, field", [(["annotate"], "id"), (["trajectory", "--all"], "user")]
    )
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_lone_surrogate_in_a_written_field_is_a_malformed_line(
        self, tmp_path, capsys, command, field, workers
    ):
        # json.dumps writes it as a \ud800 escape, which decodes to a str
        # that the UTF-8 output could not encode
        good = make_post("p1", "u", week_ts(2020, 1), "wristcel")
        path = tmp_path / "posts.jsonl"
        lines = [good, {**good, "id": "p2", field: "x\ud800"}, good]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        out = tmp_path / "out"
        argv = [*command, "--input", str(path), "--workers", workers, "--output", str(out)]
        assert main(argv) == 0
        reason = f"line 2: field {field!r} holds a lone surrogate"
        assert f"skipped 1 malformed lines (first: {reason})" in capsys.readouterr().err
        written = out.read_text(encoding="utf-8")
        if field == "id":
            assert [json.loads(line)["id"] for line in written.splitlines()] == ["p1", "p1"]
        else:
            assert written.splitlines()[1:] == ["u,2020-W01,2,2,2,1.000000"]
        assert main(argv + ["--strict"]) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["lexicon", "validate"], "--lexicon"),
            (["lexicon", "validate"], "--blocklist"),
            (["annotate", "--input", "{corpus}"], "--output"),
            (["discover", "--input", "{corpus}", "--background", "{background}"], "--stoplist"),
        ],
    )
    def test_empty_path_is_usage_error(self, corpus, background, capsys, command, flag):
        # an empty value once read as the flag not given: the bundled data,
        # stdout, or no stoplist
        argv = [arg.format(corpus=corpus, background=background) for arg in command]
        assert main([*argv, flag, ""]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: must not be empty" in err

    @pytest.mark.parametrize("name, flag", READ_FLAGS)
    def test_output_naming_a_file_the_command_reads_is_usage_error(
        self, read_files, capsys, name, flag
    ):
        # writing --output would replace the named file with the command's
        # output; annotate would empty its corpus before reading it
        argv = [arg.format(**read_files) for arg in READING_COMMANDS[name]]
        named = read_files[flag[2:]]
        before = named.read_bytes()
        assert main([*argv, "--output", str(named)]) == 2
        assert named.read_bytes() == before
        assert capsys.readouterr() == (
            "", f"cryptolex {argv[0]}: error: --output names the {flag} file\n"
        )

    @pytest.mark.parametrize(
        "name, flag", [("trajectory", "--input"), ("lexicon-export", "--lexicon")]
    )
    def test_output_naming_a_read_file_by_a_link_is_usage_error(
        self, read_files, tmp_path, capsys, name, flag
    ):
        # the paths differ, so only samefile sees that they name one file
        argv = [arg.format(**read_files) for arg in READING_COMMANDS[name]]
        named = read_files[flag[2:]]
        link = tmp_path / "link"
        link.symlink_to(named)
        before = named.read_bytes()
        assert main([*argv, "--output", str(link)]) == 2
        assert named.read_bytes() == before
        assert capsys.readouterr() == (
            "", f"cryptolex {argv[0]}: error: --output names the {flag} file\n"
        )

    @pytest.mark.parametrize("name", [*READING_COMMANDS, "lexicon-validate"])
    def test_directory_output_fails_before_any_input_is_read(
        self, read_files, tmp_path, capsys, monkeypatch, name
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("read an input before the output was checked")

        for reader in ("scan_tables", "scan_usage", "scan_annotations", "load_lexicon"):
            monkeypatch.setattr(cli, reader, no_read)
        command = READING_COMMANDS.get(name, ["lexicon", "validate"])
        argv = [arg.format(**read_files) for arg in command]
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main([*argv, "--output", str(folder)]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write --output {folder}: it is a directory\n"
        )

    @pytest.mark.parametrize(
        "command",
        [
            ["discover", "--input", "{missing}", "--background", "{missing}", "--workers", "1"],
            ["trajectory", "--all", "--input", "{missing}", "--workers", "1"],
            ["annotate", "--input", "{missing}", "--workers", "1"],
            ["lexicon", "export", "--lexicon", "{missing}"],
        ],
    )
    def test_unwritable_output_fails_before_the_input_is_read(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # the output is opened only after the scan, so its folder is checked first
        argv = [arg.format(missing=tmp_path / "missing.jsonl") for arg in command]
        out = tmp_path / "missing" / "out.tsv"
        assert main([*argv, "--output", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write --output {out}: no directory {out.parent}\n"
        )
        assert not out.parent.exists()
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        out = tmp_path / "out.tsv"
        assert main([*argv, "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write --output {out}: directory {tmp_path} is not writable\n"
        )
        assert not out.exists()

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


# A CLI-level differential property test: small corpora with malformed
# lines, non-ASCII text and the two code points the word reader lowers word
# by word (İ and Σ), read in 2-line chunks at one worker and at two, and
# each command's result, in skip and strict mode, against a one-process
# reference built from read_posts, tokenize and decompose.
CLI_BAD_LINES = [b"", b"broken", b'{"id": "x"}', b"\xff\xfe", b"[1]"]
cli_texts = st.one_of(
    # the last is lowered word by word, or İ's two-character lowercase
    # splits its first word in two
    st.sampled_from(
        ["wristcel cope", "mogging sooo hard", "currycel mogg", "the gymcels lifts", "wİristcel ΣOOO"]
    ),
    st.text(alphabet="İΣσςıIé wristcelmog'_", max_size=20),
    st.text(max_size=20),
)
cli_lines = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["u1", "u2"]), st.integers(1, 12), cli_texts),
        st.sampled_from(CLI_BAD_LINES),
    ),
    max_size=8,
)


def render_cli_lines(items) -> bytes:
    out = []
    for i, item in enumerate(items):
        if isinstance(item, tuple):
            user, week, text = item
            item = json.dumps(make_post(f"p{i}", user, week_ts(2020, week), text)).encode()
        out.append(item + b"\n")
    return b"".join(out)


def skip_summary(report: ReadReport) -> str:
    if not report.skipped:
        return ""
    return f"skipped {report.skipped} malformed lines (first: {report.first_error})\n"


def reference_discover(posts, background, words, strict) -> tuple[int, str, str, bytes | None]:
    """What discover --min-count 1 gives, in one process: each source's
    table from words(text) over read_posts, ranked and rendered. In strict
    mode the first malformed line, the target's before the background's,
    ends the run."""
    report, tables = ReadReport(), []
    for source in (posts, background):
        source_report = ReadReport()
        try:
            texts = [post.text for post in read_posts(source, strict=strict, report=source_report)]
        except PostFormatError as exc:
            return 1, "", f"error: {exc}\n", None
        report.add(source_report)
        counts = Counter(word for text in texts for word in words(text))
        tables.append(FrequencyTable(dict(counts), sum(counts.values()), len(texts)))
    for which, table in zip(("target", "background"), tables):
        if not table.counts:
            return 1, "", f"error: {which} table is empty\n", None
    target, background = tables
    rows = log_ratio_rank(target, background, min_count=1)
    summary = (
        f"candidates {len(rows)} (target {target.total_tokens} tokens, "
        f"background {background.total_tokens} tokens)\n"
    )
    return 0, "", skip_summary(report) + summary, rows_to_tsv(rows).encode()


def reference_trajectory(posts, lexicon, strict) -> tuple[int, str, str, bytes | None]:
    """What trajectory --all --gaps gives, in one process: usage cells from
    the best parses of reference_annotation. In strict mode the first
    malformed line ends the run."""
    report = ReadReport()
    try:
        usage = reference_usage(read_posts(posts, strict=strict, report=report), lexicon)
    except PostFormatError as exc:
        return 1, "", f"error: {exc}\n", None
    if not usage:
        return 1, "", skip_summary(report) + "error: empty corpus: no posts parsed\n", None
    per_user: dict = {}
    for (user, week), cell in usage.items():
        per_user.setdefault(user, {})[week] = cell
    gaps = [detect_gaps(series_from_counts(user, per_user[user])) for user in sorted(per_user)]
    summary = f"users {len(gaps)} gaps {sum(len(r.gaps) for r in gaps)}\n"
    return 0, "", skip_summary(report) + summary, export_series(gaps).encode()


def reference_annotate(posts, lexicon, strict, chunk) -> tuple[int, str, str, bytes]:
    """What annotate gives when it reads chunks of `chunk` lines, in one
    process: an annotation_json line per post from reference_annotation. In
    strict mode the first malformed line ends the run, and the output holds
    the chunks before the one that line is in."""
    source, error = posts, None
    if strict:
        try:
            for _ in read_posts(posts, strict=True):
                pass
        except PostFormatError as exc:
            error = exc
            source = posts.read_bytes().split(b"\n")[: (exc.line - 1) // chunk * chunk]
    report = ReadReport()
    anns = [reference_annotation(p.text, lexicon, p.id) for p in read_posts(source, report=report)]
    written = "".join(annotation_json(ann) + "\n" for ann in anns).encode()
    if error is not None:
        return 1, "", f"error: {error}\n", written
    tokens, matched = sum(a.token_count for a in anns), sum(a.matched_count for a in anns)
    rate = matched / tokens if tokens else 0.0
    summary = f"posts {len(anns)} tokens {tokens} matched {matched} rate {rate:.6f}\n"
    return 0, "", skip_summary(report) + summary, written


def run_cli(argv: list[str], output) -> tuple[int, str, str, bytes | None]:
    """main's exit code, stdout, stderr and output file, which it removes."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--output", str(output)])
    written = output.read_bytes() if output.exists() else None
    output.unlink(missing_ok=True)
    return code, stdout.getvalue(), stderr.getvalue(), written


# three users, first seen in unsorted order, each with a 5-week gap: the
# gap rows come out in sorted user order, which the reference checks
USER_ORDER_EXAMPLE = [
    ("u3", 1, "wristcel cope"),
    ("u1", 1, "mogging sooo hard"),
    ("u2", 2, "currycel mogg"),
    b"broken",
    ("u3", 7, "the gymcels lifts"),
    ("u2", 8, "wristcel"),
    ("u1", 7, "cope"),
]


@settings(max_examples=25, deadline=None)
@given(cli_lines, cli_lines)
@example(USER_ORDER_EXAMPLE, [("u1", 1, "plain words")])
def test_cli_output_does_not_depend_on_workers(tmp_path_factory, items, background_items):
    work = tmp_path_factory.mktemp("cli")
    posts, background = work / "posts.jsonl", work / "background.jsonl"
    posts.write_bytes(render_cli_lines(items))
    background.write_bytes(render_cli_lines(background_items))
    missing = work / "missing.jsonl"
    commands = {
        "annotate": ["annotate", "--input", str(posts)],
        "words": ["discover", "--input", str(posts),
                  "--background", str(background), "--min-count", "1"],
        "affixes": ["discover", "--affixes", "--input", str(posts),
                    "--background", str(background), "--min-count", "1"],
        "missing-background": ["discover", "--input", str(posts), "--background", str(missing)],
        "trajectory": ["trajectory", "--all", "--gaps", "--input", str(posts)],
    }
    lexicon = load_seed_lexicon()
    chunk = 2
    with chunk_lines(chunk):
        for strict in (False, True):
            mode = ["--strict"] if strict else []
            # outputs from one process, without the scans or the memo
            references = {
                "annotate": reference_annotate(posts, lexicon, strict, chunk),
                "words": reference_discover(
                    posts, background, lambda text: [t.normalized for t in tokenize(text)], strict
                ),
                "affixes": reference_discover(
                    posts, background, lambda text: productive_affixes(text, lexicon), strict
                ),
                "trajectory": reference_trajectory(posts, lexicon, strict),
            }
            for name, argv in commands.items():
                one, two = (
                    run_cli([*argv, *mode, "--workers", w], work / "out") for w in ("1", "2")
                )
                assert one == two, (name, mode)
                if name == "missing-background":
                    assert one[0] == 1, mode
                else:
                    assert one == references[name], (name, mode)
