"""Command-line behavior: exit codes, output schemas, preprocessing flags."""
import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tailtest import BlockedTestResult, BrysonResult, DatasetError, TailTestResult
from tailtest.base import read_text
from tailtest.cli import _COMMANDS, build_parser, command_parser, main, read_dataset
from tailtest.bryson import MIN_TABLE_REPS
from tailtest.power import CSV_HEADER, MIN_PLAN_REPS, PLAN_KEYS

E = math.e
DATA = Path(__file__).resolve().parents[1] / "data" / "synthetic"

MEDIUM = [E, E**2, E**3]                                  # T inside the medium band
SHORT = [1.2, 1.5, 2.0]                                   # all above ln(max): T = 0
LONG = list(np.linspace(2.0, 100.0, 99)) + [1e8]          # giant extreme spacing
HUGE = [-1.7e308, -1.6e308, 1.7e308]                      # the top spacing overflows to inf
BLOCKED = ["--blocks", "2", "--block-strategy", "sequential"]
# the command index's usage line, which starts each refusal it words
TREE_USAGE = "usage: tailtest [-h] {test,simulate,bryson,bryson-quantiles} ...\n"


def field_names(result_type) -> set:
    return {field.name for field in dataclasses.fields(result_type)}


def strict_json(text: str):
    """Parse text as JSON, refusing NaN, Infinity and -Infinity as strict parsers do."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestReadDataset:
    def test_reads_values_and_counts_skips(self, write_dataset):
        path = write_dataset([1.5, 2.5], header="# header comment")
        values, skipped = read_dataset(path)
        assert list(values) == [1.5, 2.5]
        assert skipped == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1.0\n\n\n2.0\n", encoding="utf-8")
        values, skipped = read_dataset(str(path))
        assert list(values) == [1.0, 2.0]
        assert skipped == 2

    def test_bad_lines_reported_with_numbers(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1.0\noops\n2.0\nnan\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"line\(s\) 2, 4"):
            read_dataset(str(path))

    def test_missing_file(self):
        with pytest.raises(ValueError, match="cannot read"):
            read_dataset("/no/such/file.txt")

    def test_undecodable_file_is_a_dataset_error(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_bytes(b"1.0\n2.0\ncaf\xe9\n")
        with pytest.raises(DatasetError, match=f"^cannot read {re.escape(str(path))}: 'utf-8'"):
            read_dataset(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# only comments\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data lines"):
            read_dataset(str(path))

    @pytest.mark.parametrize("command", [["test"], ["simulate", "--plan"]])
    def test_file_not_utf8_is_named(self, command, tmp_path, capsys):
        # a dataset or plan file that does not decode names itself in the error
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff1.5\n2.5\n")
        assert main([*command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "cannot read " if command == ["test"] else ""
        assert captured.err == (f"tailtest: error: {prefix}{path}: 'utf-8' codec can't decode "
                                "byte 0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("command", [["test"], ["bryson"], ["simulate", "--plan"]])
    def test_empty_path_is_quoted(self, command, capsys):
        # an empty path once left a bare colon: "cannot read : [Errno 2] ..."
        assert main([*command, ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "" if command[0] == "simulate" else "cannot read "
        assert captured.err == (f"tailtest: error: {prefix}'': "
                                "[Errno 2] No such file or directory: ''\n")

    @pytest.mark.parametrize("command", [["test"], ["bryson", "--reps", "1000"]])
    def test_dataset_with_utf8_bom_reads_as_without(self, command, tmp_path, capsys):
        # a byte-order mark in front of the first line is not part of the data
        original = DATA / "fibers.txt"
        bom = tmp_path / "fibers.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        payloads = []
        for path in (original, bom):
            code = main([command[0], str(path), *command[1:], "--json"])
            payload = json.loads(capsys.readouterr().out)
            assert payload.pop("path") == str(path)
            payloads.append((code, payload))
        assert payloads[0] == payloads[1]
        assert payloads[0][1]["skipped_lines"] == 1  # the comment line, BOM or not


class TestTestCommand:
    def test_medium_exits_zero(self, write_dataset, capsys):
        code = main(["test", write_dataset(MEDIUM)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Medium" in out
        assert "T" in out

    def test_short_exits_two(self, write_dataset, capsys):
        code = main(["test", write_dataset(SHORT)])
        assert code == 2
        assert "Short" in capsys.readouterr().out

    def test_long_exits_three(self, write_dataset, capsys):
        code = main(["test", write_dataset(LONG)])
        assert code == 3
        assert "Long" in capsys.readouterr().out

    def test_unreadable_data_exits_one(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        path.write_text("1.0\nnot-a-number\n", encoding="utf-8")
        code = main(["test", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line(s) 2" in err

    def test_missing_file_exits_one(self, capsys):
        assert main(["test", "/no/such/file.txt"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_statistic_undefined_exits_one(self, write_dataset, capsys):
        code = main(["test", write_dataset([0.2, 0.5, 0.9])])
        err = capsys.readouterr().err
        assert code == 1
        assert "not above 1" in err

    def test_json_payload(self, write_dataset, capsys):
        code = main(["test", write_dataset(MEDIUM), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "Medium"
        assert payload["mode"] == "plain"
        assert payload["n"] == 3
        assert payload["alpha"] == 0.05
        assert payload["t_stat"] == pytest.approx(1.7159933233335359, abs=1e-12)
        assert payload["p_long"] == pytest.approx(math.exp(-payload["t_stat"]), rel=1e-12)
        # stable schema: dumping the parsed payload reproduces the line
        assert json.dumps(payload, sort_keys=True) == out.strip()

    @pytest.mark.parametrize("blocks, result_type",
                             [([], TailTestResult), (BLOCKED, BlockedTestResult)])
    def test_json_keys_are_the_result_fields_and_the_cli_keys(
            self, blocks, result_type, write_dataset, capsys):
        # a field added to a result reaches the JSON with no edit to the CLI
        main(["test", write_dataset(MEDIUM * 2), *blocks, "--json"])
        cli_keys = {"command", "path", "n", "skipped_lines", "shift", "negate", "abs", "mode"}
        assert set(json.loads(capsys.readouterr().out)) == field_names(result_type) | cli_keys

    def test_json_writes_a_non_finite_value_as_null(self, write_dataset, capsys):
        path = write_dataset(HUGE)
        code = main(["test", path, "--json"])
        payload = strict_json(capsys.readouterr().out)
        assert code == 3
        assert (payload["spacing"], payload["t_stat"], payload["decision"]) == (None, None, "Long")
        # the text output and exit code are as before
        assert main(["test", path]) == 3
        assert "\nT                inf\n" in capsys.readouterr().out

    def test_blocked_json_writes_a_non_finite_block_stat_as_null(self, write_dataset, capsys):
        path = write_dataset(HUGE + MEDIUM)  # the first of two sequential blocks gives T = inf
        code = main(["test", path, *BLOCKED, "--json"])
        payload = strict_json(capsys.readouterr().out)
        assert code == 3
        assert payload["block_stats"][0] is None and payload["sum_stat"] is None
        assert payload["block_stats"][1] == pytest.approx(1.7159933233335359, abs=1e-12)
        assert main(["test", path, *BLOCKED]) == 3
        assert "\nblock_stats  inf 1.71599\n" in capsys.readouterr().out

    def test_json_schema_is_stable_across_runs(self, write_dataset, capsys):
        path = write_dataset(MEDIUM)
        main(["test", path, "--json"])
        first = capsys.readouterr().out
        main(["test", path, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_alpha_changes_decision(self, write_dataset):
        # T = 1.716, p_long = 0.18: long at alpha 0.2, medium at 0.05
        path = write_dataset(MEDIUM)
        assert main(["test", path]) == 0
        assert main(["test", path, "--alpha", "0.2"]) == 3

    def test_alpha_label_keeps_every_digit(self, write_dataset, capsys):
        # :g would print alpha=0.025, another level than the one tested
        main(["test", write_dataset(MEDIUM), "--alpha", "0.0250000001"])
        assert "Medium (alpha=0.0250000001)\n" in capsys.readouterr().out

    def test_shift_value(self, write_dataset, capsys):
        # shifting by 1.2 moves a short sample to a defined medium-band one
        path = write_dataset([2.4, 3.2, 4.9])
        code = main(["test", path, "--shift", "1.2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 2, 3)
        assert payload["shift"] == 1.2

    def test_shift_min(self, write_dataset, capsys):
        values = [3.0, 4.0, 5.0, 9.0]
        path = write_dataset(values)
        main(["test", path, "--shift", "min", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["shift"] == 3.0

    @pytest.mark.parametrize("text,shift", [(" MIN ", 3.0), ("NONE", 0.0)])
    def test_shift_words_in_any_case_and_spacing(self, text, shift, write_dataset, capsys):
        # cli._shift is the one reader of --shift's words; shift_sample takes only "min"
        code = main(["test", write_dataset([3.0, 4.0, 5.0, 9.0]), "--shift", text, "--json"])
        assert code in (0, 2, 3)
        assert json.loads(capsys.readouterr().out)["shift"] == shift

    def test_shift_parse_error(self, write_dataset, capsys):
        code = main(["test", write_dataset(MEDIUM), "--shift", "median"])
        assert code == 1
        assert "--shift" in capsys.readouterr().err

    def test_shift_that_overflows_a_value_exits_one(self, write_dataset, capsys):
        # 1e308 + 1e308 is inf: refused with no numpy warning, before any statistic
        code = main(["test", write_dataset([1e308, 5.0, 3.0]), "--shift=-1e308"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "tailtest: error: shift -1e+308 leaves non-finite values at position(s) 1\n")

    @pytest.mark.parametrize("blocks", ["1", "2"])
    def test_two_values_exit_one_in_one_message(self, blocks, write_dataset, capsys):
        # block_sizes' words at every k; at k = 1 once "need at least 3 values to test, got n=2"
        code = main(["test", write_dataset([5.0, 7.0]), "--blocks", blocks])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "tailtest: error: n=2 is below the 3-point minimum of a block\n"

    def test_negate_tests_left_tail(self, write_dataset):
        negated = write_dataset([-v for v in LONG], name="neg.txt")
        plain = write_dataset(LONG, name="plain.txt")
        assert main(["test", negated, "--negate"]) == main(["test", plain])

    def test_abs_folds_sign(self, write_dataset, capsys):
        folded = write_dataset([-E, E**2, -(E**3)], name="signed.txt")
        code = main(["test", folded, "--abs", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["t_stat"] == pytest.approx(1.7159933233335359, abs=1e-12)
        assert payload["abs"] is True

    def test_blocked_mode(self, write_dataset, capsys):
        path = write_dataset(list(MEDIUM) + list(MEDIUM))
        code = main(["test", path, "--blocks", "2", "--block-strategy", "sequential", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["mode"] == "blocked"
        assert payload["k"] == 2
        assert payload["block_sizes"] == [3, 3]
        assert payload["sum_stat"] == pytest.approx(2 * 1.7159933233335359, abs=1e-12)

    def test_blocked_text_output(self, write_dataset, capsys):
        path = write_dataset(list(MEDIUM) + list(MEDIUM))
        code = main(["test", path, "--blocks", "2", "--block-strategy", "sequential"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sum_stat" in out
        assert "block_sizes" in out

    def test_bad_blocks_exits_one(self, write_dataset, capsys):
        assert main(["test", write_dataset(MEDIUM), "--blocks", "0"]) == 1
        capsys.readouterr()

    def test_infeasible_blocks_exits_one(self, write_dataset, capsys):
        assert main(["test", write_dataset(MEDIUM), "--blocks", "2"]) == 1
        assert "feasible" in capsys.readouterr().err

    def test_blocked_test_at_a_tiny_level_decides(self, capsys):
        # the upper critical value is solved on its own tail: at alpha = 1e-20,
        # 1 - alpha is 1.0 and no quantile of it exists. Fibers' block sum lies
        # between the two values there
        code = main(["test", str(DATA / "fibers.txt"), "--blocks", "5", "--alpha", "1e-20",
                     "--json"])
        payload = strict_json(capsys.readouterr().out)
        assert (code, payload["decision"]) == (0, "Medium")
        assert 0.0 < payload["lower_crit"] < payload["sum_stat"] < payload["upper_crit"] < 60.0

    def test_tied_max_warning(self, write_dataset, capsys):
        code = main(["test", write_dataset([1.0, 2.0, 3.0, 3.0])])
        out = capsys.readouterr().out
        assert code == 2
        assert "tie" in out


class TestSimulateCommand:
    def test_inline_plan_csv(self, capsys):
        code = main(["simulate", "--dist", "exp:1", "--n", "50", "--reps", "200", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("exp:1,50,1,0.05,")

    def test_threads_do_not_change_output(self, capsys):
        args = ["simulate", "--dist", "pareto:1", "--n", "40,80", "--reps", "300", "--seed", "5"]
        main(args + ["--threads", "1"])
        one = capsys.readouterr().out
        main(args + ["--threads", "8"])
        eight = capsys.readouterr().out
        assert one == eight

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_threads_exits_one(self, threads, capsys):
        code = main(["simulate", "--dist", "exp:1", "--n", "50", "--reps", "200",
                     "--threads", threads])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "threads must be >= 1" in captured.err

    def test_alpha_column_keeps_every_digit(self, capsys):
        # :g would write 0.0123457, a level that reads back as another float
        code = main(["simulate", "--dist", "exp:1", "--n", "50", "--reps", "200",
                     "--alpha", "0.0123456789"])
        assert code == 0
        assert capsys.readouterr().out.split("\n")[1].startswith("exp:1,50,1,0.0123456789,")

    def test_plan_file(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("dist=exp:1\nn=60\nreps=200\nseed=2\n", encoding="utf-8")
        code = main(["simulate", "--plan", str(plan)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith(CSV_HEADER)
        assert ",60,1," in out

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_plan_file_rows_count_every_replicate(self, bom, tmp_path, capsys):
        # a plan saved with a byte-order mark runs as the same plan
        plan = tmp_path / "plan.txt"
        plan.write_text(bom + "dist = exp:1\nn = 50, 100\nreps = 300\nseed = 3\n",
                        encoding="utf-8")
        code = main(["simulate", "--plan", str(plan), "--format", "json"])
        [report] = json.loads(capsys.readouterr().out)["reports"]
        assert code == 0
        assert report["reps"] == 300
        assert [row["n"] for row in report["rows"]] == [50, 100]
        for row in report["rows"]:
            assert sum(row[f"{c}_count"] for c in ("short", "medium", "long", "error")) == 300

    def test_plan_conflicts_with_inline(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("dist=exp:1\nn=60\n", encoding="utf-8")
        code = main(["simulate", "--plan", str(plan), "--dist", "exp:1"])
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--k", "5"], ["--alpha", "0.1"], ["--reps", "200"],
                                        ["--seed", "9"], ["--smallmax-policy", "short"]])
    def test_plan_refuses_each_other_plan_option(self, option, tmp_path, capsys):
        # the plan file states the whole plan; an option beside it was once dropped unread
        plan = tmp_path / "plan.txt"
        plan.write_text("dist=exp:1\nn=60\nreps=100\n", encoding="utf-8")
        code = main(["simulate", "--plan", str(plan), *option])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"tailtest: error: --plan and {option[0]} are mutually exclusive\n"

    @pytest.mark.parametrize("args, message", [
        (["--plan", "", "--dist", "exp:1", "--n", "100", "--reps", "100"],
         "--plan and --dist/--n/--reps are mutually exclusive"),
        (["--dist", "exp:1", "--n", ""], "could not parse --n=''"),
        (["--dist", "", "--n", "100"], "unknown distribution family ''; valid families: exp, "
         "logistic, gamma, uniform, normal, lognormal, gumbel, cauchy, t, pareto, weibull, "
         "loggamma"),
    ], ids=["plan", "n", "dist"])
    def test_an_empty_option_is_given(self, args, message, capsys):
        # an empty text reaches its reader; it was once taken for an option not given
        code = main(["simulate", *args])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"tailtest: error: {message}\n"

    def test_plan_refusal_names_every_option_given(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("dist=exp:1\nn=60\n", encoding="utf-8")
        code = main(["simulate", "--plan", str(plan), "--k", "5", "--reps", "200", "--seed", "9"])
        assert code == 1
        assert capsys.readouterr().err == (
            "tailtest: error: --plan and --k/--reps/--seed are mutually exclusive\n")

    @pytest.mark.parametrize("n", ["50,50", "50,100,50"])
    def test_repeated_n_exits_one(self, n, capsys):
        # the CSV would repeat the row and the md table would show it once
        code = main(["simulate", "--dist", "exp:1", "--n", n, "--reps", "100"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "tailtest: error: sample size n=50 is repeated\n"

    def test_repeated_n_in_a_plan_file_exits_one(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("dist=exp:1\nn = 50, 100, 50\nreps=100\n", encoding="utf-8")
        assert main(["simulate", "--plan", str(plan)]) == 1
        assert capsys.readouterr().err == "tailtest: error: sample size n=50 is repeated\n"

    def test_needs_dist_and_n(self, capsys):
        assert main(["simulate", "--dist", "exp:1"]) == 1
        assert main(["simulate"]) == 1
        capsys.readouterr()

    def test_out_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code = main([
            "simulate", "--dist", "exp:1", "--n", "50",
            "--reps", "200", "--out", str(out_path),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_text(encoding="utf-8").startswith(CSV_HEADER)

    def test_json_format(self, capsys):
        code = main([
            "simulate", "--dist", "exp:1", "--n", "50", "--reps", "200", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["reports"][0]["dist"] == "exp:1"

    def test_md_format(self, capsys):
        code = main([
            "simulate", "--dist", "exp:1", "--n", "50", "--reps", "200", "--format", "md",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("| n | exp:1 S | exp:1 L |")

    def test_bad_dist_exits_one(self, capsys):
        assert main(["simulate", "--dist", "nosuch", "--n", "50", "--reps", "200"]) == 1
        assert "unknown distribution" in capsys.readouterr().err

    @pytest.mark.parametrize("policy,counts", [
        ("error", {"refused_count": 100, "error_count": 100, "equal_count": 0,
                   "first_refused": 0, "short_count": 0}),
        ("short", {"short_count": 100, "medium_count": 0, "long_count": 0, "error_count": 0}),
    ], ids=["error", "short"])
    def test_smallmax_policy_flag(self, policy, counts, capsys):
        # every uniform maximum is below 1: under 'error' each replicate is refused, from
        # replicate 0 on, and under 'short' each is Short by the rule
        code = main(["simulate", "--dist", "uniform", "--n", "50", "--reps", "100",
                     "--smallmax-policy", policy, "--format", "json"])
        [row] = json.loads(capsys.readouterr().out)["reports"][0]["rows"]
        assert code == 0
        assert {key: row[key] for key in counts} == counts

    @pytest.mark.parametrize("dist", ["pareto:0.01", "loggamma:1,800"])
    @pytest.mark.parametrize("k", ["1", "5"])
    def test_overflowing_draw_exits_one(self, dist, k, capsys):
        # the draws overflow to inf; the plan aborts with the named error, the
        # row and replicate, and no numpy warning (pytest would fail on one)
        code = main(["simulate", "--dist", dist, "--n", "100", "--k", k, "--reps", "100"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "tailtest: error: n=100, replicate 0: "
            "draw overflowed to inf; sample maximum must be finite\n"
        )

    def test_overflow_names_the_first_replicate_that_overflows(self, capsys):
        # seed 0: no pareto:0.01 draw of 4 overflows in 100 replicates; at
        # n = 10, replicate 27 is the first that does
        code = main(["simulate", "--dist", "pareto:0.01", "--n", "4,10", "--reps", "100"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "tailtest: error: n=10, replicate 27: "
            "draw overflowed to inf; sample maximum must be finite\n"
        )

    def test_overflow_names_the_first_n_in_grid_order_that_met_one(self, capsys):
        # seed 0: n = 3000 overflows first, at replicate 875, but the plan makes one pass
        # and names n = 40, the first n of the grid that overflowed, at replicate 915
        code = main(["simulate", "--dist", "pareto:0.02", "--n", "40,3000", "--reps", "1000",
                     "--seed", "0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            "tailtest: error: n=40, replicate 915: "
            "draw overflowed to inf; sample maximum must be finite\n"
        )

    @pytest.mark.parametrize("k", ["1", "5"])
    def test_overflow_past_the_first_chunk_names_the_replicate(self, k, capsys):
        # at n=1000 a scoring chunk holds 16 replicates; 915 is in chunk 58
        code = main(["simulate", "--dist", "pareto:0.02", "--n", "1000", "--k", k,
                     "--reps", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "tailtest: error: n=1000, replicate 915: "
            "draw overflowed to inf; sample maximum must be finite\n"
        )

    def test_consecutive_calls_do_not_share_arguments(self, capsys):
        # main builds each command's parser once per process; every call parses afresh
        assert command_parser("simulate") is command_parser("simulate")
        argv = ["simulate", "--dist", "exp:1", "--n", "100", "--reps", "100", "--format", "json"]
        assert main(argv + ["--k", "5", "--seed", "3", "--smallmax-policy", "short"]) == 0
        first = json.loads(capsys.readouterr().out)["reports"][0]
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)["reports"][0]
        assert (first["k"], first["seed"], first["smallmax_policy"]) == (5, 3, "short")
        assert (second["k"], second["seed"], second["smallmax_policy"]) == (1, 0, "raw")

    @pytest.mark.parametrize("n", ["0", "2"])
    def test_n_below_block_minimum_exits_one(self, n, capsys):
        code = main(["simulate", "--dist", "exp:1", "--n", n, "--reps", "100"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"tailtest: error: n={n} is below the 3-point minimum of a block\n"

    def test_unparseable_n_names_the_flag(self, capsys):
        code = main(["simulate", "--dist", "exp:1", "--n", "5,x", "--reps", "100"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "tailtest: error: could not parse --n='5,x'\n"

    def test_unparseable_k_names_the_flag(self, capsys):
        # --k is read by the plan key's reader, as --n is, not by argparse
        code = main(["simulate", "--dist", "exp:1", "--n", "50", "--k", "abc"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "tailtest: error: could not parse --k='abc'\n"

    def test_unwritable_out_fails_before_any_replicate(self, tmp_path, monkeypatch, capsys):
        # the table's file is opened as a shell redirection would, before the plan runs
        def never(plan, threads=1):
            raise AssertionError("run_plan ran before --out was opened")

        monkeypatch.setattr("tailtest.cli.run_plan", never)
        out = tmp_path / "missing" / "table.csv"
        code = main(["simulate", "--dist", "exp:1", "--n", "50", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("tailtest: error: [Errno 2] No such file or directory")

    def test_strategy_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--dist", "exp:1", "--n", "50", "--strategy", "shuffle"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            f"{TREE_USAGE}tailtest: error: unrecognized arguments: --strategy shuffle\n")


class _Planned(Exception):
    """Raised by a stand-in run_plan to hand back the plan `simulate` built."""


def simulate_plan(argv, monkeypatch, capsys):
    """(plan, None) for the plan `simulate argv` builds, without running it, or
    (None, stderr) when it exits 1 before running."""
    def stop(plan, threads=1):
        raise _Planned(plan)

    monkeypatch.setattr("tailtest.cli.run_plan", stop)
    try:
        code = main(["simulate", *argv])
    except _Planned as planned:
        return planned.args[0], None
    assert code == 1
    return None, capsys.readouterr().err


# one readable and one unreadable text for every plan key
PLAN_KEY_TEXTS = [
    ("dist", "pareto:2"), ("dist", "nosuch"), ("n", "50, 100"), ("n", "ten"),
    ("k", "2"), ("k", "two"), ("alpha", "0.1"), ("alpha", "5%"), ("reps", "500"),
    ("reps", "1e4"), ("seed", "9"), ("seed", "-1"), ("smallmax_policy", "short"),
    ("smallmax_policy", "ignore"),
]


@pytest.mark.parametrize("key,text", PLAN_KEY_TEXTS)
def test_options_read_as_plan_keys(key, text, tmp_path, monkeypatch, capsys):
    # a value given as simulate's option and as a plan-file line gives the same plan,
    # or the same error bar the file's "{path}: " and the option's "--"
    assert key in PLAN_KEYS
    texts = {"dist": "exp:1", "n": "100", key: text}
    path = tmp_path / "plan.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in texts.items()), encoding="utf-8")
    flag = "--" + key.replace("_", "-")
    options = [arg for k, v in texts.items() for arg in ("--" + k.replace("_", "-"), v)]
    from_file = simulate_plan(["--plan", str(path)], monkeypatch, capsys)
    from_options = simulate_plan(options, monkeypatch, capsys)
    if from_file[0] is not None:
        assert from_options == from_file
    else:
        assert from_options[1] == from_file[1].replace(f"{path}: ", "").replace(
            f"could not parse {key}=", f"could not parse {flag}=")
        assert from_options[1].startswith("tailtest: error: ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--dist", "exp:1", "--n", "50", "--seed", "-1"],
    ["simulate", "--plan", "PLAN"],
    ["test", str(DATA / "claims.txt"), "--blocks", "5", "--block-seed", "-1"],
    # a block seed is checked whatever the strategy and k: these once exited 2 with a decision
    ["test", str(DATA / "claims.txt"), "--blocks", "5", "--block-strategy", "sequential",
     "--block-seed", "-1"],
    ["test", str(DATA / "claims.txt"), "--block-seed", "-1"],
    ["bryson", str(DATA / "claims.txt"), "--seed", "-1"],
    ["bryson-quantiles", "--dist", "exp:1", "--n", "50", "--seed", "-1"],
])
def test_seed_refusal_names_the_seed(argv, tmp_path, capsys):
    # every command's seed, and a plan's seed key, is SeedSpec's base_seed
    plan = tmp_path / "plan.txt"
    plan.write_text("dist = exp:1\nn = 50\nseed = -1\n", encoding="utf-8")
    assert main([str(plan) if arg == "PLAN" else arg for arg in argv]) == 1
    assert capsys.readouterr().err == (
        "tailtest: error: seed must be an integer from 0 to 2**64 - 1, got -1\n")


# what each command needs besides the option under test
COMMAND_ARGS = {
    "test": [str(DATA / "claims.txt")],
    "simulate": ["--dist", "exp:1", "--n", "50"],
    "bryson": [str(DATA / "claims.txt")],
    "bryson-quantiles": ["--dist", "exp:1", "--n", "50"],
}
# one text each command's reader refuses, for every option read from text but --dist
BAD_OPTION_TEXTS = [
    ("test", "--alpha", "5%"), ("test", "--blocks", "two"), ("test", "--block-seed", "1.5"),
    ("test", "--shift", "median"),
    ("simulate", "--n", "abc"), ("simulate", "--k", "two"), ("simulate", "--alpha", "5%"),
    ("simulate", "--reps", "1e4"), ("simulate", "--seed", "x"), ("simulate", "--threads", "two"),
    ("bryson", "--alpha", "5%"), ("bryson", "--reps", "1e4"), ("bryson", "--seed", "x"),
    ("bryson-quantiles", "--n", "abc"), ("bryson-quantiles", "--reps", "1e4"),
    ("bryson-quantiles", "--seed", "x"), ("bryson-quantiles", "--probs", "0.5,x"),
]


@pytest.mark.parametrize("cmd,flag,text", BAD_OPTION_TEXTS)
def test_every_option_is_refused_one_way(cmd, flag, text, capsys):
    code = main([cmd, *COMMAND_ARGS[cmd], flag, text])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"tailtest: error: could not parse {flag}={text!r}\n"


def tree_commands() -> dict:
    """build_parser's subparser of each command, by name."""
    [commands] = [action.choices for action in build_parser()._actions
                  if isinstance(action.choices, dict)]
    return commands


def test_no_option_is_read_by_argparse():
    # every option is text; main reads those each command lists, and all of them are above
    assert list(tree_commands()) == list(COMMAND_ARGS)
    for cmd in COMMAND_ARGS:
        parser = command_parser(cmd)
        assert all(action.type is None for action in parser._actions)
        read = {"--" + name.replace("_", "-") for name in parser.get_default("read")}
        assert read <= {flag for c, flag, _ in BAD_OPTION_TEXTS if c == cmd}


# a good text for each option of BAD_OPTION_TEXTS; VALID_ARGVS also sets every flag that
# takes no text, a choice of each option that has choices, and --out
GOOD_OPTION_TEXTS = {"--alpha": "0.1", "--blocks": "2", "--block-seed": "3", "--shift": "min",
                     "--n": "60", "--k": "2", "--reps": "2000", "--seed": "4",
                     "--threads": "2", "--probs": "0.5,0.9"}
VALID_ARGVS = [[cmd, *COMMAND_ARGS[cmd]] for cmd in COMMAND_ARGS] + [
    [cmd, *COMMAND_ARGS[cmd], flag, GOOD_OPTION_TEXTS[flag]] for cmd, flag, _ in BAD_OPTION_TEXTS
] + [
    ["test", *COMMAND_ARGS["test"], "--json"], ["bryson", *COMMAND_ARGS["bryson"], "--json"],
    ["test", *COMMAND_ARGS["test"], "--negate", "--abs", "--block-strategy", "sequential"],
    ["simulate", *COMMAND_ARGS["simulate"], "--format", "md", "--out", "table.md"],
]


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
def test_every_valid_line_is_read_whole_by_its_commands_parser(argv):
    # the command's parser is the only one that holds its options: it must leave nothing
    # over, keep each option's text as given, and every text it reads must pass its reader
    args, extra = command_parser(argv[0]).parse_known_args(argv[1:])
    assert extra == []
    words = argv[1 + len(COMMAND_ARGS[argv[0]]):]
    for i, word in enumerate(words):
        if not word.startswith("--"):
            continue
        held = getattr(args, word[2:].replace("-", "_"))
        if i + 1 < len(words) and not words[i + 1].startswith("--"):
            assert held == words[i + 1], word
        else:
            assert held is True, word
    for name, read in args.read.items():
        read_text(name, getattr(args, name), read)


@pytest.mark.parametrize("argv", [
    ["test", str(DATA / "fibers.txt"), "--json"],
    ["simulate", "--dist", "exp:1", "--n", "50", "--reps", "100"],
    ["bryson", str(DATA / "fibers.txt"), "--reps", "1000"],
    ["bryson-quantiles", "--dist", "exp:1", "--n", "50", "--reps", "1000"],
], ids=lambda argv: argv[0])
def test_a_valid_call_builds_one_parser(argv, monkeypatch, capsys):
    # the full parser's five parsers took most of a fresh `test` call; a valid line needs
    # only its command's
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    command_parser.cache_clear()
    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) in (0, 2)
    capsys.readouterr()
    assert built == [f"tailtest {argv[0]}"]
    assert build_parser.cache_info().currsize == 0


@pytest.mark.parametrize("cmd,least", [
    ("simulate", MIN_PLAN_REPS), ("bryson", MIN_TABLE_REPS), ("bryson-quantiles", MIN_TABLE_REPS),
])
def test_reps_help_states_the_minimum_its_check_refuses(cmd, least, capsys):
    with pytest.raises(SystemExit):
        main([cmd, "--help"])
    assert f"at least {least}" in " ".join(capsys.readouterr().out.split())
    assert main([cmd, *COMMAND_ARGS[cmd], "--reps", str(least - 1)]) == 1
    assert capsys.readouterr().err == f"tailtest: error: reps must be >= {least}, got {least - 1}\n"


class TestBrysonCommands:
    def test_bryson_on_exponential_data(self, write_dataset, capsys):
        rng = np.random.default_rng(6)
        path = write_dataset(list(rng.standard_exponential(60)))
        code = main(["bryson", path, "--reps", "1000", "--seed", "4"])
        out = capsys.readouterr().out
        assert code in (0, 2, 3)
        assert "t_star" in out
        assert "decision" in out

    def test_bryson_json(self, write_dataset, capsys):
        rng = np.random.default_rng(6)
        path = write_dataset(list(rng.standard_exponential(60)))
        code = main(["bryson", path, "--reps", "1000", "--seed", "4", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "bryson"
        assert payload["n"] == 60
        assert payload["null_dist"] == "exp:1"
        assert payload["decision"] in ("Short", "Medium", "Long")
        assert code == {"Medium": 0, "Short": 2, "Long": 3}[payload["decision"]]
        assert set(payload) == field_names(BrysonResult) | {"command", "path", "skipped_lines"}

    @pytest.mark.parametrize("values", [[1e160, 5.0, 3.0, 2.0], [1e-200, 2e-200, 3e-200, 5e-200]])
    def test_bryson_far_from_unit_scale_decides(self, values, write_dataset, capsys):
        # mean * max overflows for the first and GA^2 underflows for the second
        code = main(["bryson", write_dataset(values), "--reps", "1000", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert math.isfinite(payload["t_star"])
        assert code == {"Medium": 0, "Short": 2, "Long": 3}[payload["decision"]]

    def test_bryson_alpha_label_keeps_every_digit(self, write_dataset, capsys):
        rng = np.random.default_rng(6)
        path = write_dataset(list(rng.standard_exponential(60)))
        main(["bryson", path, "--reps", "1000", "--alpha", "0.0250000001"])
        out = capsys.readouterr().out
        assert "(alpha=0.0250000001)\n" in out
        assert "(alpha=0.025)" not in out

    def test_bryson_quantiles_csv(self, capsys):
        code = main([
            "bryson-quantiles", "--dist", "exp:1", "--n", "30",
            "--reps", "1000", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["dist", "n", "reps", "seed", "prob", "quantile", "stderr"]
        assert len(rows) == 5
        assert [r[4] for r in rows[1:]] == ["0.025", "0.05", "0.95", "0.975"]
        quantiles = [float(r[5]) for r in rows[1:]]
        assert quantiles == sorted(quantiles)

    def test_bryson_quantiles_custom_probs(self, capsys):
        code = main([
            "bryson-quantiles", "--dist", "gamma:2", "--n", "30",
            "--reps", "1000", "--probs", "0.05,0.95",
        ])
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert code == 0
        assert len(rows) == 3
        assert rows[1][0] == "gamma:2"

    def test_bryson_quantiles_probs_that_differ_past_six_digits(self, capsys):
        # :g labelled both rows 0.0123457
        code = main(["bryson-quantiles", "--dist", "exp:1", "--n", "30", "--reps", "1000",
                     "--probs", "0.0123456789,0.0123457"])
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert code == 0
        assert [r[4] for r in rows[1:]] == ["0.0123456789", "0.0123457"]

    def test_bryson_quantiles_unparseable_probs_names_the_flag(self, capsys):
        code = main([
            "bryson-quantiles", "--dist", "exp:1", "--n", "30", "--reps", "1000",
            "--probs", "0.5,x",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "tailtest: error: could not parse --probs='0.5,x'\n"

    @pytest.mark.parametrize("dist", ["normal", "logistic", "gumbel", "cauchy", "t:3"])
    def test_bryson_quantiles_negative_support_exits_one(self, dist, capsys):
        code = main(["bryson-quantiles", "--dist", dist, "--n", "30", "--reps", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"{dist} takes negative values; T* needs nonnegative data" in captured.err

    @pytest.mark.parametrize("dist", ["pareto:0.01", "loggamma:1,800"])
    def test_bryson_quantiles_overflowing_draw_exits_one(self, dist, capsys):
        code = main(["bryson-quantiles", "--dist", dist, "--n", "100", "--reps", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "tailtest: error: n=100, replicate 0: "
            "draw overflowed to inf; sample maximum must be finite\n"
        )

    def test_bryson_quantiles_overflow_names_the_first_replicate(self, capsys):
        code = main(["bryson-quantiles", "--dist", "pareto:0.01", "--n", "10", "--reps", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "tailtest: error: n=10, replicate 27: "
            "draw overflowed to inf; sample maximum must be finite\n"
        )

    def test_bryson_quantiles_overflow_past_the_first_chunk(self, capsys):
        # at n=3000 a scoring chunk holds 8 replicates; 875 is in the 110th chunk
        code = main(["bryson-quantiles", "--dist", "pareto:0.02", "--n", "3000", "--reps", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "tailtest: error: n=3000, replicate 875: "
            "draw overflowed to inf; sample maximum must be finite\n"
        )

    def test_bryson_quantiles_unscoreable_replicate_is_named(self, capsys):
        # every gamma:1e-300 draw underflows to 0, so no replicate has a positive maximum
        code = main(["bryson-quantiles", "--dist", "gamma:1e-300", "--n", "50", "--reps", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "tailtest: error: n=50, replicate 0: smallest value plus max/(n-1) is 0; "
            "the geometric mean needs every shifted value > 0\n"
        )

    def test_bryson_rejects_negative_data(self, write_dataset, capsys):
        path = write_dataset([-0.5, 1, 2, 3, 4, 5])
        code = main(["bryson", path, "--reps", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "tailtest: error: smallest value is -0.5; T* needs nonnegative data\n"
        )

    def test_bryson_refuses_two_values(self, write_dataset, capsys):
        # T* of any two values is 1/4, so the test could decide nothing
        code = main(["bryson", write_dataset([1.0, 3.0]), "--reps", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "tailtest: error: T* needs at least 3 values, got n=2; "
            "with 2 it is 1/4 for any data, so it cannot tell tails apart\n"
        )

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_bryson_quantiles_refuses_fewer_than_three_values(self, n, capsys):
        code = main(["bryson-quantiles", "--dist", "exp:1", "--n", n, "--reps", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"tailtest: error: T* needs at least 3 values, got n={n}; "
            "with 2 it is 1/4 for any data, so it cannot tell tails apart\n"
        )

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_bryson_quantiles_nonpositive_n_exits_one(self, n, capsys):
        code = main(["bryson-quantiles", "--dist", "exp:1", "--n", n, "--reps", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"tailtest: error: n must be >= 1, got {n}\n"


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        assert capsys.readouterr() == (
            "", f"{TREE_USAGE}tailtest: error: the following arguments are required: cmd\n")

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 1
        assert capsys.readouterr() == ("", (
            f"{TREE_USAGE}tailtest: error: argument cmd: invalid choice: 'bogus' "
            "(choose from 'test', 'simulate', 'bryson', 'bryson-quantiles')\n"))

    def test_an_argument_left_over_is_refused_by_the_full_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", str(DATA / "fibers.txt"), "extra"])
        assert exc.value.code == 1
        assert capsys.readouterr() == (
            "", f"{TREE_USAGE}tailtest: error: unrecognized arguments: extra\n")

    @pytest.mark.parametrize("argv", [["-h"], ["test", "--help"]], ids=" ".join)
    def test_help_is_the_reading_parsers(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        parser = build_parser() if len(argv) == 1 else command_parser(argv[0])
        assert capsys.readouterr() == (parser.format_help(), "")

    @pytest.mark.parametrize("argv", [
        ["--json", "test", str(DATA / "fibers.txt")], ["--json", "test"],
        ["--", "test", str(DATA / "fibers.txt")],
    ], ids=["--json test FILE", "--json test", "-- test FILE"])
    def test_a_line_must_start_with_its_command(self, argv, capsys):
        # the index reads only the first word, so an option before the command names none
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr() == (
            "", f"{TREE_USAGE}tailtest: error: the following arguments are required: cmd\n")

    def test_an_argument_left_over_builds_only_its_commands_options(self, monkeypatch, capsys):
        called = []

        def wrapped(name, add_options):
            def add(parser):
                called.append(name)
                add_options(parser)
            return add

        for name, (help_text, add_options) in list(_COMMANDS.items()):
            monkeypatch.setitem(_COMMANDS, name, (help_text, wrapped(name, add_options)))
        command_parser.cache_clear()
        build_parser.cache_clear()
        with pytest.raises(SystemExit):
            main(["test", str(DATA / "fibers.txt"), "extra"])
        assert called == ["test"]
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: extra\n")

    @pytest.mark.parametrize("argv", [["--he"], ["-h", "test"]], ids=" ".join)
    def test_a_help_option_first_prints_the_indexs_help(self, argv, capsys):
        # the index reads only the first word, so help before a command is the top-level help
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr() == (build_parser().format_help(), "")

    @pytest.mark.parametrize("argv,message", [
        (["--"], "the following arguments are required: cmd"),
        (["-x"], "the following arguments are required: cmd"),
        (["bogus", "x", "y"], "argument cmd: invalid choice: 'bogus' "
                              "(choose from 'test', 'simulate', 'bryson', 'bryson-quantiles')"),
    ], ids=["--", "-x", "bogus x y"])
    def test_a_first_word_that_names_no_command_is_refused_by_the_index(self, argv, message,
                                                                         capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr() == ("", f"{TREE_USAGE}tailtest: error: {message}\n")

    def test_the_index_holds_no_option(self):
        for name, sub in tree_commands().items():
            assert [action.dest for action in sub._actions] == ["help"], name

    def test_bad_flag_value(self, capsys):
        # read by the command's reader in main, before the file is opened
        assert main(["test", "file.txt", "--blocks", "two"]) == 1
        assert capsys.readouterr().err == "tailtest: error: could not parse --blocks='two'\n"

    def test_exit_codes_never_collide_with_short(self):
        # usage and runtime errors use 1; the decision codes are 0, 2, 3
        from tailtest.cli import _EXIT_CODE

        assert set(_EXIT_CODE.values()) == {0, 2, 3}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--dist", "exp:1", "--n", str(10**17), "--reps", "100"],
        ["bryson-quantiles", "--dist", "exp:1", "--n", str(10**17), "--reps", "1000"],
    ], ids=["simulate", "bryson-quantiles"])
    def test_an_impossible_allocation_is_one_error_line(self, argv, capsys):
        # one replicate of 10**17 values is 800 PB, which no allocator grants, so the
        # first chunk's np.empty refuses it before anything is allocated
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert re.fullmatch(r"tailtest: error: Unable to allocate .+ with shape "
                            rf"\(1, {10**17}\) and data type float64\n", captured.err)

    def test_a_key_error_is_a_bug_and_keeps_its_traceback(self, monkeypatch):
        # no command raises KeyError on purpose, so main does not turn one into exit 1
        def lookup_fails(path):
            raise KeyError("missing")

        monkeypatch.setattr("tailtest.cli.read_dataset", lookup_fails)
        with pytest.raises(KeyError, match="missing"):
            main(["test", str(DATA / "fibers.txt")])


def run_fresh(*args):
    """Run a fresh interpreter with src/ first on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency; a fresh interpreter shows what the CLI loads
    proc = run_fresh("-c", "import sys, tailtest.cli; sys.exit('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr or "importing tailtest.cli loaded scipy"


def test_plain_test_leaves_numpy_random_unloaded():
    # a plain test draws nothing; a blocked one loads numpy.random at its shuffle
    code = ("import sys; from tailtest.cli import main; main(['test', sys.argv[1], '--json']); "
            "sys.exit('numpy.random' in sys.modules)")
    proc = run_fresh("-c", code, str(DATA / "fibers.txt"))
    assert proc.returncode == 0, proc.stderr or "a plain test loaded numpy.random"


def test_no_command_loads_numpy_ma():
    # np.quantile, np.percentile and np.unique load numpy.ma (np.unique through
    # np.ma.is_masked), which would cost a timed first call its import
    fibers = str(DATA / "fibers.txt")
    runs = [
        (["bryson-quantiles", "--dist", "exp:1", "--n", "50", "--reps", "1000"], 0),
        (["bryson", fibers, "--reps", "1000"], 2),
        (["simulate", "--dist", "exp:1", "--n", "50", "--reps", "100"], 0),
        (["simulate", "--dist", "uniform", "--n", "50", "--reps", "100",
          "--smallmax-policy", "error"], 0),
        (["test", fibers], 2),
        (["test", fibers, "--blocks", "5"], 2),
    ]
    code = ("import json, sys; from tailtest.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]), file=sys.stderr)")
    proc = run_fresh("-c", code, json.dumps([argv for argv, _ in runs]))
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert codes == [rc for _, rc in runs], proc.stderr
    assert not loaded, "a command loaded numpy.ma"


def test_console_script_target_exits_with_the_decision():
    # the [project.scripts] entry, called as the installed wrapper calls it; read as
    # text, since tomllib is not in Python 3.10
    pyproject = (DATA.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    [(module, func)] = re.findall(r'^\[project\.scripts\]\ntailtest = "([\w.]+):(\w+)"$',
                                  pyproject, re.M)
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = run_fresh("-c", code, "test", str(DATA / "fibers.txt"), "--json")
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["decision"] == "Short"


def test_module_entry_point_exits_with_the_decision():
    # `python -m tailtest` goes through __main__.py, which no in-process test reaches,
    # and main reads the command line from sys.argv
    proc = run_fresh("-m", "tailtest", "test", str(DATA / "fibers.txt"), "--json")
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["decision"] == "Short"
    proc = run_fresh("-m", "tailtest", "test", str(DATA / "fibers.txt"), "extra")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"{TREE_USAGE}tailtest: error: unrecognized arguments: extra\n"
