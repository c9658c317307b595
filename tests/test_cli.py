"""Command-line behavior: exit codes, output schemas, preprocessing flags."""
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tailtest.cli import main, read_dataset
from tailtest.power import CSV_HEADER

E = math.e

MEDIUM = [E, E**2, E**3]                                  # T inside the medium band
SHORT = [1.2, 1.5, 2.0]                                   # all above ln(max): T = 0
LONG = list(np.linspace(2.0, 100.0, 99)) + [1e8]          # giant extreme spacing


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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# only comments\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data lines"):
            read_dataset(str(path))


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

    def test_shift_parse_error(self, write_dataset, capsys):
        code = main(["test", write_dataset(MEDIUM), "--shift", "median"])
        assert code == 1
        assert "--shift" in capsys.readouterr().err

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

    def test_plan_file(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("dist=exp:1\nn=60\nreps=200\nseed=2\n", encoding="utf-8")
        code = main(["simulate", "--plan", str(plan)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith(CSV_HEADER)
        assert ",60,1," in out

    def test_plan_conflicts_with_inline(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("dist=exp:1\nn=60\n", encoding="utf-8")
        code = main(["simulate", "--plan", str(plan), "--dist", "exp:1"])
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

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

    def test_smallmax_policy_flag(self, capsys):
        code = main([
            "simulate", "--dist", "uniform", "--n", "50", "--reps", "200",
            "--smallmax-policy", "error",
        ])
        out = capsys.readouterr().out
        assert code == 0
        reader = list(csv.reader(io.StringIO(out)))
        assert reader[1][8] == "200"  # every replicate aborted


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

    @pytest.mark.parametrize("dist", ["normal", "logistic", "gumbel", "cauchy", "t:3"])
    def test_bryson_quantiles_negative_support_exits_one(self, dist, capsys):
        code = main(["bryson-quantiles", "--dist", dist, "--n", "30", "--reps", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"{dist} takes negative values; T* needs nonnegative data" in captured.err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "file.txt", "--blocks", "two"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_exit_codes_never_collide_with_short(self):
        # usage and runtime errors use 1; the decision codes are 0, 2, 3
        from tailtest.cli import _EXIT_CODE

        assert set(_EXIT_CODE.values()) == {0, 2, 3}


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency; a fresh interpreter shows what the CLI loads
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tailtest.cli; sys.exit('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr or "importing tailtest.cli loaded scipy"
