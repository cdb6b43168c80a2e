"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_release_parser, main


@pytest.fixture
def survey_csv(tmp_path) -> Path:
    """A small categorical survey file."""
    rng = np.random.default_rng(0)
    path = tmp_path / "survey.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["smoker", "region", "income"])
        for _ in range(300):
            writer.writerow(
                [
                    "yes" if rng.random() < 0.25 else "no",
                    rng.choice(["north", "south", "east", "west"]),
                    rng.choice(["low", "mid", "high"]),
                ]
            )
    return path


class TestParser:
    def test_defaults(self):
        args = build_release_parser().parse_args(["--input", "x.csv"])
        assert args.k == 2
        assert args.epsilon == 1.0
        assert args.strategy == "F"
        assert not args.uniform
        assert args.output is None

    def test_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_release_parser().parse_args(["--input", "x.csv", "--strategy", "wavelet"])

    def test_input_required(self):
        with pytest.raises(SystemExit):
            build_release_parser().parse_args([])

    def test_no_prefix_abbreviation(self):
        # A truncated flag must not silently match a longer one: --outp is
        # neither --out (a store) nor --output (CSV files).
        with pytest.raises(SystemExit):
            build_release_parser().parse_args(["--input", "x.csv", "--outp", "store"])


class TestMain:
    def test_summary_only_run(self, survey_csv, capsys):
        exit_code = main(
            ["--input", str(survey_csv), "--k", "1", "--epsilon", "2.0", "--seed", "1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "workload" in captured.out
        assert "Q1" in captured.out
        assert "epsilon = 2" in captured.out

    def test_writes_marginal_files(self, survey_csv, tmp_path, capsys):
        output = tmp_path / "released"
        exit_code = main(
            [
                "--input",
                str(survey_csv),
                "--k",
                "2",
                "--epsilon",
                "1.0",
                "--seed",
                "3",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        files = sorted(p.name for p in output.glob("marginal_*.csv"))
        assert files == [
            "marginal_region_income.csv",
            "marginal_smoker_region.csv",
            "marginal_smoker_income.csv",
        ] or len(files) == 3
        # Each file has a header plus one row per (non-padding) cell.
        content = (output / files[0]).read_text().splitlines()
        assert content[0].endswith("count")
        assert len(content) >= 5

    def test_flag_only_form_is_an_alias_of_release(self, survey_csv, tmp_path, capsys):
        outputs = {}
        for prefix, name in (([], "flags"), (["release"], "release")):
            store = tmp_path / name
            argv = prefix + ["--input", str(survey_csv), "--seed", "3", "--out", str(store)]
            assert main(argv) == 0
            assert "(v3 layout)" in capsys.readouterr().out
            assert main(["query", "--store", str(store), "--attributes", "region", "--json"]) == 0
            outputs[name] = json.loads(capsys.readouterr().out)["cells"]
        assert outputs["flags"] == outputs["release"]

    def test_nonnegative_rounding(self, survey_csv, tmp_path):
        output = tmp_path / "released"
        exit_code = main(
            [
                "--input",
                str(survey_csv),
                "--k",
                "2",
                "--epsilon",
                "0.05",
                "--seed",
                "5",
                "--nonnegative",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        for path in output.glob("marginal_*.csv"):
            rows = list(csv.reader(path.open()))[1:]
            values = [float(row[-1]) for row in rows]
            assert all(value >= 0 for value in values)
            assert all(value == int(value) for value in values)

    def test_star_and_anchor_workloads(self, survey_csv):
        assert main(["--input", str(survey_csv), "--k", "1", "--star", "--seed", "0"]) == 0
        assert (
            main(
                [
                    "--input",
                    str(survey_csv),
                    "--k",
                    "1",
                    "--anchor",
                    "smoker",
                    "--seed",
                    "0",
                ]
            )
            == 0
        )

    def test_star_and_anchor_conflict(self, survey_csv, capsys):
        exit_code = main(
            [
                "--input",
                str(survey_csv),
                "--k",
                "1",
                "--star",
                "--anchor",
                "smoker",
            ]
        )
        assert exit_code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_missing_file_reports_error(self, tmp_path, capsys):
        exit_code = main(["--input", str(tmp_path / "missing.csv")])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_k_reports_error(self, survey_csv, capsys):
        exit_code = main(["--input", str(survey_csv), "--k", "7"])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_approximate_dp_and_uniform_flags(self, survey_csv, capsys):
        exit_code = main(
            [
                "--input",
                str(survey_csv),
                "--k",
                "1",
                "--epsilon",
                "1.0",
                "--delta",
                "1e-6",
                "--uniform",
                "--strategy",
                "Q",
                "--seed",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "delta = 1e-06" in captured.out
        assert "uniform budgeting" in captured.out

    def test_column_selection(self, survey_csv, capsys):
        exit_code = main(
            [
                "--input",
                str(survey_csv),
                "--columns",
                "smoker",
                "income",
                "--k",
                "1",
                "--seed",
                "4",
            ]
        )
        assert exit_code == 0
        assert "2 attributes" in capsys.readouterr().out


class TestExplain:
    def test_explain_prints_plan_without_releasing(self, survey_csv, capsys):
        exit_code = main(
            [
                "release",
                "--input",
                str(survey_csv),
                "--k",
                "2",
                "--strategy",
                "Q",
                "--explain",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "stage 1 — plan" in captured.out
        assert "stage 2 — execute" in captured.out
        assert "stage 3 — finalize" in captured.out
        assert "batch" in captured.out
        # No release summary: the plan was printed instead.
        assert "release time" not in captured.out

    def test_explain_works_in_legacy_form(self, survey_csv, capsys):
        exit_code = main(
            ["--input", str(survey_csv), "--k", "1", "--strategy", "F", "--explain"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "fourier kernel" in captured.out
        assert "expected variance" in captured.out

    def test_explain_does_not_write_store(self, survey_csv, tmp_path, capsys):
        store = tmp_path / "store"
        exit_code = main(
            [
                "release",
                "--input",
                str(survey_csv),
                "--explain",
                "--out",
                str(store),
            ]
        )
        assert exit_code == 0
        assert not store.exists()
