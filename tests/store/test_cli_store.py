"""CLI storage: ``--memory-budget`` streaming and the store layout ``--out`` writes."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro.cli import build_release_parser, main
from repro.serving.store import ReleaseStore
from tests.store_files import write_legacy_release


@pytest.fixture
def survey_csv(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "survey.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["smoker", "region", "income"])
        for _ in range(400):
            writer.writerow(
                [
                    "yes" if rng.random() < 0.3 else "no",
                    rng.choice(["north", "south", "east", "west"]),
                    rng.choice(["low", "mid", "high"]),
                ]
            )
    return path


def _query_json(store, attributes, capsys):
    exit_code = main(
        ["query", "--store", str(store), "--attributes", *attributes, "--json"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0, captured.err
    return json.loads(captured.out)


class TestParser:
    def test_store_knob_defaults(self):
        args = build_release_parser().parse_args(["--input", "x.csv"])
        assert args.memory_budget is None
        assert args.out is None

    def test_store_format_flag_is_gone(self):
        # Every release is written in one layout; there is no knob.
        with pytest.raises(SystemExit):
            build_release_parser().parse_args(["--input", "x.csv", "--store-format", "v1"])


class TestStreamedRelease:
    def test_streamed_release_matches_in_memory(self, survey_csv, tmp_path, capsys):
        """Same seed, with and without --memory-budget: identical answers."""
        common = [
            "release",
            "--input",
            str(survey_csv),
            "--k",
            "2",
            "--seed",
            "6",
        ]
        assert main(common + ["--out", str(tmp_path / "plain")]) == 0
        assert (
            main(
                common
                + [
                    "--out",
                    str(tmp_path / "streamed"),
                    "--memory-budget",
                    "64M",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "v3 layout" in out

        plain = _query_json(tmp_path / "plain", ["smoker", "region"], capsys)
        streamed = _query_json(tmp_path / "streamed", ["smoker", "region"], capsys)
        assert plain["cells"] == streamed["cells"]

    def test_streamed_summary_reports_rows(self, survey_csv, capsys):
        exit_code = main(
            [
                "release",
                "--input",
                str(survey_csv),
                "--k",
                "1",
                "--seed",
                "1",
                "--memory-budget",
                "1M",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "400" in captured.out  # row count survives streaming

    def test_memory_budget_rejects_dense_backend(self, survey_csv, capsys):
        exit_code = main(
            [
                "release",
                "--input",
                str(survey_csv),
                "--k",
                "1",
                "--memory-budget",
                "1M",
                "--backend",
                "dense",
            ]
        )
        assert exit_code == 2
        assert "dense" in capsys.readouterr().err

    def test_bad_budget_reports_error(self, survey_csv, capsys):
        exit_code = main(
            [
                "release",
                "--input",
                str(survey_csv),
                "--k",
                "1",
                "--memory-budget",
                "lots",
            ]
        )
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err


class TestStoreFormat:
    def test_wide_marginals_are_stored_v3(self, tmp_path, capsys):
        # Two 64-value attributes: one 2-way marginal of 4096 cells (32 KiB).
        path = tmp_path / "wide.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["left", "right"])
            for i in range(300):
                writer.writerow([f"l{i % 64}", f"r{i * 5 % 64}"])
        out = tmp_path / "store"
        argv = ["release", "--input", str(path), "--k", "2", "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        assert "(v3 layout)" in capsys.readouterr().out
        assert main(["stats", "--store", str(out)]) == 0
        assert "v3 layout)" in capsys.readouterr().out

    def test_v1_and_v2_serve_identically(self, survey_csv, tmp_path, capsys):
        """``repro query`` answers a v3 release and its legacy copies alike."""
        argv = ["release", "--input", str(survey_csv), "--k", "2", "--seed", "9"]
        assert main(argv + ["--out", str(tmp_path / "v3")]) == 0
        assert "(v3 layout)" in capsys.readouterr().out
        source = ReleaseStore(tmp_path / "v3", create=False)
        release = source.get(source.latest_release_id())
        for layout in ("v1", "v2"):
            write_legacy_release(ReleaseStore(tmp_path / layout), release, layout)
            assert main(["stats", "--store", str(tmp_path / layout)]) == 0
            assert f"{layout} layout)" in capsys.readouterr().out
        cells = {
            layout: _query_json(tmp_path / layout, ["region", "income"], capsys)["cells"]
            for layout in ("v1", "v2", "v3")
        }
        assert cells["v1"] == cells["v3"]
        assert cells["v2"] == cells["v3"]
        release_dir = next(p for p in (tmp_path / "v2").iterdir() if p.is_dir())
        assert (release_dir / "marginals").is_dir()
