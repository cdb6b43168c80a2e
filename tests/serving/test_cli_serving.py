"""CLI tests of the release/query subcommands, including a fresh-process
round trip: a release written by one Python process is loaded and queried by
another."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def survey_csv(tmp_path) -> Path:
    rng = np.random.default_rng(42)
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


class TestReleaseSubcommand:
    def test_release_into_store(self, survey_csv, tmp_path, capsys):
        store = tmp_path / "store"
        rc = main(
            [
                "release",
                "--input",
                str(survey_csv),
                "--k",
                "2",
                "--epsilon",
                "1.0",
                "--seed",
                "1",
                "--out",
                str(store),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "stored release 'release-0001'" in out
        assert (store / "release-0001" / "meta.json").exists()
        assert (store / "release-0001" / "marginals.npy").exists()

    def test_release_id_and_overwrite(self, survey_csv, tmp_path, capsys):
        store = tmp_path / "store"
        base = [
            "release",
            "--input",
            str(survey_csv),
            "--k",
            "1",
            "--seed",
            "1",
            "--out",
            str(store),
            "--release-id",
            "nightly",
        ]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base) == 2  # duplicate id without --overwrite
        assert "already exists" in capsys.readouterr().err
        assert main(base + ["--overwrite"]) == 0

    def test_release_without_store_still_works(self, survey_csv, capsys):
        rc = main(["release", "--input", str(survey_csv), "--k", "1", "--seed", "0"])
        assert rc == 0
        assert "workload" in capsys.readouterr().out


class TestQuerySubcommand:
    @pytest.fixture
    def store(self, survey_csv, tmp_path) -> Path:
        store = tmp_path / "store"
        assert (
            main(
                [
                    "release",
                    "--input",
                    str(survey_csv),
                    "--k",
                    "2",
                    "--epsilon",
                    "2.0",
                    "--seed",
                    "5",
                    "--out",
                    str(store),
                ]
            )
            == 0
        )
        return store

    def test_marginal_query(self, store, capsys):
        rc = main(["query", "--store", str(store), "--attributes", "region", "income"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "release-0001" in out
        assert "std error" in out
        assert "north" in out

    def test_slice_query_json(self, store, capsys):
        rc = main(
            [
                "query",
                "--store",
                str(store),
                "--attributes",
                "region",
                "--where",
                "smoker=yes",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["attributes"] == ["region"]
        assert payload["where"] == {"smoker": "yes"}
        assert len(payload["cells"]) == 4
        assert payload["per_cell_std_error"] > 0

    def test_point_query(self, store, capsys):
        rc = main(
            [
                "query",
                "--store",
                str(store),
                "--where",
                "smoker=yes",
                "--where",
                "region=north",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert len(payload["cells"]) == 1

    def test_uncovered_query_fails(self, store, capsys):
        rc = main(
            [
                "query",
                "--store",
                str(store),
                "--attributes",
                "smoker",
                "region",
                "income",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_store_fails(self, tmp_path, capsys):
        rc = main(["query", "--store", str(tmp_path / "absent"), "--attributes", "a"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_where_syntax_fails(self, store, capsys):
        rc = main(["query", "--store", str(store), "--where", "smoker"])
        assert rc == 2
        assert "ATTR=VALUE" in capsys.readouterr().err

    def test_batch_file(self, store, tmp_path, capsys):
        batch = tmp_path / "queries.jsonl"
        batch.write_text(
            "\n".join(
                [
                    "# marginal, slice, point",
                    json.dumps({"attributes": ["region", "income"]}),
                    json.dumps({"attributes": ["region"], "where": {"smoker": "yes"}}),
                    json.dumps({"where": {"smoker": "yes", "region": "north"}}),
                    "",
                ]
            )
        )
        rc = main(["query", "--store", str(store), "--batch", str(batch)])
        captured = capsys.readouterr()
        assert rc == 0
        payloads = [json.loads(line) for line in captured.out.splitlines()]
        assert len(payloads) == 3  # comment and blank lines are skipped
        assert [len(p["cells"]) for p in payloads] == [12, 4, 1]
        assert payloads[1]["where"] == {"smoker": "yes"}
        # Batch answers are bitwise identical to the one-at-a-time CLI path.
        capsys.readouterr()
        assert (
            main(
                [
                    "query", "--store", str(store),
                    "--attributes", "region", "income", "--json",
                ]
            )
            == 0
        )
        single = json.loads(capsys.readouterr().out)
        assert [c["value"] for c in payloads[0]["cells"]] == [
            c["value"] for c in single["cells"]
        ]
        # The timing summary goes to stderr, keeping stdout valid JSONL.
        assert "queries in" in captured.err
        assert "aggregation group(s)" in captured.err

    def test_batch_rejects_inline_query_flags(self, store, tmp_path, capsys):
        batch = tmp_path / "queries.jsonl"
        batch.write_text(json.dumps({"attributes": ["region"]}) + "\n")
        rc = main(
            [
                "query", "--store", str(store),
                "--batch", str(batch), "--attributes", "region",
            ]
        )
        assert rc == 2
        assert "--batch" in capsys.readouterr().err

    def test_batch_bad_line_fails_with_location(self, store, tmp_path, capsys):
        batch = tmp_path / "queries.jsonl"
        batch.write_text('{"attributes": ["region"]}\nnot json\n')
        rc = main(["query", "--store", str(store), "--batch", str(batch)])
        assert rc == 2
        assert f"{batch}:2" in capsys.readouterr().err

    def _batch_error(self, store, batch, lines, *flags, capsys):
        batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        rc = main(["query", "--store", str(store), "--batch", str(batch), *flags])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        return captured.err

    def test_batch_unknown_key_fails_with_location(self, store, tmp_path, capsys):
        # "attrs" is a typo of "attributes": it must not silently ask for the total.
        batch = tmp_path / "queries.jsonl"
        lines = [{"attributes": ["region"]}, {"attrs": ["region"]}]
        err = self._batch_error(store, batch, lines, capsys=capsys)
        assert f"{batch}:2" in err and "attrs" in err

    def test_batch_bad_value_fails_with_location(self, store, tmp_path, capsys):
        batch = tmp_path / "queries.jsonl"
        err = self._batch_error(store, batch, [{"mask": -1}], capsys=capsys)
        assert f"{batch}:1" in err and "mask" in err

    def test_batch_release_disagreeing_with_flag_fails(self, store, tmp_path, capsys):
        batch = tmp_path / "queries.jsonl"
        lines = [{"attributes": ["region"]}, {"attributes": ["region"], "release": "nope"}]
        err = self._batch_error(
            store, batch, lines, "--release", "release-0001", capsys=capsys
        )
        assert f"{batch}:2" in err and "'nope'" in err and "--release" in err

    def test_batch_mixed_pins_fail(self, store, tmp_path, capsys):
        batch = tmp_path / "queries.jsonl"
        lines = [{"attributes": ["region"], "release": "release-0001"}, {"attributes": ["income"]}]
        err = self._batch_error(store, batch, lines, capsys=capsys)
        assert f"{batch}:2" in err and "same release" in err

    def test_batch_release_flag_pins_unpinned_lines(self, store, tmp_path, capsys):
        batch = tmp_path / "queries.jsonl"
        batch.write_text(json.dumps({"attributes": ["region"]}) + "\n")
        rc = main(
            ["query", "--store", str(store), "--batch", str(batch), "--release", "nope"]
        )
        assert rc == 2 and "'nope'" in capsys.readouterr().err
        rc = main(
            [
                "query", "--store", str(store),
                "--batch", str(batch), "--release", "release-0001",
            ]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["release"] == "release-0001"

    def test_batch_line_pin_is_served(self, store, tmp_path, capsys):
        batch = tmp_path / "queries.jsonl"
        err = self._batch_error(
            store, batch, [{"attributes": ["region"], "release": "nope"}], capsys=capsys
        )
        assert "'nope'" in err  # not answered from the newest release instead
        batch.write_text(json.dumps({"attributes": ["region"], "release": "release-0001"}))
        assert main(["query", "--store", str(store), "--batch", str(batch)]) == 0
        assert json.loads(capsys.readouterr().out)["release"] == "release-0001"


class TestFreshProcessRoundTrip:
    """Acceptance: a release written by one process is queried by another."""

    def _run(self, args, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            timeout=120,
        )

    def test_release_then_query_in_separate_processes(self, survey_csv, tmp_path):
        store = tmp_path / "store"
        released = self._run(
            [
                "release",
                "--input",
                str(survey_csv),
                "--k",
                "2",
                "--epsilon",
                "1.0",
                "--seed",
                "9",
                "--out",
                str(store),
            ],
            cwd=tmp_path,
        )
        assert released.returncode == 0, released.stderr
        assert "stored release" in released.stdout

        queried = self._run(
            [
                "query",
                "--store",
                str(store),
                "--attributes",
                "region",
                "income",
                "--json",
            ],
            cwd=tmp_path,
        )
        assert queried.returncode == 0, queried.stderr
        payload = json.loads(queried.stdout)
        assert payload["release"] == "release-0001"
        assert len(payload["cells"]) == 12  # 4 regions x 3 income levels
        assert payload["per_cell_std_error"] > 0

        sliced = self._run(
            [
                "query",
                "--store",
                str(store),
                "--attributes",
                "income",
                "--where",
                "region=north",
                "--json",
            ],
            cwd=tmp_path,
        )
        assert sliced.returncode == 0, sliced.stderr
        slice_payload = json.loads(sliced.stdout)
        assert len(slice_payload["cells"]) == 3
        # The slice cells are a subset of the 2-way marginal's cells.
        pair_values = {
            (tuple(cell["labels"]), round(cell["value"], 4))
            for cell in payload["cells"]
        }
        for cell in slice_payload["cells"]:
            assert any(
                labels[-1] == cell["labels"][0] and value == round(cell["value"], 4)
                for labels, value in pair_values
            )
