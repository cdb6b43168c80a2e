"""The ``repro serve`` CLI: startup validation and SIGTERM drain."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.serving.store import ReleaseStore
from tests.store_files import corrupt_marginal, truncate

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def store_dir(tmp_path, release) -> Path:
    root = tmp_path / "store"
    ReleaseStore(root, create=True).put(release)
    return root


class TestServeValidation:
    def test_missing_store_is_exit_2(self, tmp_path, capsys):
        code = main(["serve", "--store", str(tmp_path / "nope")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_verify_start_refuses_a_corrupt_store(self, tmp_path, release, capsys):
        # Tamper with a stored vector: --verify-start must refuse to serve.
        root = tmp_path / "cstore"
        store = ReleaseStore(root)
        rid = store.put(release)
        corrupt_marginal(root, rid, 0, release)
        code = main(["serve", "--store", str(root), "--verify-start"])
        assert code == 1
        assert "refusing to serve" in capsys.readouterr().err

    def test_bad_flag_values_are_rejected(self, store_dir, capsys):
        code = main(["serve", "--store", str(store_dir), "--max-pending", "0"])
        assert code == 2
        assert "max_pending" in capsys.readouterr().err


class TestServeProcess:
    def test_sigterm_drains_and_exits_zero(self, store_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(store_dir), "--port", "0",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = process.stderr.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, f"no address in startup line: {line!r}"
            host, port = match.group(1), int(match.group(2))

            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request(
                "POST",
                "/v1/query",
                body=json.dumps({"attributes": ["a", "b"]}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert payload["release"] == "release-0001"
            conn.close()

            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=30)
            stderr = process.stderr.read()
            assert code == 0
            assert "drained : " in stderr
            assert "0 aborted" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


class TestStatsExitCodes:
    """The ``repro stats --store`` operator contract (exit 2 vs 1 vs 0)."""

    def test_healthy_store_is_exit_0(self, store_dir, capsys):
        assert main(["stats", "--store", str(store_dir)]) == 0
        assert "health  : OK" in capsys.readouterr().out

    def test_missing_store_is_exit_2_with_a_targeted_message(
        self, tmp_path, capsys
    ):
        code = main(["stats", "--store", str(tmp_path / "definitely-missing")])
        assert code == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "repro release --out" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unreadable_release_metadata_is_exit_1_not_silent_ok(
        self, store_dir, capsys
    ):
        # Truncate a release's meta.json: the old code silently dropped the
        # release from the index and reported a healthy empty store.
        store = ReleaseStore(store_dir, create=False)
        rid = store.release_ids()[0]
        (store_dir / rid / "meta.json").write_text("{ definitely not json")
        code = main(["stats", "--store", str(store_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert "CORRUPT" in captured.out
        assert "unreadable release metadata" in captured.out
        assert "DEGRADED" in captured.out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_corrupt_vector_is_exit_1(self, store_dir, capsys):
        store = ReleaseStore(store_dir, create=False)
        rid = store.release_ids()[0]
        truncate(store_dir / rid / "marginals.npy", 40)
        code = main(["stats", "--store", str(store_dir)])
        assert code == 1
        assert "CORRUPT" in capsys.readouterr().out
