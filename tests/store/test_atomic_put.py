"""Crash-safe writes: a failure mid-put leaves the store fully old or fully new."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import release_marginals
from repro.data import synthetic_nltcs
from repro.queries import all_k_way
from repro.serving.store import ReleaseStore
from repro.store import EncodedSourceWriter, open_source, write_source
from tests.store_files import write_legacy_release


@pytest.fixture(scope="module")
def release():
    data = synthetic_nltcs(n_records=800, rng=11)
    workload = all_k_way(data.schema, 1)
    return release_marginals(data, workload, 1.0, strategy="I", rng=11)


def _snapshot(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


class Boom(RuntimeError):
    pass


def _put_in(store, release, layout, release_id):
    if layout == "v3":
        return store.put(release, release_id=release_id)
    return write_legacy_release(store, release, layout, release_id=release_id)


class TestReleaseStorePutAtomicity:
    def test_failure_between_marginals_and_meta_leaves_store_empty(
        self, tmp_path, monkeypatch, release
    ):
        """Inject a crash after the marginal write, before meta.json."""
        root = tmp_path / "store"
        store = ReleaseStore(root)
        baseline = _snapshot(root)

        original = ReleaseStore._write_marginals

        def explode(directory, marginals):
            original(directory, marginals)
            assert (directory / "marginals.npy").exists()
            raise Boom("crash between marginals and meta.json")

        monkeypatch.setattr(ReleaseStore, "_write_marginals", staticmethod(explode))
        with pytest.raises(Boom):
            store.put(release, release_id="victim")
        monkeypatch.undo()

        # Fully old: no release directory, no staging debris, index unchanged.
        assert _snapshot(root) == baseline
        fresh = ReleaseStore(root, create=False)
        assert "victim" not in fresh
        assert len(fresh) == 0

    @pytest.mark.parametrize("layout", ["v1", "v2", "v3"])
    def test_failed_overwrite_keeps_the_old_release_intact(
        self, tmp_path, monkeypatch, release, layout
    ):
        """The release being replaced was written in ``layout``."""
        root = tmp_path / "store"
        store = ReleaseStore(root)
        _put_in(store, release, layout, "r")
        before = _snapshot(root)

        def explode(directory, marginals):
            raise Boom("crash before anything is written")

        monkeypatch.setattr(ReleaseStore, "_write_marginals", staticmethod(explode))
        with pytest.raises(Boom):
            store.put(release, release_id="r", overwrite=True)
        monkeypatch.undo()

        assert _snapshot(root) == before
        reopened = ReleaseStore(root, create=False)
        assert reopened.metadata("r")["layout"] == layout
        for ours, exact in zip(reopened.get("r").marginals, release.marginals):
            assert np.array_equal(np.asarray(ours), exact)

    @pytest.mark.parametrize("layout", ["v1", "v2", "v3"])
    def test_successful_put_is_fully_new(self, tmp_path, release, layout):
        """Overwriting a release written in ``layout`` publishes a whole v3 one."""
        root = tmp_path / "store"
        store = ReleaseStore(root)
        _put_in(store, release, layout, "r")
        release_id = store.put(release, release_id="r", overwrite=True)
        # No staging debris survives a successful publish either.
        assert not list(root.glob(".stage-*"))
        assert not list(root.glob(".old-*"))
        assert sorted(path.name for path in (root / release_id).iterdir()) == [
            "marginals.npy",
            "meta.json",
        ]
        assert release_id in ReleaseStore(root, create=False)


class TestEncodedSourceAtomicity:
    def test_crash_before_close_publishes_nothing(self, tmp_path):
        target = tmp_path / "src"
        with pytest.raises(Boom):
            with EncodedSourceWriter(target, dimension=8, shards=2) as writer:
                writer.append(np.array([1, 4, 9], dtype=np.int64), np.ones(3))
                raise Boom("crash mid-ingest")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_failed_overwrite_keeps_the_old_source(self, tmp_path):
        codes = np.array([0, 3, 5], dtype=np.int64)
        target = write_source(tmp_path / "src", codes, dimension=4)
        with pytest.raises(Boom):
            with EncodedSourceWriter(
                target, dimension=4, shards=1, overwrite=True
            ) as writer:
                writer.append(np.array([7], dtype=np.int64), np.ones(1))
                raise Boom("crash mid-rewrite")
        source = open_source(target, verify=True)
        assert np.array_equal(
            np.asarray(source._shards[0][0]), codes
        )  # old data intact
