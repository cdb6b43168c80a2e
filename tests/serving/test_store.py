"""Tests of the on-disk release store."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import release_marginals
from repro.exceptions import ServingError
from repro.obs import tracing
from repro.queries import all_k_way
from repro.serving.store import ReleaseStore


def assert_same_release(loaded, original):
    assert loaded.workload.masks == original.workload.masks
    assert loaded.workload.schema == original.workload.schema
    assert loaded.strategy_name == original.strategy_name
    assert loaded.allocation == original.allocation
    assert loaded.consistent == original.consistent
    assert loaded.expected_total_variance == pytest.approx(original.expected_total_variance)
    for ours, theirs in zip(original.marginals, loaded.marginals):
        np.testing.assert_allclose(theirs, ours)


class TestPutGet:
    def test_roundtrip(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        assert release_id == "release-0001"
        assert_same_release(store.get(release_id), release)

    def test_fresh_store_instance_reads_back(self, tmp_path, release):
        root = tmp_path / "store"
        ReleaseStore(root).put(release, release_id="r1")
        # A brand-new store object (fresh index load) sees the release.
        fresh = ReleaseStore(root, create=False)
        assert "r1" in fresh
        assert_same_release(fresh.get("r1"), release)

    def test_ids_increase(self, tmp_path, release):
        store = ReleaseStore(tmp_path)
        assert store.put(release) == "release-0001"
        assert store.put(release) == "release-0002"
        assert store.release_ids() == ["release-0001", "release-0002"]
        assert store.latest_release_id() == "release-0002"

    def test_overwrite_requires_flag(self, tmp_path, release):
        store = ReleaseStore(tmp_path)
        store.put(release, release_id="r1")
        with pytest.raises(ServingError):
            store.put(release, release_id="r1")
        store.put(release, release_id="r1", overwrite=True)
        assert len(store) == 1

    def test_bad_release_id_rejected(self, tmp_path, release):
        store = ReleaseStore(tmp_path)
        with pytest.raises(ServingError):
            store.put(release, release_id="../escape")

    def test_missing_release_errors(self, tmp_path):
        store = ReleaseStore(tmp_path)
        with pytest.raises(ServingError):
            store.get("nope")
        with pytest.raises(ServingError):
            store.metadata("nope")
        with pytest.raises(ServingError):
            store.latest_release_id()

    def test_missing_root_without_create(self, tmp_path):
        with pytest.raises(ServingError):
            ReleaseStore(tmp_path / "absent", create=False)


    def test_put_and_get_are_traced(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        with tracing() as recorder:
            release_id = store.put(release)
            store.get(release_id)
        spans = {record.name: record.attrs for record in recorder.spans}
        assert spans["store.put"] == {"release": release_id, "layout": "v3"}
        assert spans["store.open"] == {"release": release_id, "layout": "v3"}
        assert recorder.metrics.snapshot()["counters"]["serving.store.puts"] == 1


class TestIndex:
    def test_metadata_summary(self, tmp_path, release):
        store = ReleaseStore(tmp_path)
        release_id = store.put(release)
        meta = store.metadata(release_id)
        assert meta["strategy"] == "F"
        assert meta["epsilon"] == pytest.approx(1.0)
        assert sorted(meta["masks"]) == sorted(release.workload.masks)

    def test_releases_covering(self, tmp_path, schema, counts):
        store = ReleaseStore(tmp_path)
        two_way = release_marginals(counts, all_k_way(schema, 2), budget=1.0, rng=0)
        one_way = release_marginals(counts, all_k_way(schema, 1), budget=1.0, rng=0)
        rid2 = store.put(two_way)
        rid1 = store.put(one_way)
        pair_mask = two_way.workload.masks[0]
        assert store.releases_covering(pair_mask) == [rid2]
        single_mask = one_way.workload.masks[0]
        assert set(store.releases_covering(single_mask)) == {rid1, rid2}

    def test_index_rebuilt_when_deleted(self, tmp_path, release):
        root = tmp_path / "store"
        store = ReleaseStore(root)
        release_id = store.put(release)
        (root / "index.json").unlink()
        rebuilt = ReleaseStore(root)
        assert rebuilt.release_ids() == [release_id]
        assert_same_release(rebuilt.get(release_id), release)

    def test_stale_index_from_second_writer_healed(self, tmp_path, release):
        # Regression: two store instances over the same root must not lose
        # each other's releases through a stale in-memory index.
        root = tmp_path / "store"
        first = ReleaseStore(root)
        second = ReleaseStore(root)
        id_a = first.put(release)
        id_b = second.put(release)  # second reloads the index before writing
        assert id_a != id_b
        fresh = ReleaseStore(root)
        assert fresh.release_ids() == [id_a, id_b]

    def test_corrupt_release_dir_does_not_brick_store(self, tmp_path, release):
        # Regression: a crash mid-put (torn meta.json) must not make every
        # other release unreachable.
        root = tmp_path / "store"
        store = ReleaseStore(root)
        good = store.put(release)
        bad_dir = root / "release-9999"
        bad_dir.mkdir()
        (bad_dir / "meta.json").write_text('{"truncated":')
        with pytest.warns(RuntimeWarning, match="release-9999"):
            reopened = ReleaseStore(root)
        assert reopened.release_ids() == [good]
        assert_same_release(reopened.get(good), release)

    def test_unindexed_release_dir_triggers_rebuild(self, tmp_path, release):
        root = tmp_path / "store"
        store = ReleaseStore(root)
        store.put(release, release_id="r1")
        # Simulate a foreign writer: copy the release dir, leave index stale.
        import shutil

        shutil.copytree(root / "r1", root / "r2")
        fresh = ReleaseStore(root)
        assert set(fresh.release_ids()) == {"r1", "r2"}

    def test_corrupt_index_rebuilt(self, tmp_path, release):
        root = tmp_path / "store"
        store = ReleaseStore(root)
        release_id = store.put(release)
        (root / "index.json").write_text("{not json")
        rebuilt = ReleaseStore(root)
        assert rebuilt.release_ids() == [release_id]

    def test_delete(self, tmp_path, release):
        store = ReleaseStore(tmp_path)
        release_id = store.put(release)
        store.delete(release_id)
        assert len(store) == 0
        assert not (tmp_path / release_id).exists()
        with pytest.raises(ServingError):
            store.delete(release_id)


class TestVersioning:
    def test_future_store_format_rejected(self, tmp_path, release):
        root = tmp_path / "store"
        store = ReleaseStore(root)
        release_id = store.put(release)
        meta_path = root / release_id / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["store_format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ServingError):
            ReleaseStore(root).get(release_id)

    def test_missing_marginals_file_rejected(self, tmp_path, release):
        root = tmp_path / "store"
        store = ReleaseStore(root)
        release_id = store.put(release)
        (root / release_id / "marginals.npy").unlink()
        with pytest.raises(ServingError):
            ReleaseStore(root).get(release_id)
