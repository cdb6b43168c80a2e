"""ReleaseStore layouts: the size rule, v2 memmap serving, v1 compat, targeted errors."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import release_marginals
from repro.data import synthetic_nltcs
from repro.domain import Dataset, Schema
from repro.exceptions import DataError, ServingError
from repro.queries import MarginalQuery, MarginalWorkload, all_k_way
from repro.serving import store as store_module
from repro.serving.service import QueryService
from repro.serving.store import ReleaseStore


@pytest.fixture(scope="module")
def release():
    data = synthetic_nltcs(n_records=1500, rng=3)
    workload = all_k_way(data.schema, 2)
    return release_marginals(data, workload, 1.0, strategy="F", rng=3)


@pytest.fixture(scope="module")
def wide_release():
    """Two 12-bit cuboids: 4096-cell (32 KiB) marginal vectors."""
    d = 14
    schema = Schema.binary([f"b{i:02d}" for i in range(d)])
    records = np.random.default_rng(4).integers(0, 2, size=(500, d))
    workload = MarginalWorkload(
        schema, [MarginalQuery(0xFFF, d), MarginalQuery(0xFFF << 2, d)], name="wide"
    )
    return release_marginals(
        Dataset(schema, records), workload, 1.0, strategy="Q", consistency=False, rng=4
    )


def _assert_bitwise(store, release_id, release):
    for ours, exact in zip(store.get(release_id).marginals, release.marginals):
        assert np.array_equal(np.asarray(ours), exact)


class TestLayoutRule:
    def test_four_cell_vectors_are_written_v1(self, tmp_path, release):
        assert {marginal.size for marginal in release.marginals} == {4}
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        assert store.verify(release_id)["layout"] == "v1"
        assert store.metadata(release_id)["layout"] == "v1"
        assert (tmp_path / "store" / release_id / "marginals.npz").exists()
        _assert_bitwise(store, release_id, release)

    def test_4096_cell_vectors_are_written_v2(self, tmp_path, wide_release):
        assert {marginal.size for marginal in wide_release.marginals} == {4096}
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(wide_release)
        report = store.verify(release_id)
        assert report["layout"] == "v2" and report["ok"]
        assert (tmp_path / "store" / release_id / "marginals").is_dir()
        _assert_bitwise(store, release_id, wide_release)

    def test_index_without_layouts_is_rebuilt(self, tmp_path, release, store_layout):
        store_layout("v2")
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        index_path = tmp_path / "store" / "index.json"
        index = json.loads(index_path.read_text())
        for entry in index["releases"].values():
            del entry["layout"]  # an index written before entries named their layout
        index_path.write_text(json.dumps(index))
        reopened = ReleaseStore(tmp_path / "store", create=False)
        assert reopened.metadata(release_id)["layout"] == "v2"

    def test_threshold_is_inclusive_on_the_mean_vector_size(
        self, tmp_path, monkeypatch, release
    ):
        mean_bytes = sum(m.nbytes for m in release.marginals) / len(release.marginals)
        store = ReleaseStore(tmp_path / "store")
        monkeypatch.setattr(store_module, "V2_MIN_VECTOR_BYTES", mean_bytes)
        assert store.verify(store.put(release))["layout"] == "v2"
        monkeypatch.setattr(store_module, "V2_MIN_VECTOR_BYTES", mean_bytes + 1)
        assert store.verify(store.put(release))["layout"] == "v1"


class TestLayouts:
    def test_v2_round_trip_is_bitwise(self, tmp_path, release, store_layout):
        store_layout("v2")
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        reloaded = store.get(release_id)
        for ours, exact in zip(reloaded.marginals, release.marginals):
            assert np.array_equal(np.asarray(ours), exact)

    def test_v2_layout_on_disk(self, tmp_path, release, store_layout):
        store_layout("v2")
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        directory = tmp_path / "store" / release_id
        assert (directory / "marginals").is_dir()
        assert not (directory / "marginals.npz").exists()
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["marginals_layout"] == "v2"
        assert meta["store_format_version"] == 2

    def test_v1_stays_version_1_for_old_readers(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")  # 4-cell vectors: v1
        release_id = store.put(release)
        directory = tmp_path / "store" / release_id
        assert (directory / "marginals.npz").exists()
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["store_format_version"] == 1

    def test_release_without_a_layout_tag_reads_as_v1(self, tmp_path, release):
        """Releases written before the layout tag existed stay servable."""
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        meta_path = tmp_path / "store" / release_id / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["marginals_layout"]
        meta_path.write_text(json.dumps(meta))
        (tmp_path / "store" / "index.json").unlink()
        reopened = ReleaseStore(tmp_path / "store", create=False)
        report = reopened.verify(release_id)
        assert report["layout"] == "v1" and report["ok"]
        _assert_bitwise(reopened, release_id, release)

    def test_v2_vectors_are_memmapped(self, tmp_path, release, store_layout):
        store_layout("v2")
        store = ReleaseStore(tmp_path / "store")
        reloaded = store.get(store.put(release))
        assert any(
            isinstance(np.asarray(m).base, np.memmap) or isinstance(m, np.memmap)
            for m in reloaded.marginals
        )

    def test_service_answers_identically_across_layouts(
        self, tmp_path, release, store_layout
    ):
        answers = {}
        for layout in ("v1", "v2"):
            store_layout(layout)
            store = ReleaseStore(tmp_path / layout)
            release_id = store.put(release)
            service = QueryService(ReleaseStore(tmp_path / layout, create=False))
            schema = release.workload.schema
            names = [attribute.name for attribute in schema.attributes[:2]]
            answers[layout] = service.query(names, release_id=release_id).values
        assert np.array_equal(answers["v1"], answers["v2"])

    def test_overwrite_switches_layout_in_place(self, tmp_path, release, store_layout):
        store_layout("v1")
        store = ReleaseStore(tmp_path / "store")
        store.put(release, release_id="r")
        store_layout("v2")
        store.put(release, release_id="r", overwrite=True)
        directory = tmp_path / "store" / "r"
        assert (directory / "marginals").is_dir()
        assert not (directory / "marginals.npz").exists()  # no v1 leftovers
        _assert_bitwise(store, "r", release)

    def test_delete_removes_v2_vectors(self, tmp_path, release, store_layout):
        store_layout("v2")
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        store.delete(release_id)
        assert not (tmp_path / "store" / release_id).exists()


class TestTargetedErrors:
    def test_missing_release_is_a_serving_error(self, tmp_path):
        store = ReleaseStore(tmp_path / "store")
        with pytest.raises(ServingError, match="no release"):
            store.get("nope")

    def test_missing_v1_archive_is_a_serving_error(self, tmp_path, release, store_layout):
        store_layout("v1")
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        (tmp_path / "store" / release_id / "marginals.npz").unlink()
        with pytest.raises(ServingError, match="marginals.npz"):
            store.get(release_id)

    def test_missing_v1_array_is_a_data_error_naming_the_cuboid(
        self, tmp_path, release, store_layout
    ):
        store_layout("v1")
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        directory = tmp_path / "store" / release_id
        archive = np.load(directory / "marginals.npz")
        arrays = {key: archive[key] for key in archive.files}
        arrays.pop("marginal_00003")
        np.savez_compressed(directory / "marginals.npz", **arrays)
        with pytest.raises(DataError, match="marginal_00003.*cuboid 0x"):
            store.get(release_id)

    def test_missing_v2_vector_is_a_data_error_naming_the_cuboid(
        self, tmp_path, release, store_layout
    ):
        store_layout("v2")
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        directory = tmp_path / "store" / release_id
        (directory / "marginals" / "marginal_00001.npy").unlink()
        with pytest.raises(DataError, match="marginal_00001.*cuboid 0x"):
            store.get(release_id)

    def test_missing_v2_directory_is_a_serving_error(self, tmp_path, release, store_layout):
        import shutil

        store_layout("v2")
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        shutil.rmtree(tmp_path / "store" / release_id / "marginals")
        with pytest.raises(ServingError, match="marginals/"):
            store.get(release_id)
