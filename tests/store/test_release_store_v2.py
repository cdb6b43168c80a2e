"""ReleaseStore layouts: v3 writes, memmap serving, legacy v1/v2 reads, targeted errors."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import release_marginals
from repro.data import synthetic_nltcs
from repro.domain import Dataset, Schema
from repro.exceptions import CorruptMarginalError, DataError, ServingError
from repro.queries import MarginalQuery, MarginalWorkload, all_k_way
from repro.serving.service import QueryService
from repro.serving.store import ReleaseStore
from tests.store_files import write_legacy_release


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
    def test_four_cell_vectors_are_written_v3(self, tmp_path, release):
        assert {marginal.size for marginal in release.marginals} == {4}
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        assert store.verify(release_id)["layout"] == "v3"
        assert store.metadata(release_id)["layout"] == "v3"
        assert (tmp_path / "store" / release_id / "marginals.npy").exists()
        _assert_bitwise(store, release_id, release)

    def test_4096_cell_vectors_are_written_v3(self, tmp_path, wide_release):
        assert {marginal.size for marginal in wide_release.marginals} == {4096}
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(wide_release)
        report = store.verify(release_id)
        assert report["layout"] == "v3" and report["ok"]
        assert (tmp_path / "store" / release_id / "marginals.npy").exists()
        _assert_bitwise(store, release_id, wide_release)

    def test_index_without_layouts_is_rebuilt(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        index_path = tmp_path / "store" / "index.json"
        index = json.loads(index_path.read_text())
        for entry in index["releases"].values():
            del entry["layout"]  # an index written before entries named their layout
        index_path.write_text(json.dumps(index))
        reopened = ReleaseStore(tmp_path / "store", create=False)
        assert reopened.metadata(release_id)["layout"] == "v3"


class TestLayouts:
    def test_v2_round_trip_is_bitwise(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = write_legacy_release(store, release, "v2")
        _assert_bitwise(store, release_id, release)

    def test_v3_layout_on_disk(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        directory = tmp_path / "store" / release_id
        assert sorted(path.name for path in directory.iterdir()) == [
            "marginals.npy",
            "meta.json",
        ]
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["marginals_layout"] == "v3"
        assert meta["store_format_version"] == 3
        # One float64 vector of every cell, back to back in workload order.
        flat = np.load(directory / "marginals.npy")
        assert flat.dtype == np.float64
        assert np.array_equal(flat, np.concatenate(release.marginals))
        assert flat.size == release.workload.total_cells

    def test_v2_layout_on_disk(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = write_legacy_release(store, release, "v2")
        directory = tmp_path / "store" / release_id
        assert (directory / "marginals").is_dir()
        assert not (directory / "marginals.npy").exists()
        reopened = ReleaseStore(tmp_path / "store", create=False)
        assert reopened.metadata(release_id)["layout"] == "v2"
        report = reopened.verify(release_id)
        assert report["layout"] == "v2" and report["ok"]
        assert report["verified"] == len(release.marginals)

    def test_v1_stays_version_1_for_old_readers(self, tmp_path, release):
        """The store never rewrites a legacy release: puts beside it leave
        its format version and archive as the old writer left them."""
        store = ReleaseStore(tmp_path / "store")
        release_id = write_legacy_release(store, release, "v1")
        directory = tmp_path / "store" / release_id
        before = (directory / "marginals.npz").read_bytes()
        store.put(release)
        assert (directory / "marginals.npz").read_bytes() == before
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["store_format_version"] == 1
        _assert_bitwise(store, release_id, release)

    def test_release_without_a_layout_tag_reads_as_v1(self, tmp_path, release):
        """Releases written before the layout tag existed stay servable."""
        store = ReleaseStore(tmp_path / "store")
        release_id = write_legacy_release(store, release, "v1")
        meta_path = tmp_path / "store" / release_id / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["marginals_layout"]
        meta_path.write_text(json.dumps(meta))
        (tmp_path / "store" / "index.json").unlink()
        reopened = ReleaseStore(tmp_path / "store", create=False)
        report = reopened.verify(release_id)
        assert report["layout"] == "v1" and report["ok"]
        _assert_bitwise(reopened, release_id, release)

    def test_v2_vectors_are_memmapped(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        reloaded = store.get(write_legacy_release(store, release, "v2"))
        assert any(
            isinstance(np.asarray(m).base, np.memmap) or isinstance(m, np.memmap)
            for m in reloaded.marginals
        )

    def test_v3_vectors_are_slices_of_one_mapping(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        reloaded = store.get(store.put(release))
        mappings = set()
        for vector in reloaded.marginals:
            base = np.asarray(vector)
            while not isinstance(base, np.memmap):
                base = base.base
            mappings.add(id(base))
            assert not vector.flags.writeable
        assert len(mappings) == 1

    def test_service_answers_identically_across_layouts(self, tmp_path, release):
        """One store holding v1, v2 and v3 releases of the same data."""
        store = ReleaseStore(tmp_path / "store")
        ids = {
            "v1": write_legacy_release(store, release, "v1"),
            "v2": write_legacy_release(store, release, "v2"),
            "v3": store.put(release),
        }
        reopened = ReleaseStore(tmp_path / "store", create=False)
        assert {layout: reopened.metadata(rid)["layout"] for layout, rid in ids.items()} == {
            layout: layout for layout in ids
        }
        service = QueryService(reopened, cache_size=0)
        schema = release.workload.schema
        names = [attribute.name for attribute in schema.attributes]
        requests = [names[:1], names[:2], names[1:3], []]
        answers = {
            layout: [service.query(request, release_id=rid) for request in requests]
            for layout, rid in ids.items()
        }
        for layout in ("v1", "v2"):
            for ours, theirs in zip(answers[layout], answers["v3"]):
                assert ours.values.tobytes() == theirs.values.tobytes()
                assert ours.std_error == theirs.std_error
        for rid in ids.values():
            assert reopened.marginal_digests(rid) == reopened.marginal_digests(ids["v3"])

    def test_overwrite_switches_layout_in_place(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        write_legacy_release(store, release, "v1", release_id="r")
        store.put(release, release_id="r", overwrite=True)
        directory = tmp_path / "store" / "r"
        assert (directory / "marginals.npy").exists()
        assert not (directory / "marginals.npz").exists()  # no v1 leftovers
        assert store.metadata("r")["layout"] == "v3"
        _assert_bitwise(store, "r", release)

    def test_delete_removes_v2_vectors(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = write_legacy_release(store, release, "v2")
        store.delete(release_id)
        assert not (tmp_path / "store" / release_id).exists()

    @pytest.mark.parametrize("layout", ["v1", "v3"])
    def test_delete_removes_the_release_directory(self, tmp_path, release, layout):
        store = ReleaseStore(tmp_path / "store")
        if layout == "v3":
            release_id = store.put(release)
        else:
            release_id = write_legacy_release(store, release, layout)
        store.delete(release_id)
        assert not (tmp_path / "store" / release_id).exists()
        assert release_id not in ReleaseStore(tmp_path / "store", create=False)

    def test_delete_leaves_unknown_files_alone(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        notes = tmp_path / "store" / release_id / "NOTES.txt"
        notes.write_text("kept by the operator")
        store.delete(release_id)
        assert sorted(path.name for path in notes.parent.iterdir()) == ["NOTES.txt"]
        assert release_id not in store


class TestTargetedErrors:
    def test_missing_release_is_a_serving_error(self, tmp_path):
        store = ReleaseStore(tmp_path / "store")
        with pytest.raises(ServingError, match="no release"):
            store.get("nope")

    def test_missing_v3_file_is_a_serving_error(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        (tmp_path / "store" / release_id / "marginals.npy").unlink()
        with pytest.raises(ServingError, match="marginals.npy"):
            store.get(release_id)

    def test_v3_file_with_trailing_bytes_is_corrupt(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        with open(tmp_path / "store" / release_id / "marginals.npy", "ab") as handle:
            handle.write(bytes(8))
        with pytest.raises(CorruptMarginalError, match="trailing bytes") as info:
            store.get(release_id)
        assert info.value.mask is None
        assert info.value.release_id == release_id

    def test_v3_file_of_another_length_in_its_header_is_corrupt(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = store.put(release)
        path = tmp_path / "store" / release_id / "marginals.npy"
        data = path.read_bytes()
        total = release.workload.total_cells
        path.write_bytes(data.replace(f"({total},)".encode(), f"({total - 1},)".encode(), 1))
        with pytest.raises(CorruptMarginalError, match="truncated or corrupt"):
            store.get(release_id)
        assert not store.verify(release_id)["ok"]

    def test_missing_v1_archive_is_a_serving_error(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = write_legacy_release(store, release, "v1")
        (tmp_path / "store" / release_id / "marginals.npz").unlink()
        with pytest.raises(ServingError, match="marginals.npz"):
            store.get(release_id)

    def test_missing_v1_array_is_a_data_error_naming_the_cuboid(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = write_legacy_release(store, release, "v1")
        directory = tmp_path / "store" / release_id
        archive = np.load(directory / "marginals.npz")
        arrays = {key: archive[key] for key in archive.files}
        arrays.pop("marginal_00003")
        np.savez_compressed(directory / "marginals.npz", **arrays)
        with pytest.raises(DataError, match="marginal_00003.*cuboid 0x"):
            store.get(release_id)

    def test_missing_v2_vector_is_a_data_error_naming_the_cuboid(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store")
        release_id = write_legacy_release(store, release, "v2")
        directory = tmp_path / "store" / release_id
        (directory / "marginals" / "marginal_00001.npy").unlink()
        with pytest.raises(DataError, match="marginal_00001.*cuboid 0x"):
            store.get(release_id)

    def test_missing_v2_directory_is_a_serving_error(self, tmp_path, release):
        import shutil

        store = ReleaseStore(tmp_path / "store")
        release_id = write_legacy_release(store, release, "v2")
        shutil.rmtree(tmp_path / "store" / release_id / "marginals")
        with pytest.raises(ServingError, match="marginals/"):
            store.get(release_id)
