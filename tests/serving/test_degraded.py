"""Degraded-mode serving: digest pinning, quarantine, fallback, sidelining.

Each released cuboid's sha256 is pinned in the store metadata at ``put``
time; the planner re-verifies a vector the first time it aggregates from it.
A digest mismatch quarantines that one cuboid (the query falls back to the
next covering source, with honestly wider error bars); an unloadable release
is sidelined whole and routing falls back to an older one.  Corrupt data is
never served silently: a query only a corrupt cuboid could answer fails.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import CorruptMarginalError, ServingError
from repro.net.protocol import answer_payload, encode_canonical
from repro.serving.service import QueryService
from repro.serving.store import ReleaseStore
from tests.store_files import (
    corrupt_marginal,
    marginal_offset,
    truncate,
    write_legacy_release,
)


@pytest.fixture
def store(tmp_path) -> ReleaseStore:
    return ReleaseStore(tmp_path / "store")


class TestDigestPinning:
    def test_put_records_one_digest_per_marginal(self, store, release):
        rid = store.put(release)
        digests = store.marginal_digests(rid)
        assert digests is not None
        assert len(digests) == len(release.marginals)
        assert all(len(d) == 64 for d in digests)

    def test_verify_green_on_an_intact_release(self, store, release):
        rid = store.put(release)
        report = store.verify(rid)
        assert report["ok"]
        assert report["verified"] == len(release.marginals)
        assert report["corrupt"] == []

    def test_verify_flags_in_place_corruption(self, store, release):
        rid = store.put(release)
        corrupt_marginal(store.root, rid, 0, release)
        report = store.verify(rid)
        assert not report["ok"]
        (problem,) = report["corrupt"]
        assert problem["position"] == 0
        assert "integrity" in problem["error"] or "digest" in problem["error"]

    def test_verify_all_rolls_up_every_release(self, store, release):
        good = store.put(release)
        bad = store.put(release)
        corrupt_marginal(store.root, bad, 1, release)
        report = store.verify_all()
        assert not report["ok"]
        by_id = {entry["release_id"]: entry for entry in report["reports"]}
        assert by_id[good]["ok"]
        assert not by_id[bad]["ok"]


class TestQuarantine:
    def test_corrupt_cuboid_is_quarantined_and_served_from_a_fallback(
        self, store, release
    ):
        rid = store.put(release)
        clean = QueryService(store).query(["a"])
        assert not clean.degraded
        corrupt_marginal(store.root, rid, clean.plan.source_position, release)

        service = QueryService(store)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            degraded = service.query(["a"])
        assert any("quarantined" in str(w.message) for w in caught)
        assert degraded.degraded
        assert degraded.plan.source_mask != clean.plan.source_mask
        # The release is consistent, so the fallback answer matches bitwise.
        np.testing.assert_array_equal(degraded.values, clean.values)
        # Honest accounting: the fallback source is farther up the lattice.
        assert degraded.std_error >= clean.std_error

    def test_health_reflects_the_quarantine(self, store, release):
        rid = store.put(release)
        clean = QueryService(store).query(["a"])
        corrupt_marginal(store.root, rid, clean.plan.source_position, release)
        service = QueryService(store)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            service.query(["a"])
        health = service.health()
        assert not health["ok"]
        assert health["quarantine_events"] == 1
        assert hex(clean.plan.source_mask) in health["quarantined"][rid]
        assert service.stats()["health"] == health

    def test_batch_path_avoids_the_quarantined_source(self, store, release):
        rid = store.put(release)
        clean = QueryService(store).query(["a"])
        corrupt_mask = clean.plan.source_mask
        corrupt_marginal(store.root, rid, clean.plan.source_position, release)
        service = QueryService(store)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            answers = service.query_batch([("a",), ("b",), ("c",)])
        assert all(a.plan.source_mask != corrupt_mask for a in answers)

    def test_a_query_only_the_corrupt_cuboid_covers_fails(self, store, release):
        rid = store.put(release)
        clean = QueryService(store).query(["a", "b"])
        # ("a","b") is a maximal 2-way cuboid: nothing else covers it.
        corrupt_marginal(store.root, rid, clean.plan.source_position, release)
        service = QueryService(store)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ServingError, match="quarantined"):
                service.query(["a", "b"])

    def test_a_quarantine_off_the_chosen_source_does_not_degrade(
        self, store, release
    ):
        # Regression: ``degraded`` used to be set whenever any quarantined
        # cuboid dominated the query, even when the chosen source was still
        # the healthy optimum — so the served bytes depended on whether the
        # answer came from the cache.
        rid = store.put(release)
        clean = QueryService(store).query(["a"])
        other = next(
            position
            for position, query in enumerate(release.workload.queries)
            if query.mask & 1 and position != clean.plan.source_position
        )
        corrupt_marginal(store.root, rid, other, release)
        corrupt_pair = list(
            release.workload.schema.attributes_of_mask(release.workload.queries[other].mask)
        )
        served = {}
        for cache_size in (1024, 0):
            service = QueryService(ReleaseStore(store.root, create=False), cache_size=cache_size)
            service.query(["a"])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(ServingError, match="quarantined"):
                    service.query(corrupt_pair)  # the corrupt cuboid's only cover
            assert not service.health()["ok"]
            answer = service.query(["a"])
            assert not answer.degraded
            payload = answer_payload(answer)
            payload.pop("cached")
            served[cache_size] = encode_canonical(payload)
        assert served[1024] == served[0]

    def test_invalidate_clears_the_quarantine(self, store, release):
        rid = store.put(release)
        clean = QueryService(store).query(["a"])
        corrupt_marginal(store.root, rid, clean.plan.source_position, release)
        service = QueryService(store)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            service.query(["a"])
        assert not service.health()["ok"]
        service.invalidate(rid)
        assert service.health()["ok"]

    def test_flipped_byte_quarantines_exactly_that_cuboid(self, store, release):
        rid = store.put(release)
        queries = release.workload.queries
        schema = release.workload.schema
        position = 3
        corrupt_marginal(store.root, rid, position, release)
        service = QueryService(store)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for index, query in enumerate(queries):
                names = list(schema.attributes_of_mask(query.mask))
                if index == position:
                    with pytest.raises(ServingError, match="quarantined"):
                        service.query(names)
                else:
                    answer = service.query(names)
                    assert answer.plan.source_position == index
                    np.testing.assert_array_equal(answer.values, release.marginals[index])
        assert service.health()["quarantined"] == {rid: [hex(queries[position].mask)]}
        (problem,) = store.verify(rid)["corrupt"]
        assert problem["position"] == position


class TestTruncation:
    @pytest.mark.parametrize("position", [0, 1, 5])
    def test_truncated_v3_file_names_the_first_cuboid_past_the_end(
        self, store, release, position
    ):
        rid = store.put(release)
        # Keep every vector before ``position`` whole and half of its first cell.
        truncate(store.root / rid / "marginals.npy", marginal_offset(release, position) + 4)
        with pytest.raises(CorruptMarginalError, match="truncated or corrupt") as info:
            store.get(rid)
        assert info.value.mask == release.workload.queries[position].mask
        assert info.value.release_id == rid
        report = store.verify(rid)
        assert not report["ok"]
        assert report["corrupt"][0]["mask"] == info.value.mask

    def test_truncated_v3_header_names_the_first_cuboid(self, store, release):
        rid = store.put(release)
        truncate(store.root / rid / "marginals.npy", 40)
        with pytest.raises(CorruptMarginalError) as info:
            store.get(rid)
        assert info.value.mask == release.workload.queries[0].mask

    def test_truncated_v2_vector_is_a_targeted_error(self, store, release):
        rid = write_legacy_release(store, release, "v2")
        target = store.root / rid / "marginals" / "marginal_00001.npy"
        truncate(target, 40)
        with pytest.raises(CorruptMarginalError, match="truncated or corrupt") as info:
            store.get(rid)
        assert info.value.mask is not None
        assert info.value.release_id == rid

    def test_truncated_v1_archive_is_a_targeted_error(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "v1store")
        rid = write_legacy_release(store, release, "v1")
        assert store.marginal_digests(rid) is not None
        assert store.verify(rid)["ok"]
        truncate(store.root / rid / "marginals.npz", size=60)
        with pytest.raises(CorruptMarginalError):
            store.get(rid)
        assert not store.verify(rid)["ok"]


class TestSidelining:
    def test_unloadable_newest_release_falls_back_to_an_older_one(
        self, store, release
    ):
        older = store.put(release)
        newest = store.put(release)
        truncate(store.root / newest / "marginals.npy", 40)
        service = QueryService(store)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            answer = service.query(["a"])
        assert answer.release_id == older
        assert any("sidelined" in str(w.message) for w in caught)
        health = service.health()
        assert newest in health["degraded_releases"]
        assert not health["ok"]


class TestStatsStoreCli:
    def test_healthy_store_exits_zero(self, store, release, capsys):
        store.put(release)
        rc = main(["stats", "--store", str(store.root)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "health  : OK" in out
        assert "digest-verified" in out

    def test_corrupt_store_exits_one_and_names_the_cuboid(
        self, store, release, capsys
    ):
        rid = store.put(release)
        corrupt_marginal(store.root, rid, 0, release)
        rc = main(["stats", "--store", str(store.root)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "CORRUPT" in out
        assert "health  : DEGRADED" in out

    def test_json_report_round_trips(self, store, release, capsys):
        store.put(release)
        rc = main(["stats", "--store", str(store.root), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"]
        assert payload["releases"] == 1

    def test_trace_and_store_are_mutually_exclusive(self, store, capsys):
        rc = main(["stats", "trace.json", "--store", str(store.root)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "either a trace file or --store" in err
