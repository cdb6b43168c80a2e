"""MappedRecordSource: bitwise kernels off memmap, planner I/O costing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import tracing
from repro.plan import batched_marginals
from repro.plan.cost import cost_marginal_batches
from repro.plan.lattice import MarginalBatch
from repro.sources import RecordSource
from repro.store import open_source, write_source
from repro.store.mapped import IO_COST_FACTOR


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 1 << 16, 20_000, dtype=np.int64)
    path = tmp_path_factory.mktemp("mapped") / "src"
    write_source(path, codes, dimension=16, shards=4)
    return path, codes


class TestMappedKernels:
    def test_marginals_match_record_source(self, stored):
        path, codes = stored
        mapped = open_source(path, workers=2)
        reference = RecordSource(codes, dimension=16)
        for mask in (0b1, 0b11011, (1 << 16) - 1, 0b1111000011110000):
            assert np.array_equal(mapped.marginal(mask), reference.marginal(mask))

    def test_batched_marginals_match(self, stored):
        path, codes = stored
        mapped = open_source(path)
        reference = RecordSource(codes, dimension=16)
        root = (1 << 12) - 1
        members = [0b11, 0b1100, 0b111000000000]
        ours = mapped.marginals_for_batches([(root, members)])
        exact = reference.marginals_for_batches([(root, members)])
        for mask in members:
            assert np.array_equal(ours[mask], exact[mask])

    def test_dense_vector_matches(self, stored):
        path, codes = stored
        mapped = open_source(path)
        reference = RecordSource(codes, dimension=16)
        assert np.array_equal(mapped.dense_vector(), reference.dense_vector())

    def test_repeat_scans_after_page_release(self, stored):
        # madvise(DONTNEED) must not invalidate the mapping: the same
        # marginal computed twice (cold, then after release) is identical.
        path, codes = stored
        mapped = open_source(path)
        first = mapped.marginal(0b101)
        second = mapped.marginal(0b101)
        assert np.array_equal(first, second)


class TestMappedConstruction:
    def test_totals_come_from_the_manifest(self, stored):
        path, codes = stored
        mapped = open_source(path)
        reference = RecordSource(codes, dimension=16)
        assert mapped.distinct_records == reference.distinct_records
        assert mapped.total == reference.total
        assert mapped.bytes_mapped == 16 * reference.distinct_records

    def test_describe_layout_mentions_the_mapping(self, stored):
        path, _ = stored
        assert "memory-mapped" in open_source(path).describe_layout()


class TestMappedCosting:
    def test_direct_scans_price_in_io(self, stored):
        path, codes = stored
        mapped = open_source(path, workers=1)
        reference = RecordSource(codes, dimension=16)
        masks = np.array([0b111], dtype=np.int64)
        assert mapped.marginal_costs(masks)[0] == pytest.approx(
            reference.marginal_costs(masks)[0]
            + IO_COST_FACTOR * mapped.distinct_records,
            rel=0.3,
        )
        # Derivation stays in memory: no I/O term.
        derived = mapped.derive_costs(masks, np.array([0b011], dtype=np.int64))
        assert derived[0] < IO_COST_FACTOR * mapped.distinct_records

    def test_batch_costs_prefer_the_shared_root(self, stored):
        path, _ = stored
        mapped = open_source(path, workers=1)
        batch = MarginalBatch(root=(1 << 10) - 1, members=(0b11, 0b1100, 0b110000))
        (cost,) = cost_marginal_batches(mapped, [batch])
        # One mapped scan plus in-memory refinements beats four mapped scans.
        assert cost.use_root
        assert cost.root_cost < cost.direct_cost

    def test_budget_vetoes_oversized_roots(self, tmp_path):
        """A root vector that would blow the memory budget is never chosen,
        even when the I/O estimates alone favour the shared scan."""
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 1 << 20, 200_000, dtype=np.int64)
        path = write_source(tmp_path / "src", codes, dimension=20, shards=4)
        budgeted = open_source(path, workers=1, memory_budget=1 << 20)
        unbudgeted = open_source(path, workers=1)
        ceiling = budgeted.max_root_cells()
        assert ceiling is not None and unbudgeted.max_root_cells() is None
        root = (1 << 17) - 1  # 131072 cells, over the budgeted ceiling
        assert (1 << 17) > ceiling
        batch = MarginalBatch(root=root, members=(0b11, 0b1100, 0b110000))
        (vetoed,) = cost_marginal_batches(budgeted, [batch])
        (free,) = cost_marginal_batches(unbudgeted, [batch])
        assert free.use_root and not vetoed.use_root
        # A plan without costs is priced by the same model at execute time,
        # so the veto holds there too.
        for source, roots in ((budgeted, 0), (unbudgeted, 1)):
            with tracing() as recorder:
                batched_marginals(source, [batch], 20)
            counters = recorder.metrics.snapshot()["counters"]
            assert counters.get("plan.batches_root", 0) == roots
        # Trivial batches are exempt: the workload demands that vector anyway.
        trivial = MarginalBatch(root=root, members=(root,))
        (cost,) = cost_marginal_batches(budgeted, [trivial])
        assert cost.use_root
