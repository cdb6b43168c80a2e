"""The marginal memo and the hoisted batch-projection kernel.

Satellite regression pins: repeated ``marginal(mask)`` requests are served
from a small LRU **bitwise identical** to the uncached computation, cached
arrays are never aliased to callers (the mutate-your-copy contract holds),
and the plane-sharing batch kernel produces exactly the per-mask projected
bincounts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import DataError
from repro.fourier.index import project_indices
from repro.obs import tracing
from repro.sources.base import ensure_dense_allowed
from repro.sources.record import (
    MarginalMemo,
    RecordSource,
    memoised_marginals,
    projected_marginals,
    worklist_marginals,
)
from repro.utils.bits import hamming_weight

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

D = 7

code_lists = st.lists(st.integers(0, (1 << D) - 1), min_size=1, max_size=80)
masks = st.integers(1, (1 << D) - 1)


class TestMemo:
    @SETTINGS
    @given(code_lists, masks)
    def test_cached_path_is_bitwise_identical_to_uncached(self, rows, mask):
        codes = np.array(rows, dtype=np.int64)
        cached = RecordSource(codes, dimension=D)
        uncached = RecordSource(codes, dimension=D, marginal_cache_size=0)
        first = cached.marginal(mask)
        second = cached.marginal(mask)  # memo hit
        reference = uncached.marginal(mask)
        assert np.array_equal(first, reference)
        assert np.array_equal(second, reference)

    def test_callers_own_their_arrays(self):
        source = RecordSource(np.arange(20, dtype=np.int64), dimension=D)
        first = source.marginal(0b11)
        second = source.marginal(0b11)
        assert first is not second
        first[:] = -123.0  # mutating a returned array must not poison the memo
        assert np.array_equal(source.marginal(0b11), second)

    def test_lru_evicts_oldest(self):
        memo = MarginalMemo(maxsize=2)
        memo.put(1, np.zeros(1))
        memo.put(2, np.zeros(1))
        memo.get(1)  # refresh 1 -> 2 becomes the eviction candidate
        memo.put(3, np.zeros(1))
        assert memo.get(1) is not None
        assert memo.get(2) is None
        assert memo.get(3) is not None

    def test_disabled_memo_stores_nothing(self):
        memo = MarginalMemo(maxsize=0)
        assert not memo.put(1, np.zeros(1))
        assert memo.get(1) is None
        assert not memo.enabled

    def test_cell_budget_bounds_memory(self):
        """Regression: the memo is bounded in cells, not just entries — wide
        batch-root marginals cannot pin unbounded memory on cached sources."""
        memo = MarginalMemo(maxsize=64, max_cells=100)
        assert not memo.put(1, np.zeros(101))  # larger than the whole budget
        assert memo.get(1) is None
        assert memo.put(2, np.zeros(60))
        assert memo.put(3, np.zeros(60))  # pushes total over 100 -> evicts 2
        assert memo.get(2) is None
        assert memo.get(3) is not None
        assert memo.cells == 60

    def test_replacing_an_entry_keeps_the_cell_count_consistent(self):
        memo = MarginalMemo(maxsize=4, max_cells=100)
        memo.put(1, np.zeros(40))
        memo.put(1, np.zeros(10))
        assert memo.cells == 10

    def test_repeats_hit_the_cache(self):
        source = RecordSource(np.arange(50, dtype=np.int64), dimension=D)
        for _ in range(3):
            source.marginal(0b101)
        assert len(source._memo) == 1


class TestProjectedMarginalsKernel:
    @SETTINGS
    @given(
        code_lists,
        st.lists(masks, min_size=1, max_size=6, unique=True),
    )
    def test_plane_sharing_matches_per_mask_projection(self, rows, members):
        codes = np.array(rows, dtype=np.int64)
        weights = np.ones(codes.shape[0], dtype=np.float64)
        root = 0
        for member in members:
            root |= member
        batched = projected_marginals(codes, weights, root, members)
        for member in members:
            compact = project_indices(codes, member)
            reference = np.bincount(
                compact, weights=weights, minlength=1 << bin(member).count("1")
            ).astype(np.float64, copy=False)
            assert np.array_equal(batched[member], reference)

    def test_member_outside_the_root_falls_back_to_direct_projection(self):
        codes = np.arange(30, dtype=np.int64)
        weights = np.ones(30)
        out = projected_marginals(codes, weights, 0b11, [0b11, 0b100])
        reference = np.bincount(
            project_indices(codes, 0b100), weights=weights, minlength=2
        )
        assert np.array_equal(out[0b100], reference)

    def test_batched_source_call_matches_individual_calls(self):
        codes = np.random.default_rng(0).integers(0, 1 << D, 200)
        source = RecordSource(codes, dimension=D)
        fresh = RecordSource(codes, dimension=D, marginal_cache_size=0)
        worklist = [(0b1111, (0b11, 0b1100)), (0b110001, (0b110001,))]
        batch = source.marginals_for_batches(worklist)
        for mask in (0b11, 0b1100, 0b110001):
            assert np.array_equal(batch[mask], fresh.marginal(mask))


def per_member_memoised_marginals(source, memo, batches, compute, *, limit_bits):
    """The reference: ``memoised_marginals`` as a loop of single memo calls."""
    values = {}
    work = []
    seen = set()
    for root, members in batches:
        root = source.check_mask(int(root))
        needed = []
        for member in members:
            member = source.check_mask(int(member))
            if member in seen:
                continue
            seen.add(member)
            ensure_dense_allowed(
                hamming_weight(member),
                limit_bits=limit_bits,
                what=f"the cuboid marginal {member:#x}",
            )
            cached = memo.get(member)
            if cached is not None:
                values[member] = cached.copy()
            else:
                needed.append(member)
        if needed:
            work.append((root, tuple(needed)))
    if work:
        for member, value in compute(work).items():
            values[member] = value.copy() if memo.put(member, value) else value
    return values


def memo_state(memo):
    """Entries (mask, held array) in LRU order, cells and counters."""
    return (
        [(mask, value) for mask, value in memo._entries.items()],
        memo.cells,
        (memo.stats.hits, memo.stats.misses, memo.stats.evictions),
    )


def assert_same_memo(bulk, loop):
    (bulk_entries, bulk_cells, bulk_stats) = memo_state(bulk)
    (loop_entries, loop_cells, loop_stats) = memo_state(loop)
    assert [mask for mask, _ in bulk_entries] == [mask for mask, _ in loop_entries]
    for (_, held), (_, reference) in zip(bulk_entries, loop_entries):
        assert np.array_equal(held, reference)
    assert bulk_cells == loop_cells
    assert bulk_stats == loop_stats


memo_bounds = st.tuples(st.integers(0, 6), st.integers(1, 200))
#: Calls of up to 4 batches of up to 12 members (repeats included), each
#: member of 1 to 128 cells.
batch_members = st.lists(st.integers(0, (1 << D) - 1), min_size=1, max_size=12)
worklists = st.lists(
    st.lists(batch_members, min_size=1, max_size=4), min_size=1, max_size=4
)


class TestBulkMemo:
    """``get_many``/``put_many`` leave the memo exactly as single calls do."""

    @SETTINGS
    @given(
        memo_bounds,
        st.lists(st.tuples(st.integers(0, 60), st.integers(1, 30)), max_size=20),
        st.lists(st.integers(0, 60), max_size=20),
        st.lists(st.integers(1, 30), max_size=30),
    )
    def test_put_many_matches_put_in_turn(self, bounds, held, lookups, new_sizes):
        maxsize, max_cells = bounds
        bulk = MarginalMemo(maxsize, max_cells)
        loop = MarginalMemo(maxsize, max_cells)
        for mask, size in held:
            value = np.full(size, float(mask))
            bulk.put(mask, value)
            loop.put(mask, value)
        with tracing() as bulk_trace:
            hits = bulk.get_many(lookups)
            items = [
                (100 + index, np.full(size, float(index)))
                for index, size in enumerate(new_sizes)
            ]
            stored = bulk.put_many(items)
        with tracing() as loop_trace:
            reference_hits = {}
            for mask in lookups:
                value = loop.get(mask)
                if value is not None:
                    reference_hits[mask] = value
            reference_stored = [mask for mask, value in items if loop.put(mask, value)]
        assert list(hits) == list(dict.fromkeys(reference_hits))
        assert all(hits[mask] is reference_hits[mask] for mask in hits)
        assert_same_memo(bulk, loop)
        # Only survivors are stored, and every survivor was stored by the loop.
        assert stored == [mask for mask in bulk._entries if mask >= 100]
        assert set(stored) <= set(reference_stored)
        assert bulk_trace.metrics.snapshot()["counters"] == (
            loop_trace.metrics.snapshot()["counters"]
        )

    def test_put_many_rejects_held_or_repeated_masks(self):
        memo = MarginalMemo(4, 100)
        memo.put(1, np.zeros(2))
        with pytest.raises(ValueError):
            memo.put_many([(1, np.zeros(2))])
        with pytest.raises(ValueError):
            memo.put_many([(2, np.zeros(2)), (2, np.zeros(2))])

    @SETTINGS
    @given(code_lists, memo_bounds, worklists)
    def test_memoised_marginals_match_the_per_member_loop(self, rows, bounds, calls):
        """Worklists longer than the memo, repeated across calls so that
        some members hit: same values, entries, LRU order, cells and
        ``record.memo.*`` counters as the per-member loop."""
        codes = np.array(rows, dtype=np.int64)
        source = RecordSource(codes, dimension=D, marginal_cache_size=0)
        weights = np.asarray(source.weights)
        compute = lambda work: worklist_marginals(source.codes, weights, work)  # noqa: E731
        bulk = MarginalMemo(*bounds)
        loop = MarginalMemo(*bounds)
        for call in calls:
            batches = [
                (int(np.bitwise_or.reduce(members)), tuple(members)) for members in call
            ]
            with tracing() as bulk_trace:
                values = memoised_marginals(source, bulk, batches, compute, limit_bits=D)
            with tracing() as loop_trace:
                reference = per_member_memoised_marginals(
                    source, loop, batches, compute, limit_bits=D
                )
            assert list(values) == list(reference)
            for mask, value in values.items():
                assert np.array_equal(value, reference[mask])
                assert not any(value is held for held in bulk._entries.values())
            assert_same_memo(bulk, loop)
            assert bulk_trace.metrics.snapshot()["counters"] == (
                loop_trace.metrics.snapshot()["counters"]
            )

    @pytest.mark.parametrize(
        "batches",
        [
            [(0b11, (0b1, 0b11)), (1 << D, (0b1,))],
            [(0b11, (0b1, 0b11)), (0b111, (-1,))],
            [(0b111, (0b1, 0b111, 1 << D))],
            [(0b1111, (0b11, 0b1111))],
        ],
    )
    def test_invalid_masks_raise_what_the_loop_raises(self, batches):
        source = RecordSource(np.arange(9, dtype=np.int64), dimension=D, marginal_cache_size=0)
        compute = lambda work: {}  # noqa: E731 - never reached
        with pytest.raises(DataError) as expected:
            per_member_memoised_marginals(source, MarginalMemo(), batches, compute, limit_bits=3)
        with pytest.raises(DataError) as actual:
            memoised_marginals(source, MarginalMemo(), batches, compute, limit_bits=3)
        assert type(actual.value) is type(expected.value)
        assert str(actual.value) == str(expected.value)
