"""The pair kernel: one- and two-bit marginals from weighted byte histograms.

Every record backend reads the narrow members of a worklist off
``G = P^T diag(w) P``, built from weighted byte and byte-pair histograms of
the codes (:func:`repro.sources.record.pair_marginals`).  These
tests pin it bit for bit against a per-mask projected weighted bincount
written here — on the raw kernel, on every record source and shard layout,
on memory-mapped sources — and check its fallback, its chunk edges, its
transient memory and its trace counters.
"""

from __future__ import annotations

import hashlib
import tempfile
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import release_marginals
from repro.domain import Dataset, Schema
from repro.fourier.index import project_indices
from repro.obs import tracing
from repro.queries import all_k_way
from repro.shards import ShardedRecordSource
from repro.sources import RecordSource
from repro.sources.record import (
    PAIR_CHUNK_ROWS,
    pair_kernel_is_exact,
    pair_marginals,
    worklist_marginals,
)
from repro.store import open_source, write_source
from repro.utils.bits import from_bit_indices, hamming_weight

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Codes span bit 0 through bit 61, the widest record domain.
D = 62
BITS = (0, 1, 7, 8, 9, 31, 32, 33, 60, 61)

codes_strategy = st.lists(
    st.integers(0, (1 << D) - 1) | st.sampled_from([1, 1 << 61, (1 << 61) | 1]),
    max_size=40,
)


def bincount_reference(codes, weights, mask: int) -> np.ndarray:
    """The definition: project every code onto ``mask``, weighted bincount."""
    codes = np.asarray(codes, dtype=np.int64)
    return np.bincount(
        project_indices(codes, mask),
        weights=np.asarray(weights, dtype=np.float64),
        minlength=1 << hamming_weight(mask),
    ).astype(np.float64, copy=False)


def shard_reference(parts, mask: int) -> np.ndarray:
    """Per-shard bincounts summed in shard order (the sharded reduction)."""
    total = None
    for codes, weights in parts:
        value = bincount_reference(codes, weights, mask)
        total = value if total is None else total + value
    return total


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    # tobytes() also tells -0.0 from 0.0, which array_equal does not.
    assert actual.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def narrow_masks(bits) -> list:
    """Every one- and two-bit mask over ``bits``."""
    return [1 << bit for bit in bits] + [
        (1 << low) | (1 << high) for low, high in combinations(sorted(bits), 2)
    ]


@st.composite
def worklists(draw):
    """Batches mixing 0-, 1-, 2- and 3-bit members, with members repeated
    across batches and members outside their batch's root."""
    pool = draw(st.lists(st.sampled_from(BITS), min_size=1, max_size=5, unique=True))
    narrow = narrow_masks(pool)
    extra = draw(
        st.lists(
            st.lists(st.sampled_from(BITS), max_size=3, unique=True).map(
                from_bit_indices
            ),
            max_size=6,
        )
    )
    members = narrow + extra
    roots = st.lists(st.sampled_from(BITS), max_size=6, unique=True).map(
        from_bit_indices
    )
    work = [(draw(roots), tuple(draw(st.permutations(narrow))))]
    for _ in range(draw(st.integers(0, 3))):
        batch = draw(st.lists(st.sampled_from(members), min_size=1, max_size=8))
        work.append((draw(roots), tuple(batch)))
    return work


def requested(work) -> set:
    return {member for _root, members in work for member in members}


def counters(recorder) -> dict:
    return recorder.metrics.snapshot()["counters"]


class TestKernel:
    @SETTINGS
    @given(
        codes_strategy,
        st.lists(st.integers(-4, 6), min_size=40, max_size=40),
        worklists(),
    )
    def test_worklist_matches_per_mask_bincount(self, rows, weight_pool, work):
        codes = np.array(rows, dtype=np.int64)
        weights = np.array(weight_pool[: len(rows)], dtype=np.float64)
        out = worklist_marginals(codes, weights, work)
        assert set(out) == requested(work)
        for mask, value in out.items():
            assert_bitwise(value, bincount_reference(codes, weights, mask))

    @SETTINGS
    @given(
        codes_strategy,
        st.lists(st.integers(-4, 6), min_size=40, max_size=40),
        st.lists(st.sampled_from(BITS), min_size=1, max_size=6, unique=True),
    )
    def test_pair_marginals_match_per_mask_bincount(self, rows, weight_pool, bits):
        codes = np.array(rows, dtype=np.int64)
        weights = np.array(weight_pool[: len(rows)], dtype=np.float64)
        masks = narrow_masks(bits) + [0]
        out = pair_marginals(codes, weights, masks)
        assert set(out) == set(masks)
        for mask in masks:
            assert_bitwise(out[mask], bincount_reference(codes, weights, mask))

    @pytest.mark.parametrize(
        "rows",
        [PAIR_CHUNK_ROWS - 1, PAIR_CHUNK_ROWS, PAIR_CHUNK_ROWS + 1],
        ids=["chunk-1", "chunk", "chunk+1"],
    )
    def test_chunk_edges(self, rows):
        rng = np.random.default_rng(rows)
        codes = rng.integers(0, 1 << D, rows, dtype=np.int64)
        codes[::3] |= 1
        codes[::5] |= 1 << 61
        weights = rng.integers(0, 4, rows).astype(np.float64)  # many zeros
        masks = narrow_masks((0, 1, 33, 61))
        work = [((1 << 61) | 1, tuple(masks) + (0, 0b111))]
        with tracing() as recorder:
            out = worklist_marginals(codes, weights, work)
        assert counters(recorder)["source.pair_members"] == len(masks) + 1
        for mask in requested(work):
            assert_bitwise(out[mask], bincount_reference(codes, weights, mask))

    def test_all_eight_bytes(self):
        # Touched bits in every byte of the code, the 6-bit top byte
        # included: 28 byte-pair histograms.
        rng = np.random.default_rng(8)
        codes = rng.integers(0, 1 << D, 3000, dtype=np.int64)
        codes[::7] |= (1 << 61) | 1
        weights = rng.integers(-5, 9, codes.shape[0]).astype(np.float64)
        bits = (0, 7, 12, 16, 23, 30, 35, 41, 47, 50, 56, 59, 61)
        assert len({bit >> 3 for bit in bits}) == 8
        masks = narrow_masks(bits) + [0]
        out = pair_marginals(codes, weights, masks)
        assert set(out) == set(masks)
        for mask in masks:
            assert_bitwise(out[mask], bincount_reference(codes, weights, mask))

    def test_negative_zero_weights(self):
        # The bincount's cells start at +0.0, so it never yields -0.0.
        codes = np.array([1, 2, (1 << 61) | 2], dtype=np.int64)
        weights = np.array([-0.0, -0.0, -0.0])
        masks = narrow_masks((0, 1, 61)) + [0]
        out = pair_marginals(codes, weights, masks)
        for mask in masks:
            assert_bitwise(out[mask], bincount_reference(codes, weights, mask))

    def test_empty_codes(self):
        codes = np.zeros(0, dtype=np.int64)
        weights = np.zeros(0, dtype=np.float64)
        masks = narrow_masks((0, 61)) + [0]
        out = worklist_marginals(codes, weights, [(0, tuple(masks))])
        for mask in masks:
            assert_bitwise(out[mask], np.zeros(1 << hamming_weight(mask)))


class TestFallback:
    @pytest.mark.parametrize(
        "weights, exact",
        [
            ([1.0, 0.0, 3.0], True),
            ([2.0**52, 2.0**52 - 1], True),
            ([2.0**52, 2.0**52], False),
            ([2.0**52, -(2.0**52)], False),  # sum(|w|), not sum(w)
            ([1.0, 0.5], False),
            ([1.0, np.nan], False),
            ([1.0, np.inf], False),
        ],
    )
    def test_exactness_condition(self, weights, exact):
        assert pair_kernel_is_exact(np.array(weights)) is exact

    @pytest.mark.parametrize("kind", ["fractional", "huge"])
    def test_inexact_weights_take_the_bincount(self, kind):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 1 << D, 500, dtype=np.int64)
        if kind == "fractional":
            weights = rng.integers(0, 5, 500) + rng.random(500)
        else:
            weights = rng.integers(1, 5, 500) * 2.0**50
        masks = narrow_masks((0, 8, 31, 61))
        work = [((1 << 61) | (1 << 31), tuple(masks))]
        with tracing() as recorder:
            out = worklist_marginals(codes, weights, work)
        seen = counters(recorder)
        assert seen["source.pair_members"] == 0
        assert seen["source.bincount_members"] == len(masks)
        for mask in masks:
            assert_bitwise(out[mask], bincount_reference(codes, weights, mask))

    def test_few_members_per_bit_take_the_bincount(self):
        codes = np.arange(100, dtype=np.int64)
        with tracing() as recorder:
            worklist_marginals(codes, np.ones(100), [(0b101, (0b101, 0b1))])
        assert counters(recorder)["source.pair_members"] == 0

    def test_one_bit_per_byte_takes_the_bincount_where_cheaper(self):
        # Eight bits one per byte cost the pair kernel 8 byte and 28 byte-pair
        # histograms: ~24 bincounts over 41k rows (measured 5.6 ms, against
        # 7.9 ms for all 36 members as bincounts).  16 members are cheaper as
        # bincounts; all 36 are cheaper through the kernel.
        codes = np.random.default_rng(41).integers(0, 1 << D, 41_000, dtype=np.int64)
        source = RecordSource(codes, dimension=D)
        masks = narrow_masks(range(0, 64, 8))
        root = from_bit_indices(range(0, 64, 8))
        for members, paired in ((masks[:16], 0), (masks, len(masks))):
            with tracing() as recorder:
                source.marginals_for_batches([(root, tuple(members))])
            assert counters(recorder)["source.pair_members"] == paired


# Shard layouts: (shards, workers, executor); None is the unsharded source.
LAYOUTS = [None] + [
    (shards, workers, executor)
    for shards in (1, 2, 3, 4)
    for workers in (1, 2)
    for executor in ("thread", "process")
]


class TestSources:
    @SETTINGS
    @given(
        codes_strategy.filter(bool),
        st.lists(st.integers(-4, 6), min_size=40, max_size=40),
        worklists(),
        st.sampled_from(LAYOUTS),
    )
    def test_every_layout_matches_the_reference(self, rows, weight_pool, work, layout):
        weights = np.array(weight_pool[: len(rows)], dtype=np.float64)
        base = RecordSource(rows, weights, dimension=D)
        if layout is None:
            source, parts = base, [(base.codes, base.weights)]
        else:
            shards, workers, executor = layout
            source = ShardedRecordSource.from_record_source(
                base, shards=shards, workers=workers, executor=executor
            )
            parts = source.shard_arrays
        out = source.marginals_for_batches(work)
        again = source.marginals_for_batches(work)  # recomputed: deterministic
        unsharded = base.marginals_for_batches(work)
        assert set(out) == requested(work)
        for mask, value in out.items():
            assert_bitwise(value, shard_reference(parts, mask))
            assert_bitwise(again[mask], value)
            assert_bitwise(unsharded[mask], value)  # integer weights: exact

    def test_empty_shards(self):
        source = ShardedRecordSource(
            [(1 << 61) | 1], [3.0], dimension=D, shards=4, workers=2
        )
        assert sorted(source.shard_sizes) == [0, 0, 0, 1]
        masks = narrow_masks((0, 9, 61))
        out = source.marginals_for_batches([(0, tuple(masks))])
        for mask in masks:
            assert_bitwise(out[mask], shard_reference(source.shard_arrays, mask))

    @settings(SETTINGS, max_examples=15)
    @given(
        codes_strategy.filter(bool),
        st.lists(st.integers(-4, 6), min_size=40, max_size=40),
        worklists(),
        st.integers(1, 4),
        st.integers(1, 2),
    )
    def test_mapped_source_matches_the_reference(
        self, rows, weight_pool, work, shards, workers
    ):
        weights = np.array(weight_pool[: len(rows)], dtype=np.float64)
        with tempfile.TemporaryDirectory() as scratch:
            path = write_source(
                Path(scratch) / "src", rows, weights, dimension=D, shards=shards
            )
            source = open_source(path, workers=workers)
            out = source.marginals_for_batches(work)
            for mask in requested(work):
                assert_bitwise(out[mask], shard_reference(source.shard_arrays, mask))


class TestMemory:
    @staticmethod
    def traced_peak(codes, weights, masks, root):
        with tracing() as recorder:
            tracemalloc.start()
            try:
                out = worklist_marginals(codes, weights, [(root, tuple(masks))])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert counters(recorder)["source.pair_members"] == len(masks) == len(out)
        return peak

    def test_transient_peak_is_bounded_by_the_chunk(self):
        rng = np.random.default_rng(7)
        codes = rng.integers(0, 1 << 32, 200_000, dtype=np.int64)
        weights = rng.integers(1, 4, codes.shape[0]).astype(np.float64)
        peak = self.traced_peak(codes, weights, narrow_masks(range(32)), (1 << 32) - 1)
        # 8 MiB; the float64 bit planes of all 200k rows would take 51 MB.
        assert peak < 8 * 2**20

    def test_transient_peak_at_62_bits_is_row_independent(self):
        # All 36 histogram passes over several chunks stay inside the bound
        # the kernel's docstring states for any width and row count.
        rng = np.random.default_rng(9)
        codes = rng.integers(0, 1 << D, 3 * PAIR_CHUNK_ROWS + 5, dtype=np.int64)
        weights = rng.integers(1, 4, codes.shape[0]).astype(np.float64)
        peak = self.traced_peak(codes, weights, narrow_masks(range(D)), (1 << D) - 1)
        assert peak < 4 * 2**20


def release_digest(result) -> str:
    digest = hashlib.sha256()
    for marginal in result.marginals:
        digest.update(np.ascontiguousarray(marginal, dtype=np.float64).tobytes())
    return digest.hexdigest()


class TestTracing:
    def test_counters_split_members_by_kernel(self):
        codes = np.random.default_rng(1).integers(0, 1 << 12, 400)
        source = RecordSource(codes, dimension=12)
        narrow = narrow_masks(range(6))
        wide = [0b111, 0b111000000]
        with tracing() as recorder:
            source.marginals_for_batches(
                [(0b111111, tuple(narrow)), (0b111000000, tuple(wide) + (0b11,))]
            )
        seen = counters(recorder)
        assert seen["source.pair_members"] == len(narrow)
        assert seen["source.bincount_members"] == len(wide)
        assert seen["source.batches"] == 2
        assert recorder.span_names().count("source.worklist") == 1

    def test_fourier_on_record_takes_one_worklist(self):
        codes = np.random.default_rng(2).integers(0, 1 << 8, 300)
        source = RecordSource(codes, dimension=8)
        masks = [mask for mask in narrow_masks(range(8)) if hamming_weight(mask) == 2]
        with tracing() as recorder:
            source.fourier_coefficients_for_masks(masks)
        assert counters(recorder)["source.pair_members"] == len(masks)
        assert recorder.span_names().count("source.worklist") == 1

    @pytest.mark.parametrize("strategy", ["Q", "F"])
    def test_traced_releases_match_untraced_and_dense(self, strategy):
        # Wide enough that the planner measures the pairs directly, not
        # through materialised batch roots.
        schema = Schema.binary([f"a{i}" for i in range(14)])
        rng = np.random.default_rng(44)
        dataset = Dataset(schema, (rng.random((2000, 14)) < 0.4).astype(np.int64))
        workload = all_k_way(schema, 2)

        def release(**options):
            return release_digest(
                release_marginals(
                    dataset, workload, 1.0, strategy=strategy, rng=9, **options
                )
            )

        dense = release(backend="dense")
        assert release(backend="record") == dense
        assert release(backend="record", shards=3, workers=2) == dense
        with tracing() as recorder:
            traced = release(backend="record")
        assert traced == dense
        assert counters(recorder)["source.pair_members"] > 0
