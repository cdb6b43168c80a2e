"""Shard results are stacked in one layout and folded with one add.

Every shard of a :class:`~repro.shards.ShardedRecordSource` runs
:func:`~repro.sources.record.worklist_marginals` over the same worklist.
The narrow members come back stacked in worklist order whichever kernel
computed them (the pair kernel, or projected bincounts when the pair kernel
is not exact for a shard's weights), so the running totals add each shard
with one ``np.add`` and equal the per-mask sums bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.obs import tracing
from repro.shards import ShardedRecordSource
from repro.sources.record import StackedMarginals, worklist_marginals

D = 40
WORK = [
    ((1 << 7) | (1 << 3) | 1, ((1 << 7) | 1, (1 << 3) | 1, 1 << 3, 0)),
    ((1 << 39) | (1 << 20) | (1 << 5), ((1 << 39) | (1 << 20) | (1 << 5), 1 << 39)),
    ((1 << 20) | 1, ((1 << 20) | 1, 1)),
]


def _reference(codes, weights, mask):
    bits = [bit for bit in range(D) if mask >> bit & 1]
    compact = np.zeros_like(codes)
    for j, bit in enumerate(bits):
        compact |= ((codes >> bit) & 1) << j
    return np.bincount(compact, weights, 1 << len(bits)).astype(np.float64)


def _members():
    return list(dict.fromkeys(member for _root, group in WORK for member in group))


def test_layout_does_not_depend_on_the_kernel():
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 1 << D, 20_000, dtype=np.int64)
    counts = rng.integers(1, 5, codes.size).astype(np.float64)
    with tracing() as recorder:
        paired = worklist_marginals(codes, counts, WORK)
    narrow = [mask for mask in _members() if mask.bit_count() <= 2]
    assert recorder.metrics.snapshot()["counters"]["source.pair_members"] == len(narrow)
    # Fractional weights are not exact under the pair kernel's reordering,
    # so every member takes the projected bincount instead.
    bincounted = worklist_marginals(codes, counts + 0.25, WORK)
    for result in (paired, bincounted):
        assert isinstance(result, StackedMarginals)
        assert list(result) == narrow + [m for m in _members() if m.bit_count() > 2]
    assert paired.masks == bincounted.masks and paired.starts == bincounted.starts
    for mask in _members():
        assert np.array_equal(paired[mask], _reference(codes, counts, mask))
        assert np.array_equal(bincounted[mask], _reference(codes, counts + 0.25, mask))


def test_one_add_per_shard_matches_per_mask_sums():
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 1 << D, 30_000, dtype=np.int64)
    weights = rng.integers(1, 9, codes.size).astype(np.float64)
    parts = [(codes[i::3], weights[i::3]) for i in range(3)]
    results = [worklist_marginals(c, w, WORK) for c, w in parts]
    expected = {
        mask: sum(result[mask] for result in results).copy() for mask in _members()
    }
    totals = None
    for result in results:
        totals = ShardedRecordSource._accumulate(totals, result)
    assert dict(totals.items()).keys() == expected.keys()
    for mask, value in expected.items():
        assert totals[mask].tobytes() == value.tobytes()


def test_sharded_source_matches_one_array():
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 1 << D, 12_000, dtype=np.int64)
    whole = worklist_marginals(codes, np.ones(codes.size), WORK)
    sharded = ShardedRecordSource(codes, dimension=D, shards=4, workers=2)
    values = sharded.marginals_for_batches(WORK)
    for mask in _members():
        assert values[mask].tobytes() == whole[mask].tobytes()
