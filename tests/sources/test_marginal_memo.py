"""The record backends' worklist entry point and the batch-projection kernel.

Regression pins: callers own every array a source returns (the
mutate-your-copy contract holds across calls), an invalid mask raises what
checking each mask in turn raises, and the plane-sharing batch kernel
produces exactly the per-mask projected bincounts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import DataError
from repro.fourier.index import project_indices
from repro.sources import base
from repro.sources.base import ensure_dense_allowed
from repro.sources.record import (
    RecordSource,
    checked_worklist_marginals,
    projected_marginals,
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
    """Callers own every array a record source returns."""

    def test_callers_own_their_arrays(self):
        source = RecordSource(np.arange(20, dtype=np.int64), dimension=D)
        first = source.marginal(0b11)
        second = source.marginal(0b11)
        assert first is not second
        first[:] = -123.0  # mutating a returned array must not touch later answers
        assert np.array_equal(source.marginal(0b11), second)


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
        fresh = RecordSource(codes, dimension=D)
        worklist = [(0b1111, (0b11, 0b1100)), (0b110001, (0b110001,))]
        batch = source.marginals_for_batches(worklist)
        for mask in (0b11, 0b1100, 0b110001):
            assert np.array_equal(batch[mask], fresh.marginal(mask))


def raise_per_mask(source, batches):
    """The reference: check each mask of a worklist in turn."""
    seen = set()
    for root, members in batches:
        source.check_mask(int(root))
        for member in members:
            member = source.check_mask(int(member))
            if member in seen:
                continue
            seen.add(member)
            ensure_dense_allowed(
                hamming_weight(member),
                what=f"the cuboid marginal {member:#x}",
            )


class TestBulkMemo:
    """One validation pass over a whole worklist."""

    @pytest.mark.parametrize(
        "batches",
        [
            [(0b11, (0b1, 0b11)), (1 << D, (0b1,))],
            [(0b11, (0b1, 0b11)), (0b111, (-1,))],
            [(0b111, (0b1, 0b111, 1 << D))],
            [(0b1111, (0b11, 0b1111))],
        ],
    )
    def test_invalid_masks_raise_what_the_loop_raises(self, batches, monkeypatch):
        monkeypatch.setattr(base, "DENSE_LIMIT_BITS", 3)
        source = RecordSource(np.arange(9, dtype=np.int64), dimension=D)
        compute = lambda work: {}  # noqa: E731 - never reached
        with pytest.raises(DataError) as expected:
            raise_per_mask(source, batches)
        with pytest.raises(DataError) as actual:
            checked_worklist_marginals(source, batches, compute)
        assert type(actual.value) is type(expected.value)
        assert str(actual.value) == str(expected.value)

    def test_each_member_is_computed_once_under_its_first_root(self):
        source = RecordSource(np.arange(9, dtype=np.int64), dimension=D)
        seen = []

        def compute(work):
            seen.extend(work)
            return {member: np.zeros(1) for _root, members in work for member in members}

        batches = [(0b11, (0b1, 0b11, 0b1)), (0b111, (0b11, 0b100)), (0b1000, (0b1,))]
        out = checked_worklist_marginals(source, batches, compute)
        assert seen == [(0b11, (0b1, 0b11)), (0b111, (0b100,))]
        assert list(out) == [0b1, 0b11, 0b100]
