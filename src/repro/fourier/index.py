"""Precomputed Fourier indexing for marginal workloads.

The fast paths of the paper (Sections 4.1/4.3) operate on the workload's
Fourier coefficients ``F = { beta : beta ⪯ alpha_i for some query i }``.
Historically every hot loop re-derived the compact-slot ⟷ coefficient-mask
correspondence with per-bit Python arithmetic (``project_index`` /
``iter_submasks`` per cell).  :class:`WorkloadFourierIndex` precomputes it
once per workload, as arrays:

* per-query gather/scatter maps from the query's ``2**k`` compact coefficient
  slots into one global length-``|F|`` coefficient array;
* the queries grouped by marginal order, so all same-order marginals can be
  stacked and pushed through one batched butterfly
  (:func:`repro.fourier.kernels.fwht_inplace`);
* the flat cell layout of the workload (the concatenation order used by the
  consistency and recovery code).

Indexes are cached by ``(dimension, query masks)``, so repeated consistency
projections and reconstructions over the same workload pay the precomputation
once.  All arithmetic follows the historical scalar operation order exactly:
results are bitwise identical to the pre-index implementation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.fourier.kernels import fwht_inplace
from repro.utils.bits import bit_indices, hamming_weight, iter_submasks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queries.workload import MarginalWorkload


def project_indices(indices: np.ndarray, mask: int) -> np.ndarray:
    """Vectorised :func:`repro.utils.bits.project_index` over an index array.

    Maps full-domain cell indices onto the compact coordinates of ``mask``:
    bit ``j`` of the result is the value of the ``j``-th smallest set bit of
    ``mask`` in the input index.
    """
    values = np.asarray(indices, dtype=np.int64)
    compact = np.zeros_like(values)
    for j, bit in enumerate(bit_indices(mask)):
        compact |= ((values >> bit) & 1) << j
    return compact


def expand_indices(compact: np.ndarray, mask: int) -> np.ndarray:
    """Inverse of :func:`project_indices`: place compact bits at the bits of ``mask``."""
    values = np.asarray(compact, dtype=np.int64)
    full = np.zeros_like(values)
    for j, bit in enumerate(bit_indices(mask)):
        full |= ((values >> j) & 1) << bit
    return full


def submasks_array(mask: int) -> np.ndarray:
    """All ``2**||mask||`` submasks of ``mask``, ordered by compact index.

    Entry ``c`` is the submask whose restriction to ``mask`` spells ``c``, so
    the array is simultaneously the compact-slot → coefficient-mask map of a
    marginal *and* the full-domain masks of its cells (they coincide).
    """
    k = hamming_weight(mask)
    return expand_indices(np.arange(1 << k, dtype=np.int64), mask)


class WorkloadFourierIndex:
    """Array-native Fourier bookkeeping for one marginal workload.

    Parameters
    ----------
    dimension:
        Number of binary attributes ``d`` of the domain.
    query_masks:
        The workload's query masks, in workload order (must be unique —
        :class:`~repro.queries.workload.MarginalWorkload` guarantees it).
    """

    def __init__(self, dimension: int, query_masks: Sequence[int]):
        self._d = int(dimension)
        self._query_masks: Tuple[int, ...] = tuple(int(m) for m in query_masks)
        self._orders = np.array(
            [hamming_weight(m) for m in self._query_masks], dtype=np.int64
        )
        self._sizes = (np.int64(1) << self._orders).astype(np.int64)
        self._total_cells = int(self._sizes.sum())

        support = set()
        for mask in self._query_masks:
            support.update(iter_submasks(mask))
        self._coefficient_masks = np.array(sorted(support), dtype=np.int64)

        # Per-query compact-slot -> global-coefficient-slot maps.
        slots: List[np.ndarray] = []
        for mask in self._query_masks:
            betas = submasks_array(mask)
            slots.append(np.searchsorted(self._coefficient_masks, betas).astype(np.int64))
        self._slots: Tuple[np.ndarray, ...] = tuple(slots)
        # The same maps flattened in workload (cell concatenation) order.
        self._flat_slots = (
            np.concatenate(slots) if slots else np.empty(0, dtype=np.int64)
        )

        # Queries grouped by marginal order, plus each group's positions in
        # the flat cell layout (so batched per-group results can be scattered
        # back into workload order without per-query Python work).
        offsets = np.concatenate(([0], np.cumsum(self._sizes)))
        self._bounds: List[int] = offsets.tolist()
        groups: Dict[int, List[int]] = {}
        for position, order in enumerate(self._orders.tolist()):
            groups.setdefault(order, []).append(position)
        self._order_groups: Dict[int, np.ndarray] = {
            order: np.array(positions, dtype=np.int64)
            for order, positions in groups.items()
        }
        self._group_slots: Dict[int, np.ndarray] = {
            order: np.vstack([slots[i] for i in positions])
            for order, positions in groups.items()
        }
        self._group_flat_positions: Dict[int, np.ndarray] = {
            order: np.concatenate(
                [np.arange(offsets[i], offsets[i + 1], dtype=np.int64) for i in positions]
            )
            for order, positions in groups.items()
        }

    # ------------------------------------------------------------------ #
    @classmethod
    def for_workload(cls, workload: "MarginalWorkload") -> "WorkloadFourierIndex":
        """The (cached) index of a workload, keyed by ``(d, query masks)``."""
        return _cached_index(workload.dimension, workload.masks)

    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Number of binary attributes ``d``."""
        return self._d

    @property
    def query_masks(self) -> Tuple[int, ...]:
        """The query masks, in workload order."""
        return self._query_masks

    @property
    def coefficient_masks(self) -> np.ndarray:
        """Sorted masks of the workload's Fourier support ``F`` (int64 array)."""
        return self._coefficient_masks

    @property
    def coefficient_count(self) -> int:
        """``m = |F|`` — the number of Fourier coefficients."""
        return int(self._coefficient_masks.shape[0])

    @property
    def total_cells(self) -> int:
        """Total released cells ``sum_i 2**k_i`` of the workload."""
        return self._total_cells

    def slots_for(self, position: int) -> np.ndarray:
        """Global coefficient slots of query ``position``, by compact index."""
        return self._slots[position]

    # ------------------------------------------------------------------ #
    def coefficient_array_from_mapping(self, coefficients: Mapping[int, float]) -> np.ndarray:
        """Gather a ``{mask: value}`` mapping into the global coefficient array.

        Raises ``KeyError`` when a coefficient of the workload's support is
        missing from the mapping.
        """
        return np.array(
            [coefficients[int(mask)] for mask in self._coefficient_masks],
            dtype=np.float64,
        )

    def coefficients_dict(
        self, coefficient_array: np.ndarray, covered: Optional[np.ndarray] = None
    ) -> Dict[int, float]:
        """Expose a global coefficient array as a ``{mask: value}`` dict."""
        masks = self._coefficient_masks.tolist()
        values = np.asarray(coefficient_array, dtype=np.float64).tolist()
        if covered is None:
            return dict(zip(masks, values))
        flags = np.asarray(covered, dtype=bool).tolist()
        return {
            mask: value for mask, value, flag in zip(masks, values, flags) if flag
        }

    # ------------------------------------------------------------------ #
    def consistency_normal_equations(
        self, flat: np.ndarray, weights: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Accumulate the diagonal normal equations of the L2 projection.

        ``flat`` holds the (validated) noisy marginals back to back, in
        workload order.  Stacks them by order, batch-transforms each
        stack with one butterfly, scales by the per-query block weights
        ``w_q * 2**(d - k_q)`` and scatters everything into global
        ``(numerator, denominator)`` arrays with a single ordered
        ``np.add.at`` each.  Contributions land in workload-cell order —
        exactly the accumulation order of the historical per-beta dict loop —
        so the fitted coefficients are bitwise identical to it.

        Returns ``(numerator, denominator, covered)``; ``covered`` marks the
        coefficients touched by at least one positive-weight query.
        """
        coefficient_scale = 2.0 ** (-self._d / 2.0)
        block_weights = self._block_weights(weights)
        values = np.empty(self._total_cells, dtype=np.float64)
        for order, positions in self._order_groups.items():
            cells = self._group_flat_positions[order]
            stacked = flat[cells].reshape(positions.size, 1 << order)
            fwht_inplace(stacked)
            contributions = (stacked * coefficient_scale) * block_weights[positions][
                :, None
            ]
            values[cells] = contributions.ravel()

        numerator = np.zeros(self.coefficient_count, dtype=np.float64)
        np.add.at(numerator, self._flat_slots, values)
        denominator = self.coefficient_weights(weights)
        covered = denominator > 0.0
        return numerator, denominator, covered

    def _block_weights(self, weights) -> np.ndarray:
        return np.asarray(weights, dtype=np.float64) * np.exp2(
            np.float64(self._d) - self._orders.astype(np.float64)
        )

    def coefficient_weights(self, weights) -> np.ndarray:
        """``sum_q w_q * 2**(d - k_q)`` over the queries containing each
        coefficient, accumulated in workload order.

        It is the Fourier strategy's recovery weight ``s_beta`` and the
        denominator of the L2 consistency normal equations.
        """
        weight_fill = np.repeat(self._block_weights(weights), self._sizes)
        totals = np.zeros(self.coefficient_count, dtype=np.float64)
        np.add.at(totals, self._flat_slots, weight_fill)
        return totals

    def marginals_from_coefficients(
        self,
        coefficient_array: np.ndarray,
        covered: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Reconstruct every workload marginal from the global coefficients.

        The list is in workload order, of views into one flat vector
        (:meth:`flat_marginals_from_coefficients`).
        """
        flat = self.flat_marginals_from_coefficients(coefficient_array, covered)
        return [flat[start:end] for start, end in zip(self._bounds, self._bounds[1:])]

    def flat_marginals_from_coefficients(
        self,
        coefficient_array: np.ndarray,
        covered: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Every workload marginal from the global coefficients, back to back.

        One gather + batched inverse butterfly + scale per order group
        (Theorem 4.1(2)); bitwise identical to a per-query small inverse
        butterfly of the dominated coefficients scaled by
        ``2**(d/2 - ||alpha||)``.  ``covered`` (when given) marks which
        coefficients were fitted; a query needing an unfitted coefficient
        raises ``KeyError`` like the scalar reconstruction.
        """
        coefficient_array = np.asarray(coefficient_array, dtype=np.float64)
        if covered is not None and not covered[self._flat_slots].all():
            self._raise_missing(covered)
        d = self._d
        out = np.empty(self._total_cells, dtype=np.float64)
        for order, positions in self._order_groups.items():
            gathered = coefficient_array[self._group_slots[order]]
            fwht_inplace(gathered)
            gathered *= 2.0 ** (d / 2.0 - order)
            out[self._group_flat_positions[order]] = gathered.ravel()
        return out

    def _raise_missing(self, covered: np.ndarray) -> None:
        for position, mask in enumerate(self._query_masks):
            if covered[self._slots[position]].all():
                continue
            for beta in iter_submasks(mask):
                slot = int(np.searchsorted(self._coefficient_masks, beta))
                if not covered[slot]:
                    raise KeyError(
                        f"missing Fourier coefficient for mask {beta:#x}, "
                        f"required by marginal {mask:#x}"
                    )
        raise AssertionError("covered mask inconsistent with query slots")


@lru_cache(maxsize=128)
def _cached_index(dimension: int, query_masks: Tuple[int, ...]) -> WorkloadFourierIndex:
    return WorkloadFourierIndex(dimension, query_masks)
