"""The :class:`CountSource` protocol: pluggable backends for exact counts.

Every measurement in the release pipeline ultimately needs two primitives
from the data:

* the exact marginal ``C^alpha x`` of an arbitrary cuboid mask ``alpha``
  (the ``"marginal"`` kernel of the plan executor), and
* the exact Fourier coefficients of the workload's support (the
  ``"fourier"`` kernel), each of which is a small Hadamard transform of a
  marginal (Theorem 4.1).

Historically both were computed from the dense count vector ``x`` of length
``N = 2**d``, which hard-caps the pipeline at ``d`` around 24–26 bits no
matter how few records actually exist.  A :class:`CountSource` abstracts the
*supplier* of those primitives so the same planner/executor machinery can run
against either representation:

* :class:`~repro.sources.dense.DenseCubeSource` wraps the dense vector and
  reproduces today's behaviour bit for bit;
* :class:`~repro.sources.record.RecordSource` computes every marginal
  directly from deduplicated ``(codes, weights)`` record arrays via
  mask-projected bit codes and a weighted ``numpy.bincount`` — it never
  allocates ``2**d`` anything, unlocking wide schemas (``d`` up to 62).

Because the exact counts are integers (and float64 addition of integers
below ``2**53`` is exact in any order), both backends produce **bitwise
identical** exact values; the executor's single vectorized noise draw then
makes whole seeded releases bitwise identical across backends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError, DomainSizeError
from repro.fourier.index import submasks_array
from repro.fourier.kernels import fwht_inplace
from repro.utils.bits import hamming_weight, popcount_array

#: Largest dimension for which a dense ``2**d`` float64 allocation is allowed:
#: ``2**26`` cells is 512 MiB.  Above this the library refuses to materialise
#: dense vectors/cuboids and points the caller at the record-native backend
#: instead of dying with a ``MemoryError``.  It is one policy, not a per-call
#: option: every guard reads it through :func:`dense_allowed`.
DENSE_LIMIT_BITS = 26


def dense_allowed(bits: int) -> bool:
    """Whether ``2**bits`` cells are within the dense limit.

    Reads :data:`DENSE_LIMIT_BITS` on every call, so moving that one
    attribute moves every dense guard.
    """
    return bits <= DENSE_LIMIT_BITS


def ensure_dense_allowed(bits: int, *, what: str = "a dense count vector") -> None:
    """Raise :class:`DomainSizeError` (a :class:`DataError`) when ``2**bits``
    cells exceed the dense limit.

    This replaces the silent ``MemoryError``-prone allocations of the dense
    pipeline with a targeted error that names the record-native escape hatch,
    using the same exception type as the dense-matrix guard of
    :mod:`repro.queries.matrix`.
    """
    if not dense_allowed(bits):
        raise DomainSizeError(
            f"refusing to materialise {what} with 2**{bits} cells "
            f"(dense limit 2**{DENSE_LIMIT_BITS}); use the record-native backend "
            "(Dataset.as_source(backend='record') / RecordSource, or "
            "backend='record' on the release engine) which never allocates "
            "the full domain"
        )


def validate_count_vector(
    vector: np.ndarray, dimension: Optional[int] = None
) -> "tuple[np.ndarray, int]":
    """Validate a dense count vector and return it (as float64) with its ``d``.

    Shared by every source constructor that accepts a vector: the length must
    be a power of two, and an explicitly passed ``dimension`` must match it.
    """
    array = np.asarray(vector, dtype=np.float64)
    if array.ndim != 1 or array.shape[0] == 0 or array.shape[0] & (array.shape[0] - 1):
        raise DataError(
            f"expected a power-of-two count vector, got shape {array.shape}"
        )
    d = array.shape[0].bit_length() - 1
    if dimension is not None and int(dimension) != d:
        raise DataError(
            f"count vector of length {array.shape[0]} does not match dimension {dimension}"
        )
    return array, d


class CountSource(ABC):
    """Supplier of exact cuboid marginals (and Fourier coefficients) of one
    fixed dataset, independent of how the data is physically represented."""

    #: Short backend identifier (``"dense"`` / ``"record"``), used by the
    #: engine's ``explain`` output and by benchmarks.
    backend: str = "abstract"

    # ------------------------------------------------------------------ #
    @property
    @abstractmethod
    def dimension(self) -> int:
        """Number of binary attributes ``d`` of the underlying domain."""

    @property
    def domain_size(self) -> int:
        """Size ``N = 2**d`` of the (possibly never materialised) domain."""
        return 1 << self.dimension

    @property
    @abstractmethod
    def total(self) -> float:
        """Total number of tuples represented by the source."""

    # ------------------------------------------------------------------ #
    @abstractmethod
    def marginal(self, mask: int) -> np.ndarray:
        """Exact marginal ``C^alpha x`` for ``alpha = mask`` (compact indexing).

        Returns a fresh float64 vector of length ``2**hamming_weight(mask)``
        the caller may mutate.  Implementations raise :class:`DataError` when
        the requested cuboid itself exceeds the dense limit.
        """

    @abstractmethod
    def dense_vector(self) -> np.ndarray:
        """The full count vector ``x`` of length ``2**d``.

        Only exists below the dense limit; record-native sources raise a
        targeted :class:`DataError` instead of attempting the allocation.
        """

    # ------------------------------------------------------------------ #
    # cost model hooks (backend-aware planning)
    # ------------------------------------------------------------------ #
    def marginal_costs(self, masks: np.ndarray) -> np.ndarray:
        """Estimated cells touched to answer ``marginal(mask)`` directly, for
        every mask of an int64 array.

        A unitless estimate used by the planner's per-backend cost model
        (:func:`repro.plan.cost.cost_marginal_batches`) to price batch roots
        against direct member marginals, one array per plan.  Pure
        arithmetic — never raises, even for cuboids a real call would
        refuse.  ``masks`` is one worklist, so an estimate may price its
        members jointly (record backends share one pair-kernel estimate
        among the members of at most two bits).  The dense default is a
        full domain pass; record-native backends override it.
        """
        return np.full(np.shape(masks), float(self.domain_size))

    def can_materialise(self, mask: int) -> bool:
        """Whether :meth:`marginal` would accept ``mask`` at all.

        The cost model must never *choose* a batch root the source would
        refuse at execute time (record backends cap per-cuboid width at
        their dense limit); estimates alone cannot express that, so the
        decision consults this guard.
        """
        return True

    def derive_costs(self, root_masks: np.ndarray, member_masks: np.ndarray) -> np.ndarray:
        """Estimated cost of aggregating each member from its materialised
        root marginal (one pass over the root's cells), elementwise over two
        aligned int64 arrays."""
        return np.ldexp(1.0, popcount_array(root_masks))

    def max_root_cells(self) -> Optional[int]:
        """Memory ceiling (in cells) on materialised batch roots, or ``None``.

        Batch execution holds the root marginal — and on sharded backends a
        window of per-shard partials — fully in memory while members are
        refined from it.  Backends operating under an explicit memory budget
        return the largest root vector that keeps those residents inside it;
        the planner then refuses to *choose* such a root even when the cost
        estimates alone would favour it.  ``None`` means unlimited.
        """
        return None

    # ------------------------------------------------------------------ #
    # batched access
    # ------------------------------------------------------------------ #
    def marginals_for_batches(
        self, batches: Sequence[Tuple[int, Sequence[int]]]
    ) -> Dict[int, np.ndarray]:
        """Exact marginals for a whole worklist of ``(root, members)`` batches.

        Each entry names a shared batch root and the member masks (all
        dominated by the root) to compute *directly from the source*; the
        result maps every requested member to its marginal, with the same
        fresh-float64 ownership contract as :meth:`marginal`.  One call per
        execution plan lets parallel backends dispatch the entire workload to
        their worker pool at once (amortising pool overhead across the
        workload instead of per cuboid) and lets record backends reuse one
        set of projected bit planes per batch.  The default simply loops.
        """
        values: Dict[int, np.ndarray] = {}
        for _root, members in batches:
            for member in members:
                member = int(member)
                if member not in values:
                    values[member] = self.marginal(member)
        return values

    def describe_layout(self) -> str:
        """One-line physical layout description for ``explain`` output."""
        return f"{self.backend} source over a {self.dimension}-bit domain"

    def check_mask(self, mask: int) -> int:
        """Validate that ``mask`` addresses this source's domain."""
        mask = int(mask)
        if mask < 0 or mask >= self.domain_size:
            raise DataError(
                f"mask {mask:#x} does not address a {self.dimension}-bit domain"
            )
        return mask

    # ------------------------------------------------------------------ #
    def fourier_coefficients_for_masks(self, masks: Iterable[int]) -> Dict[int, float]:
        """Coefficients ``{beta: <f^beta, x>}`` for every ``beta ⪯ some mask``.

        The one implementation for every backend — same mask ordering, same
        small-Hadamard arithmetic on the exact marginal — so the coefficients
        are bitwise identical across backends; only the marginal supplier
        differs.
        """
        d = self.dimension
        scale = 2.0 ** (d / 2.0)
        ordered = sorted({int(m) for m in masks}, key=hamming_weight, reverse=True)
        # Every top marginal (a mask no earlier mask covers) comes from ONE
        # worklist, so pooled backends dispatch once and record backends
        # share one kernel pass.
        covered: set = set()
        tops: List[int] = []
        for mask in ordered:
            if mask not in covered:
                tops.append(mask)
                covered.update(submasks_array(mask).tolist())
        marginals = self.marginals_for_batches([(mask, (mask,)) for mask in tops])
        coefficients: Dict[int, float] = {}
        for mask in ordered:
            if mask in coefficients:
                continue
            # The worklist hands out fresh float64 arrays (the marginal()
            # contract), so the in-place butterfly can run on them directly.
            local = marginals[mask]
            fwht_inplace(local)
            local /= scale
            for beta, value in zip(submasks_array(mask).tolist(), local.tolist()):
                if beta not in coefficients:
                    coefficients[beta] = value
        return coefficients
