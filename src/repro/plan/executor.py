"""Execute an :class:`~repro.plan.plan.ExecutionPlan` with batched kernels.

The :class:`Executor` replaces the per-strategy measurement loops with two
batched passes:

1. **exact values** — one kernel per plan, not one pass per query, into
   one flat vector laid out by the plan's group table (group ``r`` at
   ``table.offsets[r]:offsets[r + 1]``), all pulled from a
   :class:`~repro.sources.base.CountSource` (the dense
   ``2**d`` vector or the record-native ``(codes, weights)`` arrays — the
   kernels are backend-agnostic):

   * ``"marginal"``: a grouped subset-sum pass per batch.  The batch root
     (the union of its members' masks) is materialised once from the source;
     every member marginal is then aggregated from the root's
     ``2**||root||`` cells.  The plan's cost model
     (:func:`~repro.plan.cost.cost_marginal_batches`) skips roots that
     would cost more than direct per-member passes;
   * ``"fourier"``: the targeted small-Hadamard computation of all required
     coefficients from the source's exact marginals;
   * ``"matrix"``: one dense strategy-matrix product (dense-only: a
     record-native source above the dense limit raises a targeted
     :class:`~repro.exceptions.DataError` instead of allocating ``2**d``).

2. **noise** — a single vectorized Laplace/Gaussian draw over *all* measured
   plan cells, with a per-cell scale vector, added to the flat vector in
   place.  NumPy generators consume the
   random stream per sample, so this draw is bitwise-identical to the
   historical sequential per-group draws (the plan's ``seed_policy``):
   seeded releases reproduce the pre-plan pipeline exactly.  The exact
   values are integer counts (exact in float64 regardless of summation
   order), so seeded releases are also bitwise-identical *across backends*.

The executor returns a flat :class:`~repro.strategies.base.Measurement`,
which the strategy's own :meth:`~repro.strategies.base.Strategy.estimate`
reads by slices; :meth:`~repro.strategies.base.Strategy.measure` runs this
executor too.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.exceptions import CheckpointError, PlanError, RecoveryError
from repro.mechanisms.noise import (
    gaussian_noise,
    gaussian_sigma_for_budget,
    laplace_noise,
    laplace_scale_for_budget,
)
from repro.obs import runtime as _obs
from repro.obs.ledger import BudgetCharge
from repro.plan.cost import cost_marginal_batches
from repro.plan.plan import ExecutionPlan
from repro.resilience.checkpoint import ReleaseCheckpoint, plan_fingerprint
from repro.sources.base import CountSource
from repro.sources.dense import DenseCubeSource
from repro.strategies.base import Measurement, Strategy
from repro.strategies.marginal import submarginal
from repro.utils.rng import RngLike, ensure_rng

DataVector = Union[np.ndarray, CountSource]


def _as_source(x: DataVector, d: int) -> CountSource:
    if isinstance(x, CountSource):
        return x
    return DenseCubeSource(np.asarray(x, dtype=np.float64), d)


def batched_marginals(
    source: DataVector,
    batches,
    d: int,
    *,
    costs=None,
    checkpoint: Optional[ReleaseCheckpoint] = None,
) -> Dict[int, np.ndarray]:
    """Materialise many marginals via their shared-ancestor batches.

    Returns ``{member mask: exact marginal}`` for every member of every
    batch.  ``source`` may be a dense count vector (wrapped on the fly) or
    any :class:`~repro.sources.base.CountSource`.  Each batch either
    materialises its root with one source pass and aggregates every member
    from the root's ``2**||root||`` cells, or answers each member directly —
    decided by the backend-aware cost model: the plan's ``costs`` (a
    :class:`~repro.plan.cost.BatchCost` per batch) when present, else
    :func:`~repro.plan.cost.cost_marginal_batches` of ``source`` here.  The
    values are identical either way.

    All direct source computations of the whole worklist go through ONE
    :meth:`~repro.sources.base.CountSource.marginals_for_batches` call, so
    parallel backends dispatch the entire plan to their worker pool at once
    (amortising pool overhead across the workload instead of per cuboid)
    and record backends reuse one set of projected bit planes per batch.

    With a ``checkpoint``
    (:class:`~repro.resilience.checkpoint.ReleaseCheckpoint`), the worklist
    is instead dispatched **one batch at a time**: each batch's freshly
    computed arrays are staged crash-safely before the next batch starts,
    and batches whose arrays are already staged are replayed from disk
    without touching the source.  The per-batch granularity trades the
    single-dispatch pool amortisation for resumability; the *values* are
    identical either way because the computed unit (root or direct members)
    does not change.
    """
    source = _as_source(source, d)
    if costs is None:
        costs = cost_marginal_batches(source, batches)
    elif len(costs) != len(batches):
        raise PlanError(
            f"got {len(costs)} batch costs for {len(batches)} batches"
        )
    flags = []
    work = []
    for batch, cost in zip(batches, costs):
        use_root = batch.is_trivial or cost.use_root
        flags.append(use_root)
        work.append((batch.root, (batch.root,) if use_root else batch.members))
    if _obs.ENABLED:
        root_count = sum(1 for flag in flags if flag)
        _obs.counter_inc("plan.batches_root", root_count)
        _obs.counter_inc("plan.batches_direct", len(flags) - root_count)
    if checkpoint is None:
        direct = source.marginals_for_batches(work)
    else:
        direct = _checkpointed_marginals(source, work, checkpoint)
    values: Dict[int, np.ndarray] = {}
    for batch, use_root in zip(batches, flags):
        if use_root:
            root_values = direct[batch.root]
            for member in batch.members:
                if member == batch.root:
                    values[member] = root_values
                else:
                    values[member] = submarginal(root_values, batch.root, member)
        else:
            for member in batch.members:
                values[member] = direct[member]
    return values


def _checkpointed_marginals(
    source: CountSource, work, checkpoint: ReleaseCheckpoint
) -> Dict[int, np.ndarray]:
    """Dispatch the worklist batch by batch, staging each result.

    Masks already staged in the checkpoint are replayed (digest-verified;
    a corrupt entry silently falls back to a clean re-measure), the rest
    are measured and staged before the next batch starts — so a kill at any
    instant loses at most one batch of work.
    """
    values: Dict[int, np.ndarray] = {}
    replayed = 0
    measured = 0
    for root, members in work:
        missing = []
        for member in members:
            if member in values:
                continue
            staged = checkpoint.load(member)
            if staged is not None:
                values[member] = staged
                replayed += 1
            else:
                missing.append(member)
        if missing:
            fresh = source.marginals_for_batches([(root, tuple(missing))])
            for member in missing:
                checkpoint.store(member, fresh[member])
                values[member] = fresh[member]
                measured += 1
    if _obs.ENABLED:
        _obs.counter_inc("checkpoint.entries_replayed", replayed)
        _obs.counter_inc("checkpoint.entries_measured", measured)
    return values


class Executor:
    """Run execution plans for one strategy.

    Parameters
    ----------
    strategy:
        The strategy instance the plans were built for; it validates the
        count vector, supplies the ``"matrix"`` kernel operands and
        assembles the final :class:`~repro.strategies.base.Measurement`.
    """

    def __init__(self, strategy: Strategy):
        self._strategy = strategy

    @property
    def strategy(self) -> Strategy:
        """The strategy this executor measures."""
        return self._strategy

    # ------------------------------------------------------------------ #
    def measure(
        self,
        plan: ExecutionPlan,
        x: DataVector,
        rng: RngLike = None,
        *,
        noiseless: bool = False,
        checkpoint: Optional[ReleaseCheckpoint] = None,
        resume: bool = False,
    ) -> Measurement:
        """Measure the plan's strategy queries on a count vector or source.

        ``x`` may be the dense count vector (historical API) or any
        :class:`~repro.sources.base.CountSource`.  With ``noiseless=True`` no
        noise is drawn (and the random stream is not consumed): the
        measurement carries the exact strategy answers, which is how tests
        pin the batched kernels against the per-query reference path.

        With a ``checkpoint`` the exact per-batch marginals are staged
        crash-safely as they are produced; a re-run with ``resume=True``
        replays the staged batches and re-measures only the rest.  The
        resumed release is bitwise identical to an uninterrupted one (the
        exacts are pure, and the seeded noise draw happens after all of
        them exist).  Only ``"marginal"``-kernel plans are checkpointable.

        When observability is on, the run is wrapped in an
        ``executor.measure`` span and every measured group's privacy charge
        is appended to the active recorder's ledger (noiseless runs spend no
        budget and record nothing).
        """
        if not _obs.ENABLED:
            return self._measure_impl(plan, x, rng, noiseless, checkpoint, resume)
        with _obs.trace_span(
            "executor.measure",
            kind=plan.kind,
            groups=len(plan.table),
            cells=plan.measured_cells,
        ):
            measurement = self._measure_impl(plan, x, rng, noiseless, checkpoint, resume)
        if not noiseless:
            self._record_charges(plan)
        return measurement

    def _measure_impl(
        self,
        plan: ExecutionPlan,
        x: DataVector,
        rng: RngLike,
        noiseless: bool,
        checkpoint: Optional[ReleaseCheckpoint] = None,
        resume: bool = False,
    ) -> Measurement:
        strategy = self._strategy
        if checkpoint is not None and plan.kind != "marginal":
            raise CheckpointError(
                f"only the 'marginal' measurement kernel supports checkpoints; "
                f"this plan uses {plan.kind!r} (strategy {strategy.name!r}), "
                "which measures in one indivisible pass"
            )
        if plan.kind == "custom":
            # Strategy without the batched-kernel contract: delegate to its
            # own measure(), which validates vector and allocation itself
            # (and therefore needs the dense vector).
            if noiseless:
                raise PlanError(
                    "noiseless execution requires the mask-indexed planner "
                    "contract; strategy "
                    f"{strategy.name!r} only supports its own measure()"
                )
            if isinstance(x, CountSource):
                x = x.dense_vector()
            return strategy.measure(x, plan.allocation, rng)
        if plan.kind != strategy.measurement_kind:
            raise PlanError(
                f"plan kernel {plan.kind!r} does not match strategy "
                f"{strategy.name!r} ({strategy.measurement_kind!r})"
            )
        if isinstance(x, CountSource):
            source = strategy.check_source(x)
        else:
            source = DenseCubeSource(
                strategy.check_vector(x), strategy.dimension
            )
        strategy.check_allocation(plan.allocation)
        generator = ensure_rng(rng)
        if plan.kind == "matrix":
            return self._measure_matrix(plan, source.dense_vector(), generator, noiseless)
        if checkpoint is not None:
            checkpoint.bind(plan_fingerprint(plan, source), resume=resume)
        flat = self._exact_group_values(plan, source, checkpoint)
        self._apply_noise(plan, flat, generator, noiseless)
        return Measurement(strategy_name=strategy.name, allocation=plan.allocation, flat=flat)

    # ------------------------------------------------------------------ #
    # privacy-budget ledger
    # ------------------------------------------------------------------ #
    def _record_charges(self, plan: ExecutionPlan) -> None:
        """Append one ledger charge per measured group of this run.

        The charge's epsilon is the group's contribution ``C_r * eta_r`` to
        the release constraint; the ledger composes them per mechanism
        (linearly for Laplace, in quadrature for Gaussian), so the scope
        total reproduces the requested release budget.
        """
        recorder = _obs.recorder()
        if recorder is None:
            return
        scope = recorder.ledger.new_scope()
        table = plan.table
        delta = 0.0 if plan.is_pure else float(plan.allocation.budget.delta)
        for label, mask, constant, eta, cells in zip(
            table.labels,
            table.mask_column(),
            table.constants.tolist(),
            table.budgets.tolist(),
            table.sizes.tolist(),
        ):
            if eta <= 0.0:
                continue
            recorder.ledger.charge(
                BudgetCharge(
                    scope=scope,
                    group=label,
                    epsilon=constant * eta,
                    delta=delta,
                    sensitivity=constant,
                    mechanism=plan.mechanism,
                    cuboids=(f"{mask:#x}",) if mask is not None else (),
                    cells=cells,
                )
            )

    # ------------------------------------------------------------------ #
    # exact-value kernels
    # ------------------------------------------------------------------ #
    def _exact_group_values(
        self,
        plan: ExecutionPlan,
        source: CountSource,
        checkpoint: Optional[ReleaseCheckpoint] = None,
    ) -> np.ndarray:
        """The exact cells of every group in one vector, in group order."""
        masks = plan.table.masks
        if plan.kind == "marginal":
            by_mask = batched_marginals(
                source,
                plan.batches,
                self._strategy.dimension,
                costs=plan.batch_costs,
                checkpoint=checkpoint,
            )
            return np.concatenate([by_mask[mask] for mask in masks], dtype=np.float64)
        if plan.kind == "fourier":
            coefficients = source.fourier_coefficients_for_masks(plan.workload.masks)
            return np.array([coefficients[mask] for mask in masks], dtype=np.float64)
        raise PlanError(f"unknown plan kernel {plan.kind!r}")

    # ------------------------------------------------------------------ #
    # noise
    # ------------------------------------------------------------------ #
    def _apply_noise(
        self,
        plan: ExecutionPlan,
        flat: np.ndarray,
        generator: np.random.Generator,
        noiseless: bool,
    ) -> None:
        """Add the noise to the flat exact cells in place: one draw and one
        add over the measured cells, NaN for groups without budget."""
        sizes = plan.table.sizes
        measured = plan.measured
        cells = np.repeat(measured, sizes)
        scales = np.repeat(plan.table.noise_scales[measured], sizes[measured])
        flat[~cells] = np.nan
        if not scales.size or noiseless:
            return
        with _obs.trace_span(
            "executor.noise", mechanism=plan.mechanism, cells=scales.size
        ):
            if plan.is_pure:
                draw = laplace_noise(scales, scales.size, generator)
            else:
                draw = gaussian_noise(scales, scales.size, generator)
        flat[cells] += draw

    # ------------------------------------------------------------------ #
    # dense-matrix kernel
    # ------------------------------------------------------------------ #
    def _measure_matrix(
        self,
        plan: ExecutionPlan,
        vector: np.ndarray,
        generator: np.random.Generator,
        noiseless: bool,
    ) -> Measurement:
        strategy = self._strategy
        budgets = plan.row_budgets
        if budgets is None:
            raise PlanError("matrix-kernel plan is missing its per-row budgets")
        if np.any(budgets <= 0):
            raise RecoveryError(
                "explicit strategies require every row to receive a positive budget; "
                "remove unused rows from the strategy matrix instead"
            )
        exact = strategy.strategy_matrix @ vector
        if noiseless:
            rows = exact
        elif plan.is_pure:
            rows = exact + laplace_noise(
                laplace_scale_for_budget(budgets), exact.shape[0], generator
            )
        else:
            sigma = gaussian_sigma_for_budget(budgets, plan.allocation.budget.delta)
            rows = exact + gaussian_noise(sigma, exact.shape[0], generator)
        return Measurement(strategy_name=strategy.name, allocation=plan.allocation, flat=rows)
