"""The release workloads: ``release-fourier`` and ``release-wide``.

One op is what a user of the library pays for one private release that is
persisted for serving: a fresh ``Dataset`` over the records, the
``release_marginals`` facade, then ``ReleaseStore.put`` into an empty store
with the default layout.  Every op uses the same noise seed, so every op's
marginals must hash to the digest of the reference release computed during
set-up.

The traced run performs the same op layer by layer through the public
functions the facade calls, timing each call, and asserts the result is
bitwise identical to the facade's.  It then serves the released store over
HTTP for a short point phase (:func:`serve.read_side_of`), so that every
workload reports every layer of the benchmark.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from common import (
    Outcome,
    cpu_times,
    median,
    peak_rss_mib,
    quantile,
    repeat_setup,
    timed_loop,
)

EPSILON = 1.0
#: Share of a traced run spent on layered release ops; the rest serves the
#: released store.
RELEASE_SHARE = 0.6


@dataclass(frozen=True)
class ReleaseSpec:
    """One release workload: its data and strategy."""

    strategy: str
    make_data: Callable[[int], tuple]  # seed -> (schema, records)
    #: Whether the default backend must shard the records (checked per run).
    sharded: bool


def _nltcs_data(seed: int) -> tuple:
    from repro.data import synthetic_nltcs

    dataset = synthetic_nltcs(21_576, rng=seed)
    return dataset.schema, dataset.records


#: Fixed here, not read from the program's auto-shard threshold, so that
#: tuning the threshold cannot change the benchmark's input.
WIDE_ROWS = 100_000
WIDE_ATTRIBUTES = 32
WIDE_CLASSES = 8
#: Seed of the latent-class model itself.  The run's seed draws only the
#: records, so every seed yields data of the same shape and cost (about
#: 83,000 distinct records); with the model drawn from the run's seed too,
#: the distinct count ranged 75,000-90,000 and moved the op time by 8%.
WIDE_MODEL_SEED = 1


def _wide_data(seed: int) -> tuple:
    """Records of the latent-class model of ``latent_class_dataset``:
    class weights from Dirichlet(2), each class's attribute distributions
    from Dirichlet(0.5)."""
    from repro.domain import Attribute, Schema

    schema = Schema([Attribute(f"a{index:02d}", 2) for index in range(WIDE_ATTRIBUTES)])
    model = np.random.default_rng(WIDE_MODEL_SEED)
    class_weights = model.dirichlet(np.full(WIDE_CLASSES, 2.0))
    p_one = model.dirichlet([0.5, 0.5], size=(WIDE_CLASSES, WIDE_ATTRIBUTES))[..., 1]
    generator = np.random.default_rng(seed)
    classes = generator.choice(WIDE_CLASSES, size=WIDE_ROWS, p=class_weights)
    records = generator.random((WIDE_ROWS, WIDE_ATTRIBUTES)) < p_one[classes]
    return schema, records.astype(np.int64)


SPECS: Dict[str, ReleaseSpec] = {
    # The paper's headline method: Fourier strategy, non-uniform budget,
    # inherently consistent, dense 2**16 cube.
    "release-fourier": ReleaseSpec("F", _nltcs_data, sharded=False),
    # Past the dense limit: record-native, auto-sharded, with consistency.
    "release-wide": ReleaseSpec("Q", _wide_data, sharded=True),
}


def marginals_digest(marginals) -> str:
    digest = hashlib.sha256()
    for marginal in marginals:
        digest.update(np.ascontiguousarray(marginal, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


class ReleaseBench:
    """Inputs, reference digest and op implementations for one workload."""

    def __init__(self, name: str, seed: int, work: Path):
        self.spec = SPECS[name]
        self.seed = seed
        self.noise_seed = seed + 1
        self.work = work
        self._ops = 0
        self.reference = ""
        self.result = None

    def _next_store(self):
        from repro.serving.store import ReleaseStore

        self._ops += 1
        return ReleaseStore(self.work / f"store-{self._ops}")

    def setup(self) -> float:
        """Inputs from the seed plus the reference release; returns seconds."""
        from repro.core.engine import release_marginals
        from repro.domain import Dataset
        from repro.queries import all_k_way

        start = time.perf_counter()
        self.schema, self.records = self.spec.make_data(self.seed)
        self.workload = all_k_way(self.schema, 2)
        result = release_marginals(
            Dataset(self.schema, self.records),
            self.workload,
            EPSILON,
            strategy=self.spec.strategy,
            rng=self.noise_seed,
        )
        self._next_store().put(result)
        elapsed = time.perf_counter() - start
        self.clean_stores()
        digest = marginals_digest(result.marginals)
        if self.reference and digest != self.reference:
            raise RuntimeError("the reference release is not reproducible")
        self.reference = digest
        self.result = result
        return elapsed

    # ------------------------------------------------------------ untraced

    def facade_op(self) -> bool:
        from repro.core.engine import release_marginals
        from repro.domain import Dataset

        store = self._next_store()
        result = release_marginals(
            Dataset(self.schema, self.records),
            self.workload,
            EPSILON,
            strategy=self.spec.strategy,
            rng=self.noise_seed,
        )
        store.put(result)
        return marginals_digest(result.marginals) == self.reference

    def clean_stores(self) -> None:
        """Remove every store an op left behind (outside the timed op)."""
        for store in self.work.glob("store-*"):
            shutil.rmtree(store, ignore_errors=True)

    # -------------------------------------------------------------- traced

    def layered_op(self, layers: Dict[str, List[float]], counts: Dict[str, float]) -> bool:
        """The facade's op, one public call at a time, each call timed."""
        from repro.core.result import ReleaseResult
        from repro.domain import Dataset
        from repro.mechanisms.privacy import PrivacyBudget
        from repro.plan import Executor, Planner
        from repro.plan.executor import batched_marginals
        from repro.recovery.consistency import make_consistent
        from repro.sources import as_count_source
        from repro.strategies.registry import make_strategy
        from repro.utils.rng import ensure_rng

        clock = time.perf_counter
        spent: Dict[str, float] = {}
        op_start = clock()
        store = self._next_store()
        t = clock()
        dataset = Dataset(self.schema, self.records)
        spent["domain.dataset_ms"] = clock() - t
        t = clock()
        source = as_count_source(dataset, self.workload, "auto")
        spent["sources.resolve_ms"] = clock() - t
        strategy = make_strategy(self.spec.strategy, self.workload)
        planner = Planner(self.workload, strategy, non_uniform=True)
        budget = PrivacyBudget.pure(EPSILON)
        t = clock()
        plan = planner.plan(budget, source=source)
        spent["plan.plan_ms"] = clock() - t
        executor = Executor(strategy)
        generator = ensure_rng(self.noise_seed)
        t = clock()
        measurement = executor.measure(plan, source, generator)
        spent["plan.measure_ms"] = clock() - t
        t = clock()
        estimates = strategy.estimate(measurement)
        spent["strategies.estimate_ms"] = clock() - t
        consistent = strategy.inherently_consistent
        # Timed as a stage, branch included: an inherently consistent
        # strategy bypasses the call and the stage costs next to nothing.
        t = clock()
        if not consistent:
            estimates = make_consistent(self.workload, estimates, plan=plan).marginals
            consistent = True
        spent["recovery.consistency_ms"] = clock() - t
        result = ReleaseResult(
            workload=self.workload,
            marginals=estimates,
            strategy_name=strategy.name,
            allocation=plan.allocation,
            consistent=consistent,
            expected_total_variance=plan.expected_total_variance(),
        )
        t = clock()
        release_id = store.put(result)
        spent["store.put_ms"] = clock() - t
        op_seconds = clock() - op_start
        counts["store.put_bytes"] = _dir_bytes(store.root / release_id)
        spent["op.unattributed_ms"] = op_seconds - sum(spent.values())
        spent["op"] = op_seconds
        for name, seconds in spent.items():
            layers.setdefault(name, []).append(seconds)

        codes, _weights = dataset.encoded_counts()
        counts["sources.distinct_records"] = len(codes)
        counts["shards.count"] = getattr(source, "shards", 1)
        counts["plan.cells"] = plan.measured_cells

        # The measurement kernel alone, on a fresh source (no memo carried
        # over from the op above).
        fresh = self._fresh_source()
        t = clock()
        if plan.kind == "fourier":
            fresh.fourier_coefficients_for_masks(self.workload.masks)
        else:
            batched_marginals(fresh, plan.batches, strategy.dimension, costs=plan.batch_costs)
        layers.setdefault("sources.kernel_ms", []).append(clock() - t)
        if "plan.batches_root" not in counts:
            counts.update(self._batch_counts(plan, strategy.dimension))
        return marginals_digest(result.marginals) == self.reference

    def _fresh_source(self):
        """The default backend's source over a fresh ``Dataset``."""
        from repro.domain import Dataset
        from repro.sources import as_count_source

        return as_count_source(Dataset(self.schema, self.records), self.workload, "auto")

    def _batch_counts(self, plan, dimension: int) -> Dict[str, float]:
        """The executor's root-versus-direct split of ``plan``, read from
        the counters ``batched_marginals`` emits under ``repro.obs``
        tracing (one untimed call; 0 for a Fourier plan, which has none)."""
        from repro.obs import tracing
        from repro.plan.executor import batched_marginals

        counters: Dict[str, float] = {}
        if plan.kind == "marginal":
            with tracing() as recorder:
                batched_marginals(
                    self._fresh_source(), plan.batches, dimension, costs=plan.batch_costs
                )
            counters = recorder.metrics.snapshot()["counters"]
        names = ("plan.batches_root", "plan.batches_direct")
        return {name: counters.get(name, 0) for name in names}

    def backend_shards(self) -> int:
        """How many shards the default backend splits the records into."""
        return getattr(self._fresh_source(), "shards", 1)

    def reference_store(self):
        """A store holding the reference release; returns ``(store, release id)``."""
        store = self._next_store()
        return store, store.put(self.result)


def trace_layers(bench: ReleaseBench, seconds: float, outcome: Outcome) -> List[float]:
    """Layered ops for ``seconds``: per-layer medians and counts into
    ``outcome``; returns the traced ops' wall times (without the untimed
    kernel-alone call that follows each op)."""
    layers: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    samples, failed, _busy = timed_loop(
        seconds, lambda: bench.layered_op(layers, counts), bench.clean_stores
    )
    outcome.count(len(samples), failed)
    op_seconds = layers.pop("op")
    for metric, values in layers.items():
        outcome.metric(metric, median(values) * 1e3, "ms", len(values))
    for metric, value in counts.items():
        outcome.metric(metric, value, "bytes" if metric.endswith("_bytes") else "count")
    return op_seconds


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    bench = ReleaseBench(name, seed, work)
    outcome = Outcome()
    setups = repeat_setup(lambda _position: bench.setup())
    # A sharded workload whose records stopped being sharded measures
    # another code path: fail the run instead of drifting.
    outcome.checks["backend_sharding"] = (bench.backend_shards() > 1) == bench.spec.sharded

    steal_start = cpu_times()
    if not trace:
        samples, failed, busy = timed_loop(seconds, bench.facade_op, bench.clean_stores)
        outcome.steal_window = (steal_start, cpu_times())
        outcome.count(len(samples), failed)
        ok = len(samples) - failed
        outcome.metric("setup_s", median(setups), "s", len(setups))
        outcome.metric("op_p50_ms", quantile(samples, 0.5) * 1e3, "ms", len(samples))
        outcome.metric("op_p90_ms", quantile(samples, 0.9) * 1e3, "ms", len(samples))
        outcome.metric("ops_per_s", ok / busy, "1/s", len(samples))
        outcome.metric("peak_rss_mib", peak_rss_mib(), "MiB")
        return outcome

    import serve

    op_seconds = trace_layers(bench, seconds * RELEASE_SHARE, outcome)
    outcome.metric("traced.op_p50_ms", median(op_seconds) * 1e3, "ms", len(op_seconds))
    store, release_id = bench.reference_store()
    serve.read_side_of(
        store, release_id, bench.schema, bench.seed, seconds * (1 - RELEASE_SHARE), outcome
    )
    outcome.steal_window = (steal_start, cpu_times())
    return outcome
