"""Backend-aware plan costing: decisions recorded, honoured, and value-free.

The cost model only ever changes *how* the marginal kernel computes its
exact values (root materialisation vs direct member passes) — never the
values.  These tests pin the decision logic per backend, that plans built
with a source carry the decisions, that the executor honours them, and that
forcing either decision produces bitwise-identical measurements.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import MarginalReleaseEngine
from repro.domain import Dataset, Schema
from repro.mechanisms import PrivacyBudget
from repro.obs import tracing
from repro.plan import BatchCost, Planner, batched_marginals, cost_marginal_batches
from repro.plan.lattice import MarginalBatch, plan_marginal_batches
from repro.queries import all_k_way
from repro.shards import ShardedRecordSource
from repro.sources import DenseCubeSource, RecordSource, base
from repro.sources.record import pair_kernel_cost
from repro.strategies import query_strategy

D = 8


@pytest.fixture
def dataset():
    schema = Schema.binary([f"a{i}" for i in range(D)])
    rng = np.random.default_rng(2)
    return Dataset(schema, (rng.random((500, D)) < 0.4).astype(np.int64))


@pytest.fixture
def workload(dataset):
    return all_k_way(dataset.schema, 2)


class TestDecisions:
    def test_dense_sources_always_prefer_the_root(self, dataset, workload):
        strategy = query_strategy(workload)
        planner = Planner(workload, strategy)
        source = dataset.as_source(backend="dense")
        costs = cost_marginal_batches(source, planner.batches)
        assert len(costs) == len(planner.batches)
        assert all(cost.use_root for cost in costs)
        assert all(cost.backend == "dense" for cost in costs)

    def test_record_source_goes_direct_when_the_root_is_too_wide(self):
        # 10 distinct records, one batch whose root has 2**7 = 128 cells:
        # two direct passes (~10 + 4 cells each) beat materialising 128.
        source = RecordSource(np.arange(10, dtype=np.int64), dimension=D)
        batch = MarginalBatch(root=0b1111111, members=(0b11, 0b1100000))
        (cost,) = cost_marginal_batches(source, [batch])
        assert not cost.use_root
        assert cost.direct_cost < cost.root_cost

    def test_trivial_batches_are_always_root(self):
        source = RecordSource(np.arange(4, dtype=np.int64), dimension=D)
        batch = MarginalBatch(root=0b11, members=(0b11,))
        (cost,) = cost_marginal_batches(source, [batch])
        assert cost.use_root

    def test_root_beyond_the_dense_limit_is_never_chosen(self, monkeypatch):
        """Regression: a cheap-looking root the source would refuse to
        materialise (wider than the dense limit) must not be selected — the
        executor would otherwise hit the DataError mid-release."""
        # With 200 records a 4-bit root (16 cells) is far cheaper than two
        # direct passes, but a 3-bit dense limit makes it unmaterialisable.
        monkeypatch.setattr(base, "DENSE_LIMIT_BITS", 3)
        source = RecordSource(np.arange(200, dtype=np.int64), dimension=D)
        batch = MarginalBatch(root=0b1111, members=(0b11, 0b1100))
        (cost,) = cost_marginal_batches(source, [batch])
        assert cost.root_cost < cost.direct_cost  # estimate alone says root
        assert not cost.use_root  # ... but the guard overrides it
        values = batched_marginals(source, [batch], D, costs=(cost,))
        assert set(values) == {0b11, 0b1100}  # executes without raising

    def test_sharded_cost_accounts_for_parallelism(self):
        codes = np.arange(4000, dtype=np.int64)
        serial = RecordSource(codes, dimension=13)
        parallel = ShardedRecordSource(codes, dimension=13, shards=4, workers=4)
        masks = np.array([0b11], dtype=np.int64)
        # Four workers split the record pass; the estimate must be cheaper
        # than serial once the per-task overhead is amortised.
        assert parallel.marginal_costs(masks)[0] < serial.marginal_costs(masks)[0]

    def test_chosen_cost_matches_the_decision(self):
        cost = BatchCost(
            root=0b11, members=2, use_root=False,
            root_cost=10.0, direct_cost=4.0, backend="record",
        )
        assert cost.chosen_cost == 4.0


def per_member_costs(source, batches):
    """The reference: every batch priced member by member from the hooks'
    per-mask estimates.  The estimates come from one call over all members
    and one over all roots, as record backends price a worklist's narrow
    members jointly (they share one pair-kernel estimate)."""
    ceiling = source.max_root_cells()
    members = [member for batch in batches for member in batch.members]
    direct = dict(zip(members, source.marginal_costs(np.array(members, dtype=np.int64))))
    roots = [batch.root for batch in batches]
    rooted = source.marginal_costs(np.array(roots, dtype=np.int64))

    def derive(root, member):
        pair = (np.array([root], dtype=np.int64), np.array([member], dtype=np.int64))
        return float(source.derive_costs(*pair)[0])

    costs = []
    for batch, root_cost in zip(batches, rooted.tolist()):
        root_cost += sum(
            derive(batch.root, member) for member in batch.members if member != batch.root
        )
        direct_cost = float(sum(direct[member] for member in batch.members))
        oversized = ceiling is not None and batch.root_cells > ceiling
        use_root = batch.is_trivial or (
            not oversized and source.can_materialise(batch.root) and root_cost <= direct_cost
        )
        costs.append(
            BatchCost(
                root=batch.root,
                members=len(batch.members),
                use_root=use_root,
                root_cost=float(root_cost),
                direct_cost=direct_cost,
                backend=source.backend,
            )
        )
    return tuple(costs)


class TestArrayPricing:
    """``cost_marginal_batches`` prices a plan from one mask array per hook;
    each estimate equals the member-by-member sum exactly."""

    @pytest.mark.parametrize("layout", ["dense", "record", "serial-shards", "parallel-shards"])
    @pytest.mark.parametrize("bits", [None, 3, 5])
    def test_matches_per_member_pricing(self, dataset, layout, bits, monkeypatch):
        codes, weights = dataset.encoded_counts()
        if layout == "record":
            monkeypatch.setattr(base, "DENSE_LIMIT_BITS", 4)
        source = {
            "dense": lambda: dataset.as_source(backend="dense"),
            "record": lambda: RecordSource(codes, weights, dimension=D),
            "serial-shards": lambda: ShardedRecordSource(
                codes, weights, dimension=D, shards=3, workers=1
            ),
            "parallel-shards": lambda: ShardedRecordSource(
                codes, weights, dimension=D, shards=3, workers=2
            ),
        }[layout]()
        workload = all_k_way(dataset.schema, 3)
        masks = query_strategy(workload).query_masks()
        batches = plan_marginal_batches(masks, workload.dimension, max_bits=bits)
        assert cost_marginal_batches(source, batches) == per_member_costs(source, batches)

    def test_scalar_hooks_keep_their_formulas(self):
        codes = np.arange(1001, dtype=np.int64)
        wide = np.array([0b111], dtype=np.int64)
        record = RecordSource(codes, dimension=12)
        assert record.marginal_costs(wide).tolist() == [1001.0 + 8.0]
        sharded = ShardedRecordSource(codes, dimension=12, shards=3, workers=3)
        largest = max(sharded.shard_sizes)
        expected = max(float(largest), 1001 / 3) + 8.0 * 3 + 256.0
        assert sharded.marginal_costs(wide).tolist() == [expected]
        derived = sharded.derive_costs(np.array([0b1111]), np.array([0b11]))
        assert derived.tolist() == [16.0]

    def test_empty_plan(self):
        assert cost_marginal_batches(RecordSource(np.arange(4), dimension=D), ()) == ()


class TestPlansCarryDecisions:
    def test_plan_without_source_has_no_costs(self, dataset, workload):
        planner = Planner(workload, query_strategy(workload))
        plan = planner.plan(PrivacyBudget.pure(1.0))
        assert plan.batch_costs is None

    def test_plan_with_source_records_costs(self, dataset, workload):
        planner = Planner(workload, query_strategy(workload))
        source = dataset.as_source(backend="record")
        plan = planner.plan(PrivacyBudget.pure(1.0), source=source)
        assert plan.batch_costs is not None
        assert len(plan.batch_costs) == len(plan.batches)
        assert all(cost.backend == "record" for cost in plan.batch_costs)
        assert "est" in plan.describe()

    def test_engine_explain_reports_costs_and_layout(self, dataset, workload):
        engine = MarginalReleaseEngine(
            workload, "Q", backend="record", shards=3, workers=2
        )
        text = engine.explain(1.0, data=dataset)
        assert "source layout     : 3 shard(s)" in text
        assert "[root:" in text or "[direct:" in text
        # Without data the explanation stays data-independent.
        assert "source layout" not in engine.explain(1.0)

    def test_resolved_backend_accounts_for_the_shard_knob(self, workload):
        """Regression: an auto-policy engine with explicit shards releases
        on the sharded record backend — introspection must say so instead
        of reporting the dense default of the small domain."""
        from repro.exceptions import DataError

        engine = MarginalReleaseEngine(workload, "Q", shards=4)
        assert engine.resolved_backend == "record"
        assert MarginalReleaseEngine(workload, "Q").resolved_backend == "dense"
        with pytest.raises(DataError, match="dense"):
            MarginalReleaseEngine(workload, "Q", backend="dense", shards=4)


class TestDecisionsAreValueFree:
    def test_forced_root_and_forced_direct_are_bitwise_identical(
        self, dataset, workload
    ):
        strategy = query_strategy(workload)
        planner = Planner(workload, strategy)
        source = dataset.as_source(backend="record")
        batches = planner.batches

        def forced(use_root):
            costs = tuple(
                BatchCost(
                    root=batch.root,
                    members=len(batch.members),
                    use_root=use_root,
                    root_cost=0.0,
                    direct_cost=0.0,
                    backend="record",
                )
                for batch in batches
            )
            return batched_marginals(source, batches, D, costs=costs)

        via_root = forced(True)
        direct = forced(False)
        assert via_root.keys() == direct.keys()
        for mask in via_root:
            assert np.array_equal(via_root[mask], direct[mask])

    def test_release_identical_with_and_without_costed_plan(self, dataset, workload):
        source = dataset.as_source(backend="record")
        engine = MarginalReleaseEngine(workload, "Q", backend="record")
        plan_uncosted = engine.build_plan(1.0)
        plan_costed = engine.planner.plan(PrivacyBudget.pure(1.0), source=source)
        assert plan_costed.batch_costs is not None
        left = engine.executor.measure(plan_uncosted, source, rng=9)
        right = engine.executor.measure(plan_costed, source, rng=9)
        for label in left.values:
            assert np.array_equal(left.values[label], right.values[label])

    def test_dense_and_record_costed_plans_release_identically(
        self, dataset, workload
    ):
        releases = []
        for backend in ("dense", "record"):
            engine = MarginalReleaseEngine(workload, "Q", backend=backend)
            releases.append(engine.release(dataset, 1.0, rng=21))
        for left, right in zip(releases[0].marginals, releases[1].marginals):
            assert np.array_equal(left, right)

    def test_mismatched_cost_count_is_rejected(self, dataset, workload):
        from repro.exceptions import PlanError

        source = dataset.as_source(backend="record")
        planner = Planner(workload, query_strategy(workload))
        with pytest.raises(PlanError):
            batched_marginals(
                source,
                planner.batches,
                D,
                costs=(
                    BatchCost(
                        root=1, members=1, use_root=True,
                        root_cost=0.0, direct_cost=0.0, backend="record",
                    ),
                ) * (len(planner.batches) + 1),
            )

    def test_dense_default_cost_hooks(self):
        source = DenseCubeSource(np.ones(1 << 6), 6)
        assert source.marginal_costs(np.array([0b11])).tolist() == [float(1 << 6)]
        derived = source.derive_costs(np.array([0b1111]), np.array([0b11]))
        assert derived.tolist() == [float(1 << 4)]


def wide_records(seed: int = 7, rows: int = 100_000, attributes: int = 32) -> Dataset:
    """Records shaped like the ``release-wide`` benchmark input: a latent
    class model of 8 classes over 32 binary attributes, ~83k distinct."""
    schema = Schema.binary([f"a{index:02d}" for index in range(attributes)])
    model = np.random.default_rng(1)
    class_weights = model.dirichlet(np.full(8, 2.0))
    p_one = model.dirichlet([0.5, 0.5], size=(8, attributes))[..., 1]
    generator = np.random.default_rng(seed)
    classes = generator.choice(8, size=rows, p=class_weights)
    records = generator.random((rows, attributes)) < p_one[classes]
    return Dataset(schema, records.astype(np.int64))


class TestPairKernelPricing:
    """The cost model prices the pair kernel with the kernel's own rule
    (:func:`repro.sources.record.pair_kernel_cost`)."""

    @pytest.fixture(scope="class")
    def wide(self):
        dataset = wide_records()
        workload = all_k_way(dataset.schema, 2)
        source = RecordSource(*dataset.encoded_counts(), dimension=32)
        plan = Planner(workload, query_strategy(workload)).plan(
            PrivacyBudget.pure(1.0), source=source
        )
        return source, plan

    def test_unsharded_wide_release_plans_no_batch_roots(self, wide):
        # Materialising a 16-bit root to derive 64 pair members from it was
        # twice as slow as reading them off the pair kernel.
        _source, plan = wide
        assert len(plan.batch_costs) == 3
        assert not any(cost.use_root for cost in plan.batch_costs)

    def test_wide_release_members_take_the_pair_kernel(self, wide):
        source, plan = wide
        with tracing() as recorder:
            values = batched_marginals(source, plan.batches, 32, costs=plan.batch_costs)
        counters = recorder.metrics.snapshot()["counters"]
        assert len(values) == 496
        assert counters["source.pair_members"] == 496
        assert counters.get("source.bincount_members", 0) == 0

    def test_narrow_members_share_the_kernel_estimate(self, wide):
        source, _plan = wide
        # Every 1- and 2-bit mask over four bits of one byte: one histogram.
        narrow = np.array([0b1, 0b10, 0b100, 0b1000, 0b11, 0b101, 0b1001, 0b110, 0b1010, 0b1100])
        pair = pair_kernel_cost(source.distinct_records, narrow)
        assert pair is not None and pair < source.distinct_records * 2
        costs = source.marginal_costs(np.concatenate((narrow, [0b111])))
        assert costs[:10].tolist() == [pair / 10] * 10
        assert costs[10] == source.distinct_records + 8.0

    def test_members_the_kernel_declines_keep_the_bincount_price(self):
        # One 2-bit member over a few hundred rows: the pair kernel's fixed
        # cost exceeds one bincount, in the kernel and in the planner alike.
        source = RecordSource(np.arange(300, dtype=np.int64), dimension=12)
        masks = np.array([0b11], dtype=np.int64)
        assert pair_kernel_cost(source.distinct_records, masks) is None
        assert source.marginal_costs(masks).tolist() == [300.0 + 4.0]
