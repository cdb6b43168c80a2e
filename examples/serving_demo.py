"""Serving demo: release once, store, then answer query traffic for free.

Run with::

    python examples/serving_demo.py

The script privately releases all 2-way marginals of a synthetic survey,
persists the release into an on-disk :class:`repro.serving.ReleaseStore`,
and then serves sub-marginal, point and slice queries from it through a
:class:`repro.serving.QueryService` — demonstrating that

* any marginal dominated by a released cuboid is answerable *without
  spending any additional privacy budget*;
* the planner picks the minimum-expected-variance covering cuboid and
  attaches an analytic error bar to every answer;
* repeated queries hit the LRU cache and batches aggregate each source
  cuboid only once.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import QueryService, ReleaseStore, all_k_way, release_marginals
from repro.data import synthetic_nltcs


def main() -> None:
    # 1. Release: all 2-way marginals of the 16-attribute NLTCS stand-in.
    data = synthetic_nltcs(n_records=21_576, rng=7)
    workload = all_k_way(data.schema, 2)
    release = release_marginals(data, workload, budget=1.0, strategy="F", rng=7)
    print(f"released {len(workload)} cuboids ({workload.total_cells} cells) "
          f"under epsilon = {release.budget.epsilon:g}")

    with tempfile.TemporaryDirectory() as tmp:
        # 2. Persist: JSON metadata + one memory-mapped .npy, indexed by cuboid mask.
        store = ReleaseStore(Path(tmp) / "store")
        release_id = store.put(release)
        print(f"stored as {release_id!r} under {store.root}\n")

        # 3. Serve. The service routes to a covering release, the planner
        #    picks the best source cuboid, answers carry error bars.
        service = QueryService(store)

        first, second = data.schema.names[:2]
        pair = service.query([first, second])
        print(f"2-way marginal ({first}, {second}): {pair.values.round(1)}")
        print(f"  source cuboid: {data.schema.attributes_of_mask(pair.plan.source_mask)}, "
              f"std error {pair.std_error:.2f} per cell")

        # A 1-way marginal was never released — it is served by summing the
        # least-noisy released 2-way ancestor (zero extra budget).
        single = service.query([first])
        print(f"1-way marginal ({first}): {single.values.round(1)}")
        print(f"  served from {data.schema.attributes_of_mask(single.plan.source_mask)} "
              f"(x{single.plan.expansion} cells summed per answer cell), "
              f"std error {single.std_error:.2f}")

        # Point and slice queries: predicates select cells of the aggregate.
        point = service.query([], where={first: 1, second: 0})
        print(f"point query {first}=1, {second}=0: "
              f"{point.values[0]:.1f} +/- {point.std_error:.2f}")

        # Cache: the repeat of an earlier query is a dictionary hit.
        repeat = service.query([first, second])
        print(f"\nrepeat query cached: {repeat.cached}")

        # Batch: every 1-way marginal at once; each source cuboid is
        # aggregated a single time per batch.
        batch = service.query_batch([[name] for name in data.schema.names])
        worst = max(answer.std_error for answer in batch)
        print(f"batched {len(batch)} one-way marginals, worst std error {worst:.2f}")

        stats = service.stats()
        print(f"\nserving stats: {stats['queries']} single queries, "
              f"{stats['batched_requests']} batched requests, "
              f"cache hit rate {stats['cache']['hit_rate']:.0%}")
        print("privacy budget consumed by all of the above: 0 "
              "(serving is post-processing)")


if __name__ == "__main__":
    main()
