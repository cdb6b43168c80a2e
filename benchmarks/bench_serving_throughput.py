"""Serving throughput: cold vs. cached vs. batched-serial vs. batched-grouped.

The serving layer's promise is that once a release is paid for, query
traffic is free — but it still has to be *fast*.  This benchmark releases
all 2-way marginals of the synthetic NLTCS domain (16 binary attributes,
2**16 cells), stores them, and measures queries/second over a fixed mixed
workload of sub-marginal and slice queries on four paths:

* **cold** — caching disabled: route, plan (covering-index ancestor search
  over all released cuboids), aggregate, slice, every time;
* **cached** — the same queries against a warm LRU cache;
* **batched-serial** — the cold workload as a per-request ``query()``
  loop (each a batch of one) on its own cache-less service: what a client
  pays for not batching;
* **batched-grouped** — the grouped path, swept over batch size ×
  worker count: queries grouped by (release, source cuboid, union target),
  one aggregation and one vectorised gather per group, independent groups
  dispatched on the shared thread pool.

The grouped answers are asserted sha256-identical to the per-request
answers before any timing is believed.  Per-query p50/p99 latencies come
from a traced pass that feeds an obs histogram per path.

Usage::

    python benchmarks/bench_serving_throughput.py          # full run, writes
                                                           # results/serving_throughput.{txt,json}
    python benchmarks/bench_serving_throughput.py --quick  # CI smoke (no file)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
try:  # pragma: no cover - import shim for uninstalled checkouts
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(_SRC))

from repro.analysis.reporting import format_table  # noqa: E402
from repro.core.engine import release_marginals  # noqa: E402
from repro.data import synthetic_nltcs  # noqa: E402
from repro.obs import tracing  # noqa: E402
from repro.queries import all_k_way  # noqa: E402
from repro.serving.service import QueryRequest, QueryService  # noqa: E402
from repro.serving.store import ReleaseStore  # noqa: E402
from repro.utils.bits import iter_submasks  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Committed batched-path throughput before the grouped rewrite (see
#: results/serving_throughput.json history): the old ``query_batch`` answered
#: 400 mixed queries at ~31k qps.  The grouped path must beat it 5x.
PRE_PR_BATCHED_QPS = 31073.78

#: Per-query latency bucket edges (seconds): ~1 us cache hits up to the
#: multi-ms cold tail.
LATENCY_EDGES = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1,
)

EPSILON = 1.0


def _build_store(tmp_path: Path, dataset) -> ReleaseStore:
    workload = all_k_way(dataset.schema, 2)
    release = release_marginals(
        dataset, workload, budget=EPSILON, strategy="Q", consistency=False, rng=2013
    )
    store = ReleaseStore(tmp_path / "store")
    store.put(release, release_id="bench")
    return store


def _query_mix(store: ReleaseStore, schema, count: int) -> List[QueryRequest]:
    """A fixed mixed workload: 0/1/2-way sub-marginals plus slice queries."""
    masks = [int(m) for m in store.metadata("bench")["masks"]]
    requests: List[QueryRequest] = []
    generator = np.random.default_rng(4)
    for position in range(count):
        source = masks[int(generator.integers(len(masks)))]
        submasks = list(iter_submasks(source))
        target = int(submasks[int(generator.integers(len(submasks)))])
        if position % 5 == 0 and target not in (0, source):
            # Every fifth query is a slice: pin the remaining source bits.
            fixed_names = schema.attributes_of_mask(source & ~target)
            where = {name: int(generator.integers(2)) for name in fixed_names}
            requests.append(QueryRequest(mask=target, where=where))
        else:
            requests.append(QueryRequest(mask=target))
    return requests


def _answers_digest(answers) -> str:
    """sha256 over every answer's value bytes, plan and provenance."""
    digest = hashlib.sha256()
    for answer in answers:
        meta = (
            answer.release_id,
            answer.query_mask,
            answer.fixed_mask,
            answer.fixed_bits,
            answer.plan.source_mask,
            answer.plan.source_position,
            answer.plan.expansion,
            answer.plan.degraded,
        )
        digest.update(repr(meta).encode())
        digest.update(np.float64(answer.per_cell_variance).tobytes())
        digest.update(np.ascontiguousarray(answer.values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _percentile(histogram: Dict[str, object], quantile: float) -> float:
    """Upper-edge percentile estimate from a fixed-bucket histogram dict."""
    counts = histogram["counts"]
    edges = histogram["edges"]
    total = histogram["count"]
    if not total:
        return 0.0
    rank = quantile * total
    cumulative = 0
    for bucket, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= rank:
            if bucket < len(edges):
                return float(edges[bucket])
            break
    return float(histogram["max"])


def _time_best_of(callable_, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _run_single(service: QueryService, requests, observe=None) -> None:
    if observe is None:
        for request in requests:
            service.query(mask=request.mask, where=request.where)
        return
    for request in requests:
        start = time.perf_counter()
        service.query(mask=request.mask, where=request.where)
        observe(time.perf_counter() - start)


def _run_grouped(
    service: QueryService, requests, batch_size: int, observe=None
) -> None:
    for offset in range(0, len(requests), batch_size):
        chunk = requests[offset : offset + batch_size]
        start = time.perf_counter()
        service.query_batch(chunk)
        if observe is not None:
            per_query = (time.perf_counter() - start) / len(chunk)
            for _ in chunk:
                observe(per_query)


def _latency_percentiles(recorder, name: str) -> Dict[str, float]:
    histogram = recorder.metrics.snapshot()["histograms"][name]
    return {
        "p50_us": round(_percentile(histogram, 0.50) * 1e6, 3),
        "p99_us": round(_percentile(histogram, 0.99) * 1e6, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=None, help="synthetic records")
    parser.add_argument("--queries", type=int, default=None, help="workload size")
    parser.add_argument("--reps", type=int, default=None, help="timing repetitions")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: fewer records and queries, no results file",
    )
    args = parser.parse_args(argv)

    records = args.records if args.records is not None else (600 if args.quick else 21_576)
    query_count = args.queries if args.queries is not None else (100 if args.quick else 400)
    # Best of 3 in --quick too: timed once, a single scheduling stall could
    # decide the grouped-versus-serial comparison below.
    reps = args.reps if args.reps is not None else 3
    batch_sizes = (50,) if args.quick else (25, 100, 400)
    worker_counts = (1, 2) if args.quick else (1, 2, 4)

    dataset = synthetic_nltcs(records, rng=1982)
    with tempfile.TemporaryDirectory(prefix="bench_serving_") as tmp:
        store = _build_store(Path(tmp), dataset)
        requests = _query_mix(store, dataset.schema, query_count)
        cuboids = len(store.metadata("bench")["masks"])

        # Correctness gate before any timing: the grouped path must answer
        # byte-for-byte what the per-request loop answers.
        serial_service = QueryService(store, cache_size=0)
        serial_answers = [
            serial_service.query(mask=request.mask, where=request.where)
            for request in requests
        ]
        grouped_answers = QueryService(store, cache_size=0, batch_workers=2).query_batch(
            requests
        )
        digest = _answers_digest(serial_answers)
        assert _answers_digest(grouped_answers) == digest, (
            "grouped batch answers diverge from the serial loop"
        )

        cold_service = QueryService(store, cache_size=0)
        warm_service = QueryService(store, cache_size=4096)
        _run_single(warm_service, requests)  # warm the cache once

        timings: Dict[str, float] = {
            "cold": _time_best_of(lambda: _run_single(cold_service, requests), reps),
            "cached": _time_best_of(lambda: _run_single(warm_service, requests), reps),
            "batched_serial": _time_best_of(
                lambda: _run_single(serial_service, requests), reps
            ),
        }

        sweep: List[Dict[str, float]] = []
        for workers in worker_counts:
            for batch_size in batch_sizes:
                service = QueryService(store, cache_size=0, batch_workers=workers)
                # Warm routing, plan caches and every source's first-touch
                # digest check, as the correctness gate warmed serial_service.
                service.query_batch(requests)
                seconds = _time_best_of(
                    lambda: _run_grouped(service, requests, batch_size), reps
                )
                sweep.append(
                    {
                        "batch_size": batch_size,
                        "workers": workers,
                        "seconds": seconds,
                        "qps": query_count / seconds,
                    }
                )
        best: Dict[str, float] = max(sweep, key=lambda point: point["qps"])

        # One traced pass per path (untimed) feeds the latency histograms and
        # embeds the serving counters in the report.
        grouped_service = QueryService(
            store, cache_size=0, batch_workers=int(best["workers"])
        )
        grouped_service.query_batch(requests)
        with tracing() as recorder:
            def _observer(name: str):
                histogram = recorder.metrics.histogram(name, LATENCY_EDGES)
                return histogram.observe

            _run_single(cold_service, requests, observe=_observer("bench.latency.cold"))
            _run_single(
                warm_service, requests, observe=_observer("bench.latency.cached")
            )
            _run_single(
                serial_service, requests, observe=_observer("bench.latency.batched_serial")
            )
            _run_grouped(
                grouped_service,
                requests,
                int(best["batch_size"]),
                observe=_observer("bench.latency.batched_grouped"),
            )
        metrics = recorder.metrics.snapshot()
        for point in sweep:
            point.update(
                _latency_percentiles(recorder, "bench.latency.batched_grouped")
                if point is best
                else {}
            )

        observability = {
            "counters": metrics["counters"],
            "group_size_histogram": metrics["histograms"].get(
                "serving.batch.group_size"
            ),
            "span_durations": recorder.durations_by_name(),
        }
        grouped_stats = grouped_service.stats()

    paths: Dict[str, Dict[str, object]] = {
        "cold": {
            "qps": query_count / timings["cold"],
            "seconds": timings["cold"],
            **_latency_percentiles(recorder, "bench.latency.cold"),
        },
        "cached": {
            "qps": query_count / timings["cached"],
            "seconds": timings["cached"],
            "hit_rate": warm_service.stats()["cache"]["hit_rate"],
            **_latency_percentiles(recorder, "bench.latency.cached"),
        },
        "batched_serial": {
            "qps": query_count / timings["batched_serial"],
            "seconds": timings["batched_serial"],
            **_latency_percentiles(recorder, "bench.latency.batched_serial"),
        },
        "batched_grouped": {
            "qps": best["qps"],
            "seconds": best["seconds"],
            "batch_size": best["batch_size"],
            "workers": best["workers"],
            "sweep": sweep,
        },
    }
    for name in ("cached", "batched_serial", "batched_grouped"):
        paths[name]["speedup_vs_cold"] = paths[name]["qps"] / paths["cold"]["qps"]
    paths["batched_grouped"]["speedup_vs_batched_serial"] = (
        paths["batched_grouped"]["qps"] / paths["batched_serial"]["qps"]
    )
    paths["batched_grouped"]["speedup_vs_pre_pr_batched"] = (
        paths["batched_grouped"]["qps"] / PRE_PR_BATCHED_QPS
    )

    report = {
        "config": {
            "records": records,
            "query_count": query_count,
            "repetitions": reps,
            "domain_bits": dataset.schema.total_bits,
            "released_cuboids": cuboids,
            "strategy": "Q",
            "batch_sizes": list(batch_sizes),
            "worker_counts": list(worker_counts),
        },
        "reference": {"pre_pr_batched_qps": PRE_PR_BATCHED_QPS},
        "grouped_equals_serial_sha256": digest,
        "paths": paths,
        "serving_stats": {
            "batch_groups": grouped_stats["batch_groups"],
            "plan_cache": grouped_stats["plan_cache"],
        },
        "observability": observability,
    }

    rows = [
        ["cold", paths["cold"]["qps"], paths["cold"]["p50_us"],
         paths["cold"]["p99_us"], 1.0],
        ["cached", paths["cached"]["qps"], paths["cached"]["p50_us"],
         paths["cached"]["p99_us"], paths["cached"]["speedup_vs_cold"]],
        ["batched-serial", paths["batched_serial"]["qps"],
         paths["batched_serial"]["p50_us"], paths["batched_serial"]["p99_us"],
         paths["batched_serial"]["speedup_vs_cold"]],
        ["batched-grouped", paths["batched_grouped"]["qps"],
         best.get("p50_us", 0.0), best.get("p99_us", 0.0),
         paths["batched_grouped"]["speedup_vs_cold"]],
    ]
    table = format_table(
        ["path", "queries/s", "p50 us", "p99 us", "speedup vs cold"],
        rows,
        float_format="{:.4g}",
    )
    print(table)
    print(
        f"grouped sweep best: batch_size={int(best['batch_size'])} "
        f"workers={int(best['workers'])} -> {best['qps']:.0f} qps "
        f"({paths['batched_grouped']['speedup_vs_pre_pr_batched']:.1f}x the "
        f"pre-rewrite batched path, answers sha256-identical to serial)"
    )

    # Batching must never be slower than issuing the same queries one by one.
    assert paths["batched_grouped"]["qps"] >= paths["batched_serial"]["qps"]
    if not args.quick:
        # A warm cache hit must still clearly beat the cold path.  The margin
        # used to be >= 10x; the covering index and plan cache now serve
        # cache-less queries too, so cold itself got ~4x faster and the
        # cache's relative headroom is structurally smaller.
        cached_speedup = paths["cached"]["speedup_vs_cold"]
        assert cached_speedup >= 2.0, f"cached path only {cached_speedup:.1f}x"
        assert paths["cached"]["qps"] >= paths["batched_grouped"]["qps"]
        # Acceptance for the grouped rewrite: >= 5x the committed pre-rewrite
        # batched throughput on the same workload.
        grouped_gain = paths["batched_grouped"]["speedup_vs_pre_pr_batched"]
        assert grouped_gain >= 5.0, (
            f"grouped batch path only {grouped_gain:.1f}x the pre-rewrite baseline"
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        json_path = RESULTS_DIR / "serving_throughput.json"
        json_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        (RESULTS_DIR / "serving_throughput.txt").write_text(table + "\n")
        print(f"wrote {json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
