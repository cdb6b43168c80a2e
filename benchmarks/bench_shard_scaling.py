"""Shard scaling: parallel record-native measurement and streaming ingestion.

Three claims of the sharding layer (``repro.shards``) are measured:

* **worker scaling** — the measurement stage of a d = 20 all-2-way release
  over >= 10^5 distinct records, swept over shard/worker counts and both
  executor kinds, with strategy ``F`` (Fourier coefficients from one
  trivial batch per 2-way mask); next to it the same sweep with strategy
  ``Q`` at d = 24 (d = 20 under ``--quick``), wide enough that the planner
  measures the 2-way cuboids directly.  Both read the pairs off the record
  kernel's weighted byte-pair histograms on every shard.  On a multi-core
  machine (>= 4 cores) the best sharded ``F`` configuration must be at
  least 2x faster than the single-shard record backend, and **every**
  configuration of both sweeps must reproduce the unsharded measurement
  bitwise;
* **wide domains** — the same sweep at d = 32, where the dense pipeline
  cannot exist at all;
* **streaming ingestion** — a :class:`~repro.shards.streaming.StreamingSourceBuilder`
  ingesting >= 10^6 rows of per-attribute record batches over a
  mixed-width schema through ``add_records`` (each batch validated and
  packed by the schema's record encoder) in bounded memory (the full code
  array never exists in the builder), verified exactly against a one-shot
  source over the same rows.

Usage::

    python benchmarks/bench_shard_scaling.py          # full run, writes
                                                      # results/shard_scaling.json
    python benchmarks/bench_shard_scaling.py --quick  # CI smoke (no file)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
try:  # pragma: no cover - import shim for uninstalled checkouts
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(_SRC))

from repro.core.engine import MarginalReleaseEngine  # noqa: E402
from repro.data.loader import _batch_code_dtype  # noqa: E402
from repro.domain import Attribute, Schema  # noqa: E402
from repro.obs import tracing  # noqa: E402
from repro.queries import MarginalQuery, MarginalWorkload, all_k_way  # noqa: E402
from repro.shards import ShardedRecordSource, StreamingSourceBuilder  # noqa: E402
from repro.sources import RecordSource  # noqa: E402

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "shard_scaling.json"


def _random_codes(d: int, n_rows: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << d, n_rows, dtype=np.int64)


def _time_best_of(callable_, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _measurement_values(engine, source, seed: int):
    plan = engine.planner.plan(_budget(), source=source)
    return plan, engine.executor.measure(plan, source, rng=seed).values


def _budget():
    from repro.mechanisms import PrivacyBudget

    return PrivacyBudget.pure(1.0)


def sweep(
    d: int, workload, configs, n_rows: int, reps: int, seed: int, strategy: str = "F"
) -> dict:
    """Time the measurement stage per shard layout; assert bitwise identity."""
    codes = _random_codes(d, n_rows, seed)
    base = RecordSource(codes, dimension=d)
    engine = MarginalReleaseEngine(workload, strategy, backend="record")
    plan = engine.planner.plan(_budget(), source=base)

    def measure(source):
        return engine.executor.measure(plan, source, rng=seed)

    reference = measure(base).values
    with tracing() as recorder:  # which record kernel served the members
        measure(base)
    kernels = recorder.metrics.snapshot()["counters"]
    baseline_seconds = _time_best_of(lambda: measure(base), reps)

    points = []
    for shards, workers, kind in configs:
        source = ShardedRecordSource.from_record_source(
            base, shards=shards, workers=workers, executor=kind
        )
        values = measure(source).values  # warm the pool, check bitwise identity
        for label, exact in reference.items():
            if not np.array_equal(values[label], exact, equal_nan=True):
                raise AssertionError(
                    f"sharded {strategy} measurement diverged at {shards} shards "
                    f"({workers} {kind} workers)"
                )
        seconds = _time_best_of(lambda source=source: measure(source), reps)
        points.append(
            {
                "shards": shards,
                "workers": workers,
                "executor": kind,
                "measure_seconds": seconds,
                "speedup": baseline_seconds / seconds,
                "bitwise_identical": True,
            }
        )
    return {
        "strategy": strategy,
        "d": d,
        "rows": n_rows,
        "distinct_records": base.distinct_records,
        "cuboids": len(workload),
        "pair_members": kernels.get("source.pair_members", 0.0),
        "bincount_members": kernels.get("source.bincount_members", 0.0),
        "baseline_measure_seconds": baseline_seconds,
        "points": points,
    }


#: Mixed-width schema of the streaming ingest (20 bits, padding cells in
#: every non-power-of-two attribute).
STREAM_CARDINALITIES = (2, 3, 5, 9, 4, 7, 3, 6)


def _record_batch(schema: Schema, n_rows: int, seed: int) -> np.ndarray:
    """Per-attribute codes in the CSV loader's narrow batch dtype."""
    cards = np.array([attribute.cardinality for attribute in schema.attributes])
    uniform = np.random.default_rng(seed).random((n_rows, cards.size))
    return (uniform * cards).astype(_batch_code_dtype(schema))


def streaming_ingest(rows: int, batch_size: int, seed: int) -> dict:
    """Ingest ``rows`` record batches through the encoder under tracemalloc;
    verify exactly against a one-shot source over the same rows."""
    schema = Schema(
        [Attribute(f"s{i}", card) for i, card in enumerate(STREAM_CARDINALITIES)]
    )
    d = schema.total_bits
    builder = StreamingSourceBuilder(schema)
    batches = rows // batch_size
    tracemalloc.start()
    start = time.perf_counter()
    for index in range(batches):
        builder.add_records(_record_batch(schema, batch_size, seed + index))
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert builder.rows_ingested == batches * batch_size

    source = builder.build(shards=4, workers=2)
    reference = RecordSource.from_records(
        schema,
        np.concatenate(
            [_record_batch(schema, batch_size, seed + index) for index in range(batches)]
        ),
    )
    assert source.total == reference.total
    for mask in (0b11, 0b110000, (1 << 10) - 1, schema.mask_of(["s3", "s5"])):
        if not np.array_equal(source.marginal(mask), reference.marginal(mask)):
            raise AssertionError("streamed source diverged from the one-shot source")
    return {
        "d": d,
        "cardinalities": list(STREAM_CARDINALITIES),
        "rows": batches * batch_size,
        "batch_size": batch_size,
        "distinct_records": source.distinct_records,
        "ingest_seconds": elapsed,
        "rows_per_second": (batches * batch_size) / elapsed,
        "ingest_peak_mib": peak / (1024 * 1024),
        "exact_vs_one_shot": True,
    }


def wide_workload(schema: Schema, d: int) -> MarginalWorkload:
    masks = [1 << i for i in range(d)]
    masks += [(1 << i) | (1 << j) for i in range(8) for j in range(i + 1, 8)]
    return MarginalWorkload(
        schema, [MarginalQuery(mask, d) for mask in masks], name=f"wide-{d}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=120_000, help="d=20 sweep rows")
    parser.add_argument(
        "--stream-rows", type=int, default=1_000_000, help="streaming ingest rows"
    )
    parser.add_argument("--reps", type=int, default=None, help="timing repetitions")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: small sweep, fewer rows, no results file",
    )
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    reps = args.reps if args.reps is not None else (1 if args.quick else 2)
    if args.quick:
        d_sweep, rows = 14, 20_000
        # Narrower Q domains measure the pairs through materialised roots.
        q_d = 20
        stream_rows, batch_size = 50_000, 10_000
        configs = [(2, 2, "thread"), (4, 2, "thread")]
        wide_d, wide_rows = None, 0
    else:
        d_sweep, rows = 20, args.rows
        q_d = 24
        stream_rows, batch_size = args.stream_rows, 100_000
        configs = [
            (2, 2, "thread"),
            (4, 4, "thread"),
            (8, 4, "thread"),
            (8, 8, "thread"),
            (4, 4, "process"),
            (8, 8, "process"),
        ]
        wide_d, wide_rows = 32, 100_000

    schema = Schema.binary([f"a{i:02d}" for i in range(d_sweep)])
    workload = all_k_way(schema, 2)
    sweep_report = sweep(d_sweep, workload, configs, rows, reps, args.seed)
    q_schema = Schema.binary([f"a{i:02d}" for i in range(q_d)])
    q_sweep_report = sweep(
        q_d, all_k_way(q_schema, 2), configs, rows, reps, args.seed, "Q"
    )
    # The Q sweep exists to cover the sharded pair kernel: it must run there.
    assert q_sweep_report["pair_members"] > 0, "the Q sweep never ran the pair kernel"

    wide_report = None
    if wide_d is not None:
        wide_schema = Schema.binary([f"a{i:02d}" for i in range(wide_d)])
        wide_report = sweep(
            wide_d,
            wide_workload(wide_schema, wide_d),
            [(4, 4, "thread"), (8, 8, "process")],
            wide_rows,
            reps,
            args.seed,
        )

    stream_report = streaming_ingest(stream_rows, batch_size, args.seed)

    report = {
        "config": {
            "cores": cores,
            "repetitions": reps,
            "seed": args.seed,
            "strategies": ["F", "Q"],
            "workload": "all 2-way",
        },
        "sweep": sweep_report,
        "q_sweep": q_sweep_report,
        "wide_sweep": wide_report,
        "streaming": stream_report,
    }

    for report_ in (sweep_report, q_sweep_report):
        print(
            f"{report_['strategy']} d={report_['d']} "
            f"({report_['distinct_records']} distinct records, "
            f"{report_['cuboids']} cuboids, {cores} core(s)): single-shard "
            f"measurement {report_['baseline_measure_seconds'] * 1e3:.1f} ms; "
            f"{report_['pair_members']:.0f} members from the pair kernel, "
            f"{report_['bincount_members']:.0f} from the bincount"
        )
        for point in report_["points"]:
            print(
                f"  {point['shards']} shards x {point['workers']} {point['executor']:>7} "
                f"workers: {point['measure_seconds'] * 1e3:8.1f} ms "
                f"({point['speedup']:.2f}x, bitwise identical)"
            )
    if wide_report is not None:
        print(
            f"d={wide_report['d']} ({wide_report['distinct_records']} distinct records, "
            f"{wide_report['cuboids']} cuboids): single-shard "
            f"{wide_report['baseline_measure_seconds'] * 1e3:.1f} ms"
        )
        for point in wide_report["points"]:
            print(
                f"  {point['shards']} shards x {point['workers']} {point['executor']:>7} "
                f"workers: {point['measure_seconds'] * 1e3:8.1f} ms "
                f"({point['speedup']:.2f}x)"
            )
    print(
        f"streaming: {stream_report['rows']} records (d={stream_report['d']}) in "
        f"{stream_report['ingest_seconds']:.2f} s "
        f"({stream_report['rows_per_second'] / 1e6:.2f}M rows/s), "
        f"peak {stream_report['ingest_peak_mib']:.1f} MiB, exact vs one-shot"
    )

    if not args.quick:
        if cores >= 4:
            # Acceptance: on a multi-core machine the best sharded layout must
            # at least halve the single-shard measurement wall clock.
            best = max(point["speedup"] for point in sweep_report["points"])
            assert best >= 2.0, (
                f"expected >= 2x from sharding on a {cores}-core machine, "
                f"got {best:.2f}x"
            )
        else:
            print(
                f"note: {cores} core(s) — the >= 2x speedup assertion needs "
                ">= 4 cores and was skipped"
            )
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
