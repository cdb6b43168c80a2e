"""Out-of-core storage tier: spilled ingestion, mapped release, v3 serving.

Three claims of the storage tier (``repro.store``) are measured:

* **bounded-memory ingestion** — a :class:`~repro.shards.streaming.StreamingSourceBuilder`
  under a ``memory_budget`` ingests a dataset ~10x larger than the budget,
  spilling compacted runs to disk, and streams it straight into an on-disk
  encoded source (``write_store``) without the full arrays ever existing in
  memory; peak RSS of the whole process must stay **below the budget**;
* **memory-mapped release** — the release measures off ``np.memmap`` views
  of the shard files with per-shard page release, so RSS stays flat while
  every byte on disk is scanned (and, in ``--quick`` mode, the released
  values are verified bitwise against the fully in-memory pipeline);
* **one store layout** — ``ReleaseStore.put`` writes every release as one
  memory-mapped ``marginals.npy`` (v3).  Its put + cold open+first query is
  timed against the legacy v2 writer (one raw ``.npy`` per vector, kept in
  ``tests/store_files.py`` for the legacy readers' tests) at a small
  (32 B x 496) and a large (512 KiB x 15) vector size.  The full run asserts
  that v3 is no slower than v2 at either size.

Usage::

    python benchmarks/bench_oocore.py          # full run, writes
                                               # results/oocore.json
    python benchmarks/bench_oocore.py --quick  # CI smoke (no file)
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
try:  # pragma: no cover - import shim for uninstalled checkouts
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))  # for tests.store_files, the legacy v2 writer

from repro.core.engine import MarginalReleaseEngine, release_marginals  # noqa: E402
from repro.domain import Schema  # noqa: E402
from repro.queries import MarginalQuery, MarginalWorkload  # noqa: E402
from repro.serving.service import QueryService  # noqa: E402
from repro.serving.store import ReleaseStore  # noqa: E402
from repro.shards import StreamingSourceBuilder  # noqa: E402
from repro.sources import RecordSource  # noqa: E402
from repro.store import open_source, parse_memory_budget, read_manifest  # noqa: E402

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "oocore.json"

#: (bits per attribute, attributes) of the all-pairs releases timed in v3
#: and legacy v2: 4-cell (32 B) x 496 and 65536-cell (512 KiB) x 15 vectors.
LAYOUT_SIZES = {"small": (1, 32), "large": (8, 6)}


def peak_rss_mib() -> float:
    """Peak RSS of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return peak / float(1 << 20)
    return peak / 1024.0


def oocore_workload(d: int, wide_masks: int, wide_bits: int) -> MarginalWorkload:
    """Single-bit marginals plus ``wide_masks`` disjoint ``wide_bits``-bit cuboids.

    The wide cuboids make the stored release big enough that storing and
    serving it moves real data, while the single-bit queries exercise the
    batched mapped kernels.
    """
    schema = Schema.binary([f"a{i:02d}" for i in range(d)])
    masks = [1 << i for i in range(min(d, 12))]
    low = (1 << wide_bits) - 1
    for index in range(wide_masks):
        offset = (index * wide_bits) % max(1, d - wide_bits)
        masks.append(low << offset)
    unique = sorted(set(masks))
    return MarginalWorkload(
        schema, [MarginalQuery(mask, d) for mask in unique], name=f"oocore-{d}"
    )


def ingest_to_store(
    d: int, rows: int, batch_size: int, budget: str, seed: int, directory: Path
) -> dict:
    """Stream random rows through the spilling builder into an encoded source."""
    builder = StreamingSourceBuilder(dimension=d, memory_budget=budget)
    rng = np.random.default_rng(seed)
    batches = rows // batch_size
    start = time.perf_counter()
    for _ in range(batches):
        builder.add_codes(rng.integers(0, 1 << d, batch_size, dtype=np.int64))
    ingest_seconds = time.perf_counter() - start
    start = time.perf_counter()
    builder.write_store(directory)
    write_seconds = time.perf_counter() - start
    manifest = read_manifest(directory)
    return {
        "rows": batches * batch_size,
        "batch_size": batch_size,
        "distinct": int(manifest["distinct"]),
        "shards": int(manifest["shards"]),
        "data_bytes": int(manifest["data_bytes"]),
        "spilled_runs": builder.spilled_runs,
        "spilled_bytes": builder.spilled_bytes,
        "ingest_seconds": ingest_seconds,
        "write_store_seconds": write_seconds,
        "rows_per_second": (batches * batch_size) / ingest_seconds,
        "peak_rss_after_ingest_mib": peak_rss_mib(),
    }


def pair_release(bits: int, attributes: int, seed: int):
    """All 2-way cuboids over ``attributes`` groups of ``bits`` binary columns."""
    d = bits * attributes
    schema = Schema.binary([f"b{i:02d}" for i in range(d)])
    group = (1 << bits) - 1
    masks = [
        (group << (i * bits)) | (group << (j * bits))
        for i in range(attributes)
        for j in range(i + 1, attributes)
    ]
    workload = MarginalWorkload(
        schema, [MarginalQuery(mask, d) for mask in masks], name=f"pairs-{bits}x{attributes}"
    )
    codes = np.random.default_rng(seed).integers(0, 1 << d, 4000, dtype=np.int64)
    return release_marginals(
        RecordSource(codes, dimension=d), workload, 1.0, strategy="Q",
        consistency=False, rng=seed,
    )


def write_legacy_v2(store: ReleaseStore, release) -> str:
    """Store ``release`` as the pre-v3 writer did for large vectors."""
    from tests.store_files import write_legacy_release

    return write_legacy_release(store, release, "v2")


#: How each timed layout is written: ``put`` for v3, the legacy writer for v2.
WRITERS = {"v3": lambda store, release: store.put(release), "v2": write_legacy_v2}


def time_layout(release, root: Path, rounds: int, layout: str) -> dict:
    """Medians of ``rounds`` write / cold open + first query / delete rounds."""
    name = release.workload.schema.attributes[0].name
    store = ReleaseStore(root)
    write = WRITERS[layout]
    puts, opens = [], []
    for _ in range(rounds):
        start = time.perf_counter()
        release_id = write(store, release)
        puts.append(time.perf_counter() - start)
        start = time.perf_counter()
        service = QueryService(ReleaseStore(root, create=False))
        answer = service.query([name], release_id=release_id)
        opens.append(time.perf_counter() - start)
        written = store.metadata(release_id)["layout"]
        store.delete(release_id)
    return {
        "layout": written,
        "put_seconds": statistics.median(puts),
        "cold_open_query_seconds": statistics.median(opens),
        "values": answer.values.tolist(),
    }


def serving_comparison(result, base: Path, rounds: int, seed: int) -> dict:
    """The layout ``result`` is stored in; v3 and legacy v2 timed at two vector sizes."""
    store = ReleaseStore(base / "store-release")
    chosen = store.metadata(store.put(result))["layout"]
    sizes = {}
    for size, (bits, attributes) in LAYOUT_SIZES.items():
        release = pair_release(bits, attributes, seed)
        timings = {}
        for layout in WRITERS:
            timings[layout] = time_layout(release, base / f"store-{size}-{layout}", rounds, layout)
            assert timings[layout]["layout"] == layout
        # Identical answers from both layouts — the layout is pure representation.
        assert timings["v3"].pop("values") == timings["v2"].pop("values")
        timings["vector_bytes"] = int(release.marginals[0].nbytes)
        timings["vectors"] = len(release.marginals)
        sizes[size] = timings
    return {"chosen_layout": chosen, "sizes": sizes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=None, help="rows to ingest")
    parser.add_argument("--budget", default=None, help="ingest memory budget")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: tiny dataset, bitwise check vs in-memory, no results file",
    )
    args = parser.parse_args(argv)

    if args.quick:
        d, rows, batch_size = 24, 200_000, 20_000
        budget = args.budget or "1M"
        wide_masks, wide_bits = 2, 10
        serve_rounds = 3
    else:
        d, rows, batch_size = 36, 176_000_000, 1_000_000
        budget = args.budget or "256M"
        wide_masks, wide_bits = 6, 16
        serve_rounds = 12
    if args.rows is not None:
        rows = args.rows
    budget_bytes = parse_memory_budget(budget)

    base = Path(tempfile.mkdtemp(prefix="repro-oocore-"))
    try:
        baseline_rss = peak_rss_mib()
        store_dir = base / "source"
        ingest = ingest_to_store(d, rows, batch_size, budget, args.seed, store_dir)
        assert ingest["spilled_runs"] > 0, "budget never triggered a spill"

        workload = oocore_workload(d, wide_masks, wide_bits)
        engine = MarginalReleaseEngine(
            workload, "Q", consistency=False, memory_budget=budget
        )
        start = time.perf_counter()
        result = engine.release(store_dir, 1.0, rng=args.seed)
        release_seconds = time.perf_counter() - start
        rss_after_release = peak_rss_mib()

        if args.quick:
            # The whole point, in one assertion: the spilled, mapped,
            # out-of-core pipeline releases the same bytes as in memory.
            rng = np.random.default_rng(args.seed)
            codes = np.concatenate(
                [
                    rng.integers(0, 1 << d, batch_size, dtype=np.int64)
                    for _ in range(rows // batch_size)
                ]
            )
            reference = engine.release(
                RecordSource(codes, dimension=d), 1.0, rng=args.seed
            )
            for ours, exact in zip(result.marginals, reference.marginals):
                assert np.array_equal(ours, exact), "out-of-core release diverged"
            print("quick: spilled+mapped release is bitwise identical to in-memory")

        serving = serving_comparison(result, base, serve_rounds, args.seed)
        final_rss = peak_rss_mib()

        report = {
            "config": {
                "d": d,
                "memory_budget": budget,
                "memory_budget_bytes": budget_bytes,
                "seed": args.seed,
                "strategy": "Q",
                "workload_cuboids": len(workload),
            },
            "ingest": ingest,
            "release_seconds": release_seconds,
            "serving": serving,
            "rss_mib": {
                "baseline": baseline_rss,
                "after_ingest": ingest["peak_rss_after_ingest_mib"],
                "after_release": rss_after_release,
                "final": final_rss,
            },
            "dataset_to_budget_ratio": ingest["data_bytes"] / budget_bytes,
        }

        print(
            f"d={d}: {ingest['rows']} rows -> {ingest['distinct']} distinct "
            f"({ingest['data_bytes'] / (1 << 20):.0f} MiB on disk, "
            f"{ingest['shards']} shards, {ingest['spilled_runs']} spilled runs)"
        )
        print(
            f"ingest {ingest['ingest_seconds']:.1f} s "
            f"({ingest['rows_per_second'] / 1e6:.2f}M rows/s), "
            f"write_store {ingest['write_store_seconds']:.1f} s, "
            f"release {release_seconds:.1f} s"
        )
        print(
            f"rss: baseline {baseline_rss:.0f} MiB, "
            f"after ingest {ingest['peak_rss_after_ingest_mib']:.0f} MiB, "
            f"after release {rss_after_release:.0f} MiB, "
            f"final peak {final_rss:.0f} MiB "
            f"(budget {budget_bytes / (1 << 20):.0f} MiB, dataset "
            f"{report['dataset_to_budget_ratio']:.1f}x budget)"
        )
        print(f"release stored as {serving['chosen_layout']}")
        for size, timing in serving["sizes"].items():
            print(
                f"{size} ({timing['vector_bytes']} B x {timing['vectors']}): "
                "put / cold open+query "
                + ", ".join(
                    f"{layout} {timing[layout]['put_seconds'] * 1e3:.1f} / "
                    f"{timing[layout]['cold_open_query_seconds'] * 1e3:.1f} ms"
                    for layout in WRITERS
                )
            )

        if not args.quick:
            assert report["dataset_to_budget_ratio"] >= 10.0, (
                f"dataset is only {report['dataset_to_budget_ratio']:.1f}x the "
                "budget; the out-of-core claim needs >= 10x"
            )
            # Growth over the interpreter+numpy baseline: the budget bounds
            # data residency, not the ~80 MiB a bare python process costs.
            assert final_rss - baseline_rss < budget_bytes / float(1 << 20), (
                f"peak RSS grew {final_rss - baseline_rss:.0f} MiB over the "
                f"{baseline_rss:.0f} MiB baseline, exceeding the "
                f"{budget_bytes / (1 << 20):.0f} MiB budget"
            )
            for size, timing in serving["sizes"].items():
                seconds = {
                    layout: timing[layout]["put_seconds"]
                    + timing[layout]["cold_open_query_seconds"]
                    for layout in WRITERS
                }
                assert seconds["v3"] <= seconds["v2"], (
                    f"{size} vectors: v3 put + cold open+query is slower than v2 {seconds}"
                )
            RESULTS_PATH.parent.mkdir(exist_ok=True)
            RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
            print(f"wrote {RESULTS_PATH}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
