"""HTTP serving tier: concurrent-client throughput, overload shedding, drain.

The asyncio serving tier (``repro serve``) promises that putting a socket in
front of :class:`QueryService` costs protocol overhead, never correctness —
and that under overload it *sheds* rather than queues without bound.  This
benchmark releases all 2-way marginals of the synthetic NLTCS domain
(16 binary attributes, 120 cuboids), serves the store over loopback HTTP,
and measures four things:

* **in-process** — the grouped ``query_batch`` path called directly, the
  ceiling the HTTP tier is judged against;
* **http** — the same workload as ``POST /v1/query/batch`` chunks from
  concurrent keep-alive clients: queries/second plus client-observed
  p50/p99, with every response body asserted byte-for-byte equal to the
  in-process answers before any timing is believed;
* **overload** — single-query traffic from 4x more clients than a tiny
  admission queue supports: shed rate (503 + ``Retry-After``) and the p99
  of *accepted* requests versus an uncontended run of the same traffic;
* **drain** — SIGTERM-style ``drain()`` under live fire: the report's
  ``aborted`` count is the drain loss count and must be zero;
* **warm cache** — every single query sent twice to a server whose service
  keeps its answer cache: the second round is answered from the cache on
  the event loop, so its bodies must equal the in-process cached answers
  byte for byte and the micro-batcher must not flush once more.

A traced pass feeds an obs latency histogram and embeds the serving tier's
counters (``net.requests``, ``net.shed``), the ``net.queue_depth`` gauge
and the ``net.request`` span aggregates in the results file.

Usage::

    python benchmarks/bench_http_serving.py          # full run, writes
                                                     # results/http_serving.{txt,json}
    python benchmarks/bench_http_serving.py --quick  # CI smoke (no file)
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
try:  # pragma: no cover - import shim for uninstalled checkouts
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(_SRC))

from repro.analysis.reporting import format_table  # noqa: E402
from repro.core.engine import release_marginals  # noqa: E402
from repro.data import synthetic_nltcs  # noqa: E402
from repro.net.protocol import answer_payload, encode_canonical  # noqa: E402
from repro.net.server import BackgroundServer, ServerConfig  # noqa: E402
from repro.obs import tracing  # noqa: E402
from repro.queries import all_k_way  # noqa: E402
from repro.serving.service import QueryRequest, QueryService  # noqa: E402
from repro.serving.store import ReleaseStore  # noqa: E402
from repro.utils.bits import iter_submasks  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Client-observed HTTP request latency bucket edges (seconds): sub-ms
#: loopback round trips up to the queued-behind-a-batch tail.
LATENCY_EDGES = (
    1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1,
)

EPSILON = 1.0

#: Queries per ``/v1/query/batch`` request (and per in-process chunk, so the
#: two paths move identical units of work).
CHUNK_SIZE = 50


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
            fixed_names = schema.attributes_of_mask(source & ~target)
            where = {name: int(generator.integers(2)) for name in fixed_names}
            requests.append(QueryRequest(mask=target, where=where))
        else:
            requests.append(QueryRequest(mask=target))
    return requests


def _payload_of(request: QueryRequest) -> dict:
    payload: dict = {"mask": int(request.mask)}
    if request.where:
        payload["where"] = {name: int(value) for name, value in request.where.items()}
    return payload


def _chunks(items: list, size: int) -> List[list]:
    return [items[offset : offset + size] for offset in range(0, len(items), size)]


def _time_best_of(callable_, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _percentile(values: List[float], quantile: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(quantile * len(ordered)) - 1))
    return ordered[rank]


def _http_pass(
    address: Tuple[str, int],
    jobs: List[Tuple[int, str, bytes]],
    client_count: int,
) -> Tuple[float, List[Optional[Tuple[int, bytes, float]]]]:
    """POST every ``(index, path, body)`` job over keep-alive connections.

    Jobs are split round-robin across ``client_count`` threads, each owning
    one persistent connection.  Returns ``(wall_seconds, results)`` where
    ``results[index] = (status, body, request_seconds)``.
    """
    host, port = address
    results: List[Optional[Tuple[int, bytes, float]]] = [None] * len(jobs)
    assignments = [jobs[offset::client_count] for offset in range(client_count)]
    barrier = threading.Barrier(client_count + 1)
    errors: List[BaseException] = []

    def worker(assigned: List[Tuple[int, str, bytes]]) -> None:
        try:
            connection = http.client.HTTPConnection(host, port, timeout=60)
            barrier.wait(timeout=60)
            for index, path, body in assigned:
                start = time.perf_counter()
                connection.request(
                    "POST", path, body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                data = response.read()
                results[index] = (
                    response.status, data, time.perf_counter() - start
                )
            connection.close()
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)
            try:
                barrier.abort()
            except Exception:
                pass

    threads = [
        threading.Thread(target=worker, args=(assigned,))
        for assigned in assignments
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return wall, results


def _drain_under_fire(
    store: ReleaseStore, bodies: List[bytes], workers: int, client_count: int
) -> Dict[str, int]:
    """Drain a server while clients hammer it; count what each side saw."""
    service = QueryService(store, cache_size=0, batch_workers=workers)
    background = BackgroundServer(service, ServerConfig(port=0))
    host, port = background.start()
    stop = threading.Event()
    tallies: List[Dict[str, int]] = []

    def worker() -> None:
        tally = {"ok": 0, "shed_draining": 0, "disconnects": 0}
        tallies.append(tally)
        connection = http.client.HTTPConnection(host, port, timeout=30)
        position = 0
        while True:
            body = bodies[position % len(bodies)]
            position += 1
            try:
                connection.request(
                    "POST", "/v1/query/batch", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
            except (OSError, http.client.HTTPException):
                # The connection died after the drain cancelled idle
                # keep-alives; nothing accepted was lost.
                tally["disconnects"] += 1
                return
            if response.status == 200:
                tally["ok"] += 1
            elif response.status == 503:
                tally["shed_draining"] += 1
                return
            if stop.is_set() and response.status != 200:
                return

    threads = [threading.Thread(target=worker) for _ in range(client_count)]
    for thread in threads:
        thread.start()
    time.sleep(0.25)
    report = background.drain()
    stop.set()
    for thread in threads:
        thread.join(timeout=60)
    background.stop()
    combined = {
        key: sum(tally[key] for tally in tallies)
        for key in ("ok", "shed_draining", "disconnects")
    }
    combined["completed"] = report["completed"]
    combined["aborted"] = report["aborted"]
    return combined


def _warm_cache_pass(
    store: ReleaseStore, requests: List[QueryRequest], workers: int
) -> Dict[str, int]:
    """Send every query twice, one at a time, to a cache-enabled server.

    A reference service gets the identical call sequence, so its answers,
    ``cached`` flags included, are the bytes each round must return.  The
    second round only hits the cache, so the batcher must not flush.
    """
    reference = QueryService(store)
    expected = [
        encode_canonical(answer_payload(reference.query_batch([request])[0]))
        for request in requests + requests
    ]
    jobs = [
        (index, "/v1/query", json.dumps(_payload_of(request)).encode())
        for index, request in enumerate(requests)
    ]
    service = QueryService(store, batch_workers=workers)
    with BackgroundServer(service, ServerConfig(port=0)) as background:
        _, first = _http_pass(background.address, jobs, 1)
        flushes = background.server.server_stats()["batching"]["flushes"]
        _, second = _http_pass(background.address, jobs, 1)
        stats = background.server.server_stats()
    for position, (outcome, body) in enumerate(zip(first + second, expected)):
        assert outcome[0] == 200, f"warm-cache request {position} answered {outcome[0]}"
        assert outcome[1] == body, f"warm-cache request {position} diverged in-process"
    assert stats["batching"]["flushes"] == flushes, "a cached request reached the batcher"
    return {
        "queries": len(requests),
        "flushes": flushes,
        "cache_answered": stats["cache_answered"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=None, help="synthetic records")
    parser.add_argument("--queries", type=int, default=None, help="workload size")
    parser.add_argument("--reps", type=int, default=None, help="timing repetitions")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: fewer records, queries and repetitions, no results file",
    )
    args = parser.parse_args(argv)

    records = args.records if args.records is not None else (600 if args.quick else 21_576)
    query_count = args.queries if args.queries is not None else (100 if args.quick else 400)
    reps = args.reps if args.reps is not None else (1 if args.quick else 3)
    workers = 2 if args.quick else 4
    clients = 2 if args.quick else 4
    overload_clients = 4 if args.quick else 8

    dataset = synthetic_nltcs(records, rng=1982)
    with tempfile.TemporaryDirectory(prefix="bench_http_") as tmp:
        store = _build_store(Path(tmp), dataset)
        requests = _query_mix(store, dataset.schema, query_count)
        cuboids = len(store.metadata("bench")["masks"])
        request_chunks = _chunks(requests, CHUNK_SIZE)

        # The ground truth the HTTP tier must reproduce byte-for-byte: the
        # canonical encoding of the in-process grouped answers per chunk.
        reference = QueryService(store, cache_size=0)
        expected_bodies = [
            encode_canonical(
                [answer_payload(answer) for answer in reference.query_batch(chunk)]
            )
            for chunk in request_chunks
        ]
        digest = hashlib.sha256(b"".join(expected_bodies)).hexdigest()

        # In-process ceiling: the grouped path moving the same chunks.
        in_process = QueryService(store, cache_size=0, batch_workers=workers)
        in_process.query_batch(requests[:1])  # warm routing + plan caches
        in_seconds = _time_best_of(
            lambda: [in_process.query_batch(chunk) for chunk in request_chunks],
            reps,
        )
        in_chunk_latencies: List[float] = []
        for chunk in request_chunks:
            start = time.perf_counter()
            in_process.query_batch(chunk)
            in_chunk_latencies.append(time.perf_counter() - start)

        batch_jobs = [
            (index, "/v1/query/batch", json.dumps(
                [_payload_of(request) for request in chunk]
            ).encode())
            for index, chunk in enumerate(request_chunks)
        ]
        single_jobs = [
            (index, "/v1/query", json.dumps(_payload_of(request)).encode())
            for index, request in enumerate(requests)
        ]

        service = QueryService(store, cache_size=0, batch_workers=workers)
        config = ServerConfig(port=0, max_pending=4096)
        with BackgroundServer(service, config) as background:
            _http_pass(background.address, batch_jobs[:1], 1)  # warm
            http_seconds = float("inf")
            results: List[Optional[Tuple[int, bytes, float]]] = []
            for _ in range(reps):
                wall, pass_results = _http_pass(
                    background.address, batch_jobs, clients
                )
                if wall < http_seconds:
                    http_seconds, results = wall, pass_results
            # The /statsz batching block: are concurrent requests coalescing?
            http_flush = background.server.server_stats()["batching"]["mean_flush_size"]

            # Correctness gate before any timing is believed.
            for position, (outcome, expected) in enumerate(
                zip(results, expected_bodies)
            ):
                status, body, _ = outcome
                assert status == 200, f"chunk {position} answered {status}"
                assert body == expected, (
                    f"chunk {position} diverged from the in-process answers"
                )

            # One traced pass (untimed) feeds the latency histogram and the
            # serving-tier counters/spans embedded in the report.
            with tracing() as recorder:
                histogram = recorder.metrics.histogram(
                    "bench.http.request_seconds", LATENCY_EDGES
                )
                _, traced = _http_pass(background.address, batch_jobs, clients)
                for outcome in traced:
                    histogram.observe(outcome[2])

                # Overload: 4x more clients than the worker pool, against an
                # admission queue of 2 — excess single-query traffic must be
                # shed with 503s while accepted latency stays bounded.
                overload_service = QueryService(
                    store, cache_size=0, batch_workers=2
                )
                overload_config = ServerConfig(port=0, max_pending=2)
                with BackgroundServer(
                    overload_service, overload_config
                ) as overloaded:
                    _, uncontended = _http_pass(
                        overloaded.address, single_jobs, 1
                    )
                    overload_seconds, contended = _http_pass(
                        overloaded.address, single_jobs, overload_clients
                    )
                    overload_stats = overloaded.server.server_stats()
                overload_flush = overload_stats["batching"]["mean_flush_size"]
                statuses = {outcome[0] for outcome in contended}
                assert statuses <= {200, 503}, f"unexpected statuses {statuses}"
                accepted = [o[2] for o in contended if o[0] == 200]
                shed = sum(1 for o in contended if o[0] == 503)
                uncontended_latencies = [
                    o[2] for o in uncontended if o[0] == 200
                ]
            metrics = recorder.metrics.snapshot()

        drain = _drain_under_fire(
            store,
            [job[2] for job in batch_jobs],
            workers,
            clients,
        )
        warm_cache = _warm_cache_pass(store, requests, workers)

    http_qps = query_count / http_seconds
    in_qps = query_count / in_seconds
    latencies = [outcome[2] for outcome in results]
    uncontended_p99 = _percentile(uncontended_latencies, 0.99)
    accepted_p99 = _percentile(accepted, 0.99)

    report = {
        "config": {
            "records": records,
            "query_count": query_count,
            "repetitions": reps,
            "domain_bits": dataset.schema.total_bits,
            "released_cuboids": cuboids,
            "strategy": "Q",
            "chunk_size": CHUNK_SIZE,
            "workers": workers,
            "clients": clients,
            "overload_clients": overload_clients,
        },
        "http_equals_in_process_sha256": digest,
        "in_process": {
            "qps": in_qps,
            "seconds": in_seconds,
            "chunk_p50_ms": round(_percentile(in_chunk_latencies, 0.50) * 1e3, 3),
            "chunk_p99_ms": round(_percentile(in_chunk_latencies, 0.99) * 1e3, 3),
        },
        "http": {
            "qps": http_qps,
            "seconds": http_seconds,
            "ratio_vs_in_process": http_qps / in_qps,
            "request_p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
            "request_p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
            "mean_flush_size": http_flush,
        },
        "overload": {
            "total": len(single_jobs),
            "accepted": len(accepted),
            "shed": shed,
            "shed_rate": shed / len(single_jobs),
            "shed_by_reason": overload_stats["admission"]["shed_by_reason"],
            "requests_per_s": len(single_jobs) / overload_seconds,
            "mean_flush_size": overload_flush,
            "max_pending": 2,
            "uncontended_p99_ms": round(uncontended_p99 * 1e3, 3),
            "accepted_p99_ms": round(accepted_p99 * 1e3, 3),
            "accepted_p99_vs_uncontended": (
                accepted_p99 / uncontended_p99 if uncontended_p99 else 0.0
            ),
        },
        "drain": drain,
        "warm_cache": warm_cache,
        "observability": {
            "counters": metrics["counters"],
            "gauges": metrics["gauges"],
            "request_latency_histogram": metrics["histograms"][
                "bench.http.request_seconds"
            ],
            "span_durations": recorder.durations_by_name(),
        },
    }

    rows = [
        [
            "in-process", in_qps,
            report["in_process"]["chunk_p50_ms"],
            report["in_process"]["chunk_p99_ms"], 1.0, "-",
        ],
        [
            f"http x{clients}", http_qps,
            report["http"]["request_p50_ms"],
            report["http"]["request_p99_ms"],
            report["http"]["ratio_vs_in_process"],
            http_flush,
        ],
    ]
    table = format_table(
        ["path", "queries/s", "p50 ms", "p99 ms", "vs in-process", "mean flush"],
        rows,
        float_format="{:.4g}",
    )
    print(table)
    print(
        f"overload x{overload_clients}: {report['overload']['requests_per_s']:.4g} requests/s, "
        f"mean flush {overload_flush:.3g}, shed {shed}/{len(single_jobs)} "
        f"({report['overload']['shed_rate']:.0%}), accepted p99 "
        f"{report['overload']['accepted_p99_ms']:.2f} ms vs uncontended "
        f"{report['overload']['uncontended_p99_ms']:.2f} ms"
    )
    print(
        f"drain under fire: {drain['ok']} answered, "
        f"{drain['completed']} in-flight completed, {drain['aborted']} aborted"
    )
    print(
        f"warm cache: {warm_cache['queries']} queries sent twice, bodies "
        f"byte-identical, {warm_cache['cache_answered']} answered on the loop, "
        f"{warm_cache['flushes']} flushes (all in the first round)"
    )

    # The drain loss count: accepted requests must never be abandoned.
    assert drain["aborted"] == 0, f"drain aborted {drain['aborted']} requests"
    if not args.quick:
        # Acceptance: protocol + event loop + admission may cost at most 4x
        # against the in-process grouped path on the same chunked workload.
        ratio = report["http"]["ratio_vs_in_process"]
        assert ratio >= 0.25, f"http path only {ratio:.2f}x of in-process"
        # Overload must shed (not queue without bound), and what it accepts
        # must stay fast: p99 within 3x of the uncontended run.
        assert shed > 0, "4x-capacity overload never shed"
        p99_ratio = report["overload"]["accepted_p99_vs_uncontended"]
        assert p99_ratio <= 3.0, (
            f"accepted p99 degraded {p99_ratio:.1f}x under overload"
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        json_path = RESULTS_DIR / "http_serving.json"
        json_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        (RESULTS_DIR / "http_serving.txt").write_text(table + "\n")
        print(f"wrote {json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
