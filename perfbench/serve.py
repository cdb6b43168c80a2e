"""The serving workloads, ``serve-point`` and ``serve-batch``: the read side
of the release store.

Set-up builds a store from a ``release-fourier``-shaped release (synthetic
NLTCS, all 120 two-way marginals, strategy F, epsilon 1) and starts
``repro serve --port 0 --no-obs`` on it as a subprocess, with every other
flag at its default.  Each workload sends one kind of traffic, so neither
kind's traffic or cache state leaks into the other's figures:

* ``point`` — single ``/v1/query`` requests, Zipf(1.1) popularity over the
  universe of every distinct query the store answers (larger than the
  1024-entry answer cache, so the hit ratio is strictly between 0 and 1);
* ``batch`` — 50-query ``/v1/query/batch`` requests cycling one fixed
  permutation of the same universe, so LRU hits stay near 0.

The traffic is a closed loop of keep-alive connections (2 for point, 1 for
batch traffic) sending pre-encoded request bytes.  Every response body must equal, byte for byte,
``encode_canonical`` of the in-process answers (the ``cached`` flag is the
one field that may legitimately differ).

The traced run times the release that builds the served store layer by
layer (:func:`release.trace_layers`), then splits the request time into
parse, answer, encode and edge.  The release workloads' traced runs call
:func:`read_side_of` for the same split over the store they wrote.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from common import (
    CHILD_PRELUDE,
    ROOT,
    BenchError,
    Outcome,
    child_env,
    cpu_times,
    median,
    peak_rss_mib,
    quantile,
    repeat_setup,
)

EPSILON = 1.0
RELEASE_ID = "bench"
#: Keep-alive connections per kind of traffic.  Batch traffic uses one:
#: with two, flushes mixed 50- and 100-query batches in proportions that
#: followed the host's timing, and the figures spread twice as wide.
CONNECTIONS = {"point": 2, "batch": 1}
BATCH_SIZE = 50
ZIPF_EXPONENT = 1.1
#: Untimed traffic before each phase, so the phase starts from a warm loop.
WARMUP_S = 1.0
#: Width of the windows whose median request count gives the throughput.
RATE_WINDOW_S = 0.5
#: Grace the server gets to drain after SIGTERM before it is killed.
DRAIN_GRACE_S = 20.0

Check = Callable[[bytes], bool]


# ------------------------------------------------------------------ queries


def query_universe(schema, masks) -> List[dict]:
    """Every distinct sub-marginal and slice query the released cuboids cover.

    For each released cuboid: every sub-marginal, and every slice that fixes
    a non-empty subset of the remaining attributes to each value.
    Duplicates across cuboids are dropped; the order is deterministic.
    """
    from repro.utils.bits import iter_submasks

    cardinality = {attribute.name: attribute.cardinality for attribute in schema.attributes}
    payloads: List[dict] = []
    seen = set()
    for source in sorted(int(mask) for mask in masks):
        for target in sorted(iter_submasks(source)):
            if (target, ()) not in seen:
                seen.add((target, ()))
                payloads.append({"mask": target})
            rest = source & ~target
            for fixed in sorted(iter_submasks(rest, include_zero=False)):
                names = schema.attributes_of_mask(fixed)
                for values in itertools.product(*(range(cardinality[n]) for n in names)):
                    where = tuple(zip(names, values))
                    if (target, where) in seen:
                        continue
                    seen.add((target, where))
                    payloads.append({"mask": target, "where": dict(where)})
    return payloads


def http_request(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


@dataclass
class Corpus:
    """Request bodies and the exact response bytes each must produce."""

    bodies: List[bytes]
    expected: List[bytes]
    expected_cached: List[bytes]
    permutation: List[int]
    chunk_count: int

    @classmethod
    def build(cls, store, schema, release_id: str, seed: int) -> "Corpus":
        from repro.net.protocol import answer_payload, encode_canonical, parse_query_payload
        from repro.serving.service import QueryService

        payloads = query_universe(schema, store.metadata(release_id)["masks"])
        requests = [parse_query_payload(payload)[0] for payload in payloads]
        answers = QueryService(store, cache_size=0).query_batch(requests)
        expected, expected_cached = [], []
        for answer in answers:
            payload = answer_payload(answer)
            expected.append(encode_canonical(payload))
            expected_cached.append(encode_canonical({**payload, "cached": True}))
        permutation = [int(i) for i in np.random.default_rng(seed).permutation(len(payloads))]
        return cls(
            bodies=[encode_canonical(payload) for payload in payloads],
            expected=expected,
            expected_cached=expected_cached,
            permutation=permutation,
            chunk_count=len(payloads) // math.gcd(len(payloads), BATCH_SIZE),
        )

    def zipf_stream(self, seed: int, stream: int, length: int) -> np.ndarray:
        """Query indices with Zipf popularity; rank order is a seeded shuffle."""
        ranks = np.arange(1, len(self.bodies) + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_EXPONENT
        generator = np.random.default_rng([seed, stream])
        drawn = generator.choice(len(ranks), size=length, p=weights / weights.sum())
        return np.asarray(self.permutation, dtype=np.int64)[drawn]

    def chunk(self, index: int) -> List[int]:
        start = (index % self.chunk_count) * BATCH_SIZE
        size = len(self.permutation)
        return [self.permutation[(start + j) % size] for j in range(BATCH_SIZE)]

    def chunk_body(self, members: List[int]) -> bytes:
        return b"[" + b",".join(self.bodies[i] for i in members) + b"]"

    def point_check(self, index: int, body: bytes) -> bool:
        return body == self.expected[index] or body == self.expected_cached[index]

    def batch_check(self, members: List[int], body: bytes) -> bool:
        if body == b"[" + b",".join(self.expected[i] for i in members) + b"]":
            return True
        # A stray LRU hit flips one answer's ``cached`` flag: compare the rest.
        from repro.net.protocol import encode_canonical

        try:
            answers = json.loads(body)
        except ValueError:
            return False
        if not isinstance(answers, list) or len(answers) != len(members):
            return False
        for answer, index in zip(answers, members):
            if not isinstance(answer, dict):
                return False
            if encode_canonical({**answer, "cached": False}) != self.expected[index]:
                return False
        return True


# ------------------------------------------------------------------- server


class ServerProcess:
    """``repro serve`` as a subprocess that cannot outlive this process.

    The child asks the kernel to SIGTERM it when its parent dies
    (``PR_SET_PDEATHSIG``), so even a SIGKILLed benchmark leaves no orphan
    server behind to skew later runs.  :meth:`stop` SIGTERMs, waits for the
    graceful drain, kills after a grace period, and parses the drain report.
    """

    _LAUNCH = CHILD_PRELUDE + (
        "import runpy\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    )

    def __init__(self, store_root: Path):
        self.store_root = store_root
        self.process: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self.lines: List[str] = []
        self._reader: Optional[threading.Thread] = None
        self._bound = threading.Event()
        self.peak_rss_mib = 0.0
        self.aborted: Optional[int] = None
        self.returncode: Optional[int] = None

    def start(self, timeout: float = 60.0) -> Tuple[str, int]:
        self.process = subprocess.Popen(
            [sys.executable, "-c", self._LAUNCH, "serve", "--store", str(self.store_root),
             "--port", "0", "--no-obs"],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._bound.wait(timeout):
            raise BenchError("server did not report its address:\n" + "".join(self.lines))
        deadline = time.monotonic() + timeout
        while self.get("/readyz")[0] != 200:
            if time.monotonic() > deadline:
                raise BenchError("server never became ready")
            time.sleep(0.01)
        return self.address

    def _read_stderr(self) -> None:
        assert self.process is not None and self.process.stderr is not None
        for line in self.process.stderr:
            self.lines.append(line)
            match = re.search(r"serving : http://([^:\s]+):(\d+)", line)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                self._bound.set()
        self._bound.set()  # EOF: let start() fail fast instead of waiting

    def get(self, path: str) -> Tuple[int, bytes]:
        if self.process is None or self.process.poll() is not None:
            raise BenchError("server exited:\n" + "".join(self.lines))
        connection = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def server_stats(self) -> Dict[str, object]:
        status, body = self.get("/statsz")
        if status != 200:
            raise BenchError(f"/statsz answered {status}")
        return json.loads(body)["server"]

    def stop(self) -> None:
        """SIGTERM, wait for the drain, kill after the grace period."""
        process = self.process
        if process is None or self.returncode is not None:
            return
        if process.poll() is None:
            try:
                self.peak_rss_mib = peak_rss_mib(process.pid)
            except (OSError, BenchError):
                pass
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=DRAIN_GRACE_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.returncode = process.returncode
        if self._reader is not None:
            self._reader.join(timeout=10)
        for line in self.lines:
            match = re.search(r"drained : (\d+) completed, (\d+) aborted", line)
            if match:
                self.aborted = int(match.group(2))

    @property
    def drained_cleanly(self) -> bool:
        return self.returncode == 0 and self.aborted == 0


# ------------------------------------------------------------------- client


class Connection:
    """One keep-alive HTTP/1.1 connection sending pre-encoded requests."""

    def __init__(self, address: Tuple[str, int]):
        self._address = address
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self._address, timeout=30)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock, self._buffer = sock, b""
        return self._sock

    def exchange(self, request: bytes) -> Tuple[int, bytes]:
        sock = self._connect()
        try:
            sock.sendall(request)
            buffer = self._buffer
            while (end := buffer.find(b"\r\n\r\n")) < 0:
                buffer += self._recv(sock)
            head = buffer[:end].split(b"\r\n")
            status = int(head[0].split(b" ", 2)[1])
            length = 0
            close = False
            for line in head[1:]:
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection":
                    close = value.strip().lower() == b"close"
            body_end = end + 4 + length
            while len(buffer) < body_end:
                buffer += self._recv(sock)
            self._buffer = buffer[body_end:]
            if close:
                self.close()
            return status, buffer[end + 4 : body_end]
        except (OSError, ValueError, IndexError):
            self.close()
            raise

    @staticmethod
    def _recv(sock: socket.socket) -> bytes:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


@dataclass
class PhaseResult:
    latencies: List[float] = field(default_factory=list)
    failed: int = 0
    #: Successful requests per :data:`RATE_WINDOW_S` window.
    window_counts: List[int] = field(default_factory=list)

    def ops_per_s(self) -> float:
        """Successful requests per second in the median window, so that a
        stall of the host in one window does not move the whole figure."""
        return median(self.window_counts) / RATE_WINDOW_S


def run_phase(
    address: Tuple[str, int],
    phase: str,
    next_job: Callable[[int], Tuple[bytes, Check]],
    seconds: float,
) -> PhaseResult:
    """A closed loop of the phase's :data:`CONNECTIONS`: warm up, then measure.

    ``next_job(client)`` returns the request bytes and the check its
    response body must pass.  Refused (non-200), failed or mismatching
    responses count as failed ops with infinite latency.
    """
    connections = CONNECTIONS[phase]
    latencies: List[List[float]] = [[] for _ in range(connections)]
    completions: List[List[float]] = [[] for _ in range(connections)]
    errors: List[BaseException] = []
    barrier = threading.Barrier(connections + 1)
    clock = time.perf_counter
    bounds: List[float] = []

    def client(position: int) -> None:
        connection = Connection(address)
        reported = False
        try:
            barrier.wait(timeout=60)
            warm_until, stop_at = bounds
            while True:
                began = clock()
                if began >= stop_at:
                    break
                request, check = next_job(position)
                try:
                    status, body = connection.exchange(request)
                    ok = status == 200 and check(body)
                except (OSError, ValueError, IndexError) as error:
                    if not reported:
                        print(f"request failed: {error}", file=sys.stderr)
                        reported = True
                    ok = False
                if began < warm_until:
                    continue
                done = clock()
                latencies[position].append(done - began if ok else math.inf)
                if ok:
                    completions[position].append(done)
        except BaseException as error:  # noqa: BLE001 - re-raised by the caller
            errors.append(error)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True) for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    now = clock()
    bounds.extend((now + WARMUP_S, now + WARMUP_S + seconds))
    barrier.wait(timeout=60)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    result = PhaseResult(window_counts=[0] * max(1, round(seconds / RATE_WINDOW_S)))
    for position in range(connections):
        result.latencies.extend(latencies[position])
        result.failed += latencies[position].count(math.inf)
        for done in completions[position]:
            slot = int((done - bounds[0]) / RATE_WINDOW_S)
            if slot < len(result.window_counts):
                result.window_counts[slot] += 1
    return result


def point_jobs(corpus: Corpus, seed: int) -> Callable[[int], Tuple[bytes, Check]]:
    requests = [http_request("/v1/query", body) for body in corpus.bodies]
    checks = [
        (lambda body, index=index: corpus.point_check(index, body))
        for index in range(len(corpus.bodies))
    ]
    connections = CONNECTIONS["point"]
    streams = [corpus.zipf_stream(seed, client, 1 << 18) for client in range(connections)]
    cursors = [0] * connections

    def next_job(client: int) -> Tuple[bytes, Check]:
        stream = streams[client]
        index = int(stream[cursors[client] % len(stream)])
        cursors[client] += 1
        return requests[index], checks[index]

    return next_job


def batch_jobs(corpus: Corpus, _seed: int) -> Callable[[int], Tuple[bytes, Check]]:
    chunks = [corpus.chunk(index) for index in range(corpus.chunk_count)]
    requests = [http_request("/v1/query/batch", corpus.chunk_body(c)) for c in chunks]
    checks = [(lambda body, c=c: corpus.batch_check(c, body)) for c in chunks]
    # One shared cursor: all clients walk a single cycle of the permutation.
    cursor = itertools.count()

    def next_job(_client: int) -> Tuple[bytes, Check]:
        index = next(cursor) % len(chunks)
        return requests[index], checks[index]

    return next_job


JOBS = {"point": point_jobs, "batch": batch_jobs}


# ------------------------------------------------------------------- set-up


def build_store(root: Path, seed: int):
    """The release-fourier-shaped release, persisted as release ``bench``."""
    from repro.core.engine import release_marginals
    from repro.data import synthetic_nltcs
    from repro.queries import all_k_way
    from repro.serving.store import ReleaseStore

    dataset = synthetic_nltcs(21_576, rng=seed)
    release = release_marginals(
        dataset, all_k_way(dataset.schema, 2), EPSILON, strategy="F", rng=seed + 1
    )
    store = ReleaseStore(root)
    store.put(release, release_id=RELEASE_ID)
    return store, dataset.schema


def setup_server(root: Path, seed: int, servers: List[ServerProcess]) -> Tuple[float, object, object]:
    """Store + running server + one answered query; returns the seconds taken."""
    start = time.perf_counter()
    store, schema = build_store(root, seed)
    server = ServerProcess(root)
    servers.append(server)
    connection = Connection(server.start())
    try:
        status, _body = connection.exchange(http_request("/v1/query", b'{"mask":0}'))
    finally:
        connection.close()
    if status != 200:
        raise BenchError(f"first query answered {status}")
    return time.perf_counter() - start, store, schema


def server_counts(stats: Dict[str, object], outcome: Outcome) -> None:
    batching = stats["batching"]
    service = stats["service"]
    outcome.metric("net.mean_flush_size", batching["mean_flush_size"], "count")
    outcome.metric("net.flushes", batching["flushes"], "count")
    outcome.metric("net.shed", stats["admission"]["shed"], "count")
    outcome.metric("serving.cache_hit_ratio", service["cache"]["hit_rate"], "ratio")
    batches = service["batches"]
    outcome.metric(
        "serving.groups_per_batch",
        service["batch_groups"] / batches if batches else 0.0,
        "count",
    )


# ------------------------------------------------------------------- traced


def in_process_breakdown(
    corpus: Corpus, store_root: Path, phase: str, seed: int, seconds: float, outcome: Outcome
) -> Dict[str, float]:
    """Parse, answer and encode timed apart on the phase's request stream.

    The service runs with the server's defaults: a 1024-entry cache and one
    batch worker per core.  Returns the medians in microseconds.
    """
    from repro.net.protocol import (
        answer_payload,
        encode_batch,
        encode_canonical,
        parse_batch_body,
        parse_query_payload,
        parse_single_body,
    )
    from repro.serving.service import QueryService
    from repro.serving.store import ReleaseStore

    def open_service():
        return QueryService(
            ReleaseStore(store_root, create=False), cache_size=1024,
            batch_workers=os.cpu_count(),
        )

    clock = time.perf_counter
    first = parse_query_payload(parse_single_body(corpus.bodies[0]))[0]
    opens: List[float] = []
    stop_at = clock() + min(1.0, seconds / 4)
    while clock() < stop_at or len(opens) < 3:
        t = clock()
        open_service().query_batch([first])
        opens.append(clock() - t)
    outcome.metric("store.open_ms", median(opens) * 1e3, "ms", len(opens))

    point_stream = corpus.zipf_stream(seed, 0, 1 << 18)
    chunks = [corpus.chunk(index) for index in range(corpus.chunk_count)]
    chunk_bodies = [corpus.chunk_body(c) for c in chunks]
    service = open_service()
    timings: Dict[str, List[float]] = {"parse": [], "answer": [], "encode": []}
    failed = 0
    stop_at = clock() + seconds
    position = 0
    while clock() < stop_at:
        if phase == "point":
            index = int(point_stream[position % len(point_stream)])
            t0 = clock()
            query, release_id = parse_query_payload(parse_single_body(corpus.bodies[index]))
            t1 = clock()
            answers = service.query_batch([query], release_id=release_id)
            t2 = clock()
            body = encode_canonical(answer_payload(answers[0]))
            t3 = clock()
            ok = corpus.point_check(index, body)
        else:
            members = chunks[position % len(chunks)]
            t0 = clock()
            objects, ndjson = parse_batch_body(
                chunk_bodies[position % len(chunks)], "application/json"
            )
            queries = [parse_query_payload(obj)[0] for obj in objects]
            t1 = clock()
            answers = service.query_batch(queries)
            t2 = clock()
            body, _content_type = encode_batch(
                [answer_payload(answer) for answer in answers], ndjson
            )
            t3 = clock()
            ok = corpus.batch_check(members, body)
        position += 1
        failed += not ok
        timings["parse"].append(t1 - t0)
        timings["answer"].append(t2 - t1)
        timings["encode"].append(t3 - t2)
    outcome.count(position, failed)
    medians = {stage: median(values) * 1e6 for stage, values in timings.items()}
    for stage, metric in (("parse", "net.parse_us"), ("answer", "serving.answer_us"),
                          ("encode", "net.encode_us")):
        outcome.metric(metric, medians[stage], "us", position)
    return medians


def traced_read_side(
    server: ServerProcess, corpus: Corpus, phase: str, seed: int, seconds: float,
    outcome: Outcome,
) -> List[float]:
    """Half of ``seconds`` of HTTP traffic, then half in process; the edge
    is the client p50 minus parse, answer and encode.  Stops ``server`` and
    returns the client latencies."""
    result = run_phase(server.address, phase, JOBS[phase](corpus, seed), seconds / 2)
    outcome.count(len(result.latencies), result.failed)
    server_counts(server.server_stats(), outcome)
    server.stop()
    medians = in_process_breakdown(
        corpus, server.store_root, phase, seed, seconds / 2, outcome
    )
    p50_us = quantile(result.latencies, 0.5) * 1e6
    outcome.metric("net.edge_us", p50_us - sum(medians.values()), "us")
    return result.latencies


def read_side_of(store, release_id: str, schema, seed: int, seconds: float, outcome: Outcome) -> None:
    """The traced point phase over a store a release workload wrote."""
    server = ServerProcess(store.root)
    try:
        server.start()
        corpus = Corpus.build(store, schema, release_id, seed)
        traced_read_side(server, corpus, "point", seed, seconds, outcome)
    finally:
        server.stop()
    outcome.checks["drain_aborted_zero"] = server.drained_cleanly


# --------------------------------------------------------------------- run

#: Share of a traced run spent on the layered release of the served store.
RELEASE_SHARE = 0.2


def run(phase: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    servers: List[ServerProcess] = []
    try:
        built = []

        def setup(position: int) -> float:
            elapsed, store, schema = setup_server(work / f"store-{position}", seed, servers)
            if position == 0:
                built.extend((store, schema))
            else:
                # Only the first server takes traffic; the rest time set-up.
                servers[-1].stop()
            return elapsed

        setups = repeat_setup(setup)
        server = servers[0]
        corpus = Corpus.build(*built, RELEASE_ID, seed)

        steal_start = cpu_times()
        if not trace:
            result = run_phase(server.address, phase, JOBS[phase](corpus, seed), seconds)
            server.stop()
            outcome.steal_window = (steal_start, cpu_times())
            outcome.count(len(result.latencies), result.failed)
            n = len(result.latencies)
            outcome.metric("setup_s", median(setups), "s", len(setups))
            outcome.metric("op_p50_ms", quantile(result.latencies, 0.5) * 1e3, "ms", n)
            outcome.metric("op_p90_ms", quantile(result.latencies, 0.9) * 1e3, "ms", n)
            outcome.metric("ops_per_s", result.ops_per_s(), "1/s", n)
            outcome.metric("peak_rss_mib", server.peak_rss_mib, "MiB")
        else:
            import release

            bench = release.ReleaseBench("release-fourier", seed, work / "release")
            bench.setup()
            release.trace_layers(bench, seconds * RELEASE_SHARE, outcome)
            latencies = traced_read_side(
                server, corpus, phase, seed, seconds * (1 - RELEASE_SHARE), outcome
            )
            outcome.steal_window = (steal_start, cpu_times())
            outcome.metric(
                "traced.op_p50_ms", quantile(latencies, 0.5) * 1e3, "ms", len(latencies)
            )
    finally:
        for server in servers:
            server.stop()
    outcome.checks["drain_aborted_zero"] = all(s.drained_cleanly for s in servers)
    return outcome
