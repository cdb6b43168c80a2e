"""The hardened asyncio HTTP server over :class:`QueryService`.

Request lifecycle, in order, with the failure mode each stage owns:

1. **parse** (:func:`repro.net.http.read_request`) — malformed or torn
   traffic dies here with a 4xx; a truncated body can never reach the
   aggregation path;
2. **deadline** — ``X-Deadline-Ms`` declares the client's budget; the
   server refuses work it cannot finish in time (504 once expired, and
   expired requests are dropped *before* aggregation, not after);
3. **breaker** (:class:`~repro.net.breaker.ReleaseBreaker`) — requests
   pinned to a repeatedly-failing release get an instant 503 instead of a
   worker slot;
4. **admission** (:class:`~repro.net.admission.AdmissionController`) —
   bounded pending queue and deadline-feasibility shedding with honest
   ``Retry-After`` hints;
5. **micro-batching** (:class:`~repro.net.batching.MicroBatcher`) —
   admitted queries coalesce into grouped
   :meth:`~repro.serving.service.QueryService.query_batch` calls on a
   thread pool sized to the service's batch workers;
6. **drain** — on SIGTERM the listener closes, queued batches flush, and
   in-flight requests get a bounded grace period to finish; the drain
   report says exactly how many completed and how many were abandoned.

The ``net.handler`` fault site fires between admission and batching, so
fault plans can prove that a crash *inside* the server leaves a clean 500
and a released admission slot — never a stuck queue or a partial answer.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import (
    CorruptMarginalError,
    DeadlineExceededError,
    NetError,
    ReproError,
    ServingError,
    TransientFault,
)
from repro.net.admission import AdmissionController
from repro.net.batching import MicroBatcher
from repro.net.breaker import ReleaseBreaker
from repro.net.http import (
    ProtocolError,
    Request,
    error_body,
    read_request,
    render_response,
    retry_after_headers,
)
from repro.net.protocol import (
    answer_payload,
    encode_batch,
    encode_canonical,
    parse_batch_body,
    parse_query_payload,
    parse_single_body,
)
from repro.obs import runtime as _obs
from repro.obs.export import to_payload
from repro.resilience import faults as _faults
from repro.serving.planner import ServedAnswer
from repro.serving.service import QueryRequest, QueryService

#: Paths the server routes, with their allowed methods (for 405 Allow).
ROUTES: Dict[str, Tuple[str, ...]] = {
    "/healthz": ("GET",),
    "/readyz": ("GET",),
    "/statsz": ("GET",),
    "/v1/query": ("POST",),
    "/v1/query/batch": ("POST",),
}

_Headers = Tuple[Tuple[str, str], ...]
_Response = Tuple[int, bytes, str, _Headers]


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of the serving edge; defaults favour safety over qps."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: Optional[int] = None  # None -> the service's batch worker count
    max_pending: int = 1024
    default_deadline_ms: Optional[float] = None
    max_deadline_ms: float = 600_000.0
    max_batch: int = 512
    max_body_bytes: int = 8 << 20
    drain_grace_s: float = 10.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise NetError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.max_batch < 1:
            raise NetError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.drain_grace_s < 0:
            raise NetError(f"drain_grace_s must be >= 0, got {self.drain_grace_s}")
        if self.workers is not None and self.workers < 1:
            raise NetError(f"workers must be >= 1, got {self.workers}")


class QueryServer:
    """One asyncio HTTP server bound to one :class:`QueryService`."""

    def __init__(self, service: QueryService, config: Optional[ServerConfig] = None):
        self._service = service
        self._config = config or ServerConfig()
        workers = self._config.workers or service.batch_workers
        self.workers = workers
        self._admission = AdmissionController(self._config.max_pending, workers)
        self._breaker = ReleaseBreaker(
            threshold=self._config.breaker_threshold,
            cooldown_s=self._config.breaker_cooldown_s,
        )
        self._batcher = MicroBatcher(self._run_batch, max_batch=self._config.max_batch)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self._inflight = 0
        self._connections: set = set()
        self._idle = asyncio.Event()
        self._idle.set()
        self._requests = 0
        self._accepted = 0
        self._drain_report: Optional[Dict[str, int]] = None
        self.host = self._config.host
        self.port = self._config.port

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> Tuple[str, int]:
        """Bind the listener; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise NetError("server is already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-net"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self._config.host, self._config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def drain(self) -> Dict[str, int]:
        """Graceful shutdown: stop accepting, flush, bounded wait, report.

        Returns ``{"completed": n, "aborted": m}`` — ``aborted`` counts
        accepted requests still unfinished when the grace period ran out.
        A second call returns the first call's report.
        """
        if self._drain_report is not None:
            return self._drain_report
        self._draining = True
        inflight_at_drain = self._inflight
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._batcher.drain()
        if self._inflight:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self._config.drain_grace_s
                )
        aborted = self._inflight
        self._drain_report = {
            "completed": inflight_at_drain - aborted,
            "aborted": aborted,
        }
        # Idle keep-alive connections are parked in read_request(); nothing
        # in-flight is left on them, so cancel their handler tasks outright.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        return self._drain_report

    # ---------------------------------------------------------- connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self._config.max_body_bytes
                    )
                except ProtocolError as error:
                    if _obs.ENABLED:
                        _obs.counter_inc("net.protocol_errors")
                    await self._send(
                        writer,
                        (error.status, error_body(error.status, str(error)),
                         "application/json", ()),
                        keep_alive=not error.close_connection,
                    )
                    if error.close_connection:
                        break
                    continue
                if request is None:
                    break
                self._requests += 1
                keep_alive = request.keep_alive and not self._draining
                response = await self._dispatch(request)
                await self._send(writer, response, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _send(
        self, writer: asyncio.StreamWriter, response: _Response, *, keep_alive: bool
    ) -> None:
        status, body, content_type, extra = response
        writer.write(
            render_response(
                status,
                body,
                content_type=content_type,
                extra_headers=extra,
                keep_alive=keep_alive,
            )
        )
        with contextlib.suppress(ConnectionError):
            await writer.drain()

    # ------------------------------------------------------------- routing

    async def _dispatch(self, request: Request) -> _Response:
        allowed = ROUTES.get(request.path)
        if allowed is None:
            return (404, error_body(404, f"no route for {request.path}"),
                    "application/json", ())
        if request.method not in allowed:
            return (
                405,
                error_body(405, f"{request.method} is not allowed on {request.path}"),
                "application/json",
                (("Allow", ", ".join(allowed)),),
            )
        if request.path == "/healthz":
            return self._healthz()
        if request.path == "/readyz":
            return self._readyz()
        if request.path == "/statsz":
            return self._statsz()
        if not _obs.ENABLED:
            return await self._handle_query(
                request, batch=request.path.endswith("/batch")
            )
        _obs.counter_inc("net.requests")
        with _obs.trace_span("net.request", method=request.method, path=request.path):
            return await self._handle_query(
                request, batch=request.path.endswith("/batch")
            )

    def _healthz(self) -> _Response:
        body = encode_canonical({"ok": True, "draining": self._draining})
        return 200, body, "application/json", ()

    def _readyz(self) -> _Response:
        """Ready iff accepting traffic at full fidelity.

        Draining, a degraded service health report, or an open breaker all
        flip readiness to 503 — load balancers should steer elsewhere —
        while ``/healthz`` stays 200 because the process itself is fine.
        """
        health = self._service.health()
        open_breakers = self._breaker.open_releases()
        ready = (not self._draining) and bool(health["ok"]) and not open_breakers
        payload = {
            "ready": ready,
            "draining": self._draining,
            "health": health,
            "open_breakers": {
                release_id: round(remaining, 3)
                for release_id, remaining in open_breakers.items()
            },
        }
        body = encode_canonical(payload)
        return (200 if ready else 503), body, "application/json", ()

    def _statsz(self) -> _Response:
        """The obs trace payload (schema ``repro.obs/v1``) plus server state."""
        recorder = _obs.recorder()
        if _obs.ENABLED and recorder is not None:
            payload = to_payload(recorder)
        else:
            from repro.obs.tracer import Recorder

            payload = to_payload(Recorder())
        payload["server"] = self.server_stats()
        return 200, json.dumps(payload, sort_keys=True).encode("utf-8"), "application/json", ()

    def server_stats(self) -> Dict[str, object]:
        """Edge counters: admission, batching, breakers, drain state."""
        return {
            "requests": self._requests,
            "accepted": self._accepted,
            "inflight": self._inflight,
            "draining": self._draining,
            "admission": self._admission.stats(),
            "batching": self._batcher.stats(),
            "breaker": self._breaker.stats(),
            "service": self._service.stats(),
        }

    # --------------------------------------------------------------- query

    def _deadline_of(
        self, request: Request, loop: asyncio.AbstractEventLoop
    ) -> Tuple[Optional[float], Optional[float]]:
        """``(absolute deadline on the loop clock, budget seconds)``."""
        budget_ms = request.header_float("x-deadline-ms")
        if budget_ms is None:
            budget_ms = self._config.default_deadline_ms
        if budget_ms is None:
            return None, None
        if budget_ms <= 0:
            raise ProtocolError(400, f"X-Deadline-Ms must be positive, got {budget_ms}")
        budget_ms = min(budget_ms, self._config.max_deadline_ms)
        budget_s = budget_ms / 1000.0
        return loop.time() + budget_s, budget_s

    def _parse_queries(
        self, request: Request, batch: bool
    ) -> Tuple[List[QueryRequest], Optional[str], bool]:
        """Parse and validate the payload into ``(queries, pin, ndjson)``."""
        if batch:
            objs, ndjson = parse_batch_body(
                request.body, request.headers.get("content-type", "application/json")
            )
            if not objs:
                raise ProtocolError(400, "batch body contains no queries")
            parsed = [parse_query_payload(obj) for obj in objs]
            pins = {release_id for _, release_id in parsed}
            if len(pins) > 1:
                raise ProtocolError(
                    400,
                    "all queries in one batch must pin the same release "
                    f"(or none); got {sorted(str(pin) for pin in pins)}",
                )
            return [query for query, _ in parsed], next(iter(pins)), ndjson
        query, release_id = parse_query_payload(parse_single_body(request.body))
        return [query], release_id, False

    async def _run_batch(
        self, requests: List[QueryRequest], release_id: Optional[str]
    ) -> List[ServedAnswer]:
        """The micro-batcher's runner: one grouped call on the thread pool.

        Also the admission EWMA's sample source: batch elapsed divided by
        batch weight is the true per-query execution time, free of the
        admission-queue wait and the wait behind an in-flight batch that
        per-request wall time includes.
        """
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        start = loop.time()
        try:
            return await loop.run_in_executor(
                self._executor,
                lambda: self._service.query_batch(requests, release_id=release_id),
            )
        finally:
            self._admission.observe(len(requests), loop.time() - start)

    async def _handle_query(self, request: Request, *, batch: bool) -> _Response:
        loop = asyncio.get_running_loop()
        try:
            deadline, budget_s = self._deadline_of(request, loop)
            queries, release_id, ndjson = self._parse_queries(request, batch)
        except ProtocolError as error:
            return (error.status, error_body(error.status, str(error)),
                    "application/json", ())

        if self._draining:
            return self._shed_response(
                "draining", 1.0, "server is draining; retry against another replica"
            )
        wait = self._breaker.check(release_id)
        if wait is not None:
            if _obs.ENABLED:
                _obs.counter_inc("net.shed")
                _obs.counter_inc("net.shed.breaker_open")
            return self._shed_response(
                "breaker_open",
                wait,
                f"release {release_id} is failing repeatedly; "
                f"circuit re-opens in {wait:.1f}s",
            )
        # If check() admitted us as the half-open probe, we owe the breaker
        # a verdict on every exit path: success/failure where the release's
        # health is actually known, probe_aborted otherwise — a leaked
        # probe slot would refuse every later pinned request forever.
        probe = self._breaker.is_probe(release_id)
        weight = len(queries)
        shed = self._admission.admit(weight, budget_s)
        if shed is not None:
            if probe:
                self._breaker.probe_aborted(release_id)
            return self._shed_response(shed.reason, shed.retry_after_s, shed.detail)

        self._accepted += 1
        self._inflight += 1
        self._idle.clear()
        verdict = False
        try:
            if _faults.ENABLED:
                _faults.fire("net.handler", path=request.path, queries=weight)
            answers = await self._batcher.submit(
                queries, deadline=deadline, release_id=release_id
            )
            if deadline is not None and loop.time() > deadline:
                if _obs.ENABLED:
                    _obs.counter_inc("net.deadline_exceeded")
                return (
                    504,
                    error_body(504, "deadline expired during query execution"),
                    "application/json",
                    (),
                )
            if release_id is not None:
                # A pinned release answering only through degraded fallbacks
                # is failing from the client's point of view: count it toward
                # the breaker so repeated corruption converges to fast 503s.
                if any(answer.degraded for answer in answers):
                    self._breaker.record_failure(release_id)
                else:
                    self._breaker.record_success(release_id)
                verdict = True
        except DeadlineExceededError as error:
            if _obs.ENABLED:
                _obs.counter_inc("net.deadline_exceeded")
            return 504, error_body(504, str(error)), "application/json", ()
        except ProtocolError as error:
            return (error.status, error_body(error.status, str(error)),
                    "application/json", ())
        except TransientFault as fault:
            # An injected (or real) transient handler failure: clean 500,
            # admission already released in ``finally`` — the client can
            # simply retry.
            if _obs.ENABLED:
                _obs.counter_inc("net.handler_errors")
            return (
                500,
                error_body(500, f"transient server failure: {fault}", retryable=True),
                "application/json",
                (),
            )
        except ServingError as error:
            # A request-validation error (bad attribute, uncovered marginal)
            # is the client's fault: it says nothing about the release's
            # health, so it must not count toward the breaker — one
            # misbehaving client would otherwise 503 valid pinned traffic.
            return 400, error_body(400, str(error)), "application/json", ()
        except CorruptMarginalError as error:
            self._breaker.record_failure(release_id)
            verdict = True
            return 500, error_body(500, str(error)), "application/json", ()
        except ReproError as error:
            if _obs.ENABLED:
                _obs.counter_inc("net.handler_errors")
            return 500, error_body(500, str(error)), "application/json", ()
        finally:
            self._admission.release(weight)
            if probe and not verdict:
                self._breaker.probe_aborted(release_id)
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

        payloads = [answer_payload(answer) for answer in answers]
        if batch:
            body, content_type = encode_batch(payloads, ndjson)
            return 200, body, content_type, ()
        return 200, encode_canonical(payloads[0]), "application/json", ()

    def _shed_response(self, reason: str, retry_after_s: float, detail: str) -> _Response:
        return (
            503,
            error_body(503, detail, reason=reason),
            "application/json",
            retry_after_headers(retry_after_s),
        )


class BackgroundServer:
    """Run a :class:`QueryServer` on a dedicated event-loop thread.

    The benchmark and the test suite are synchronous; this helper owns the
    loop thread and exposes blocking ``start`` / ``drain`` / ``stop``.
    Usable as a context manager — ``stop`` drains with the configured
    grace, so a clean exit never abandons accepted requests.
    """

    def __init__(self, service: QueryService, config: Optional[ServerConfig] = None):
        self.server = QueryServer(service, config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        """Start the loop thread and bind the listener; returns the address."""
        self._thread = threading.Thread(
            target=self._run, name="repro-net-loop", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._start_error is not None:
            raise NetError(f"server failed to start: {self._start_error}")
        if not self._started.is_set():
            raise NetError("server failed to start within 30s")
        return self.server.host, self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def _boot() -> None:
            try:
                await self.server.start()
            except BaseException as error:  # noqa: BLE001 - surfaced to start()
                self._start_error = error
            finally:
                self._started.set()

        loop.run_until_complete(_boot())
        if self._start_error is None:
            loop.run_forever()
        with contextlib.suppress(Exception):
            loop.close()

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.host, self.server.port

    def drain(self) -> Dict[str, int]:
        """Drain the server from the calling thread; returns the report."""
        if self._loop is None:
            raise NetError("server is not running")
        future = asyncio.run_coroutine_threadsafe(self.server.drain(), self._loop)
        grace = self.server._config.drain_grace_s
        return future.result(timeout=grace + 30.0)

    def stop(self) -> Dict[str, int]:
        """Drain, stop the loop and join the thread; returns the drain report."""
        report = {"completed": 0, "aborted": 0}
        if self._loop is not None:
            report = self.drain()
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        return report

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


__all__ = ["BackgroundServer", "QueryServer", "ROUTES", "ServerConfig"]
