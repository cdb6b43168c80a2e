"""Micro-batching: coalesce concurrent HTTP requests into grouped batches.

The in-process :meth:`~repro.serving.service.QueryService.query_batch`
aggregates each ``(release, source cuboid, aggregation target)`` group
once, however many requests land in it — but only if the requests arrive
in the *same call*.  The :class:`MicroBatcher` recovers that grouping for
independent HTTP clients by group commit: a request for an idle release
dispatches at once, and requests arriving while that release's batch is in
flight queue behind it and flush together when it finishes (or as soon as
``max_batch`` queries are queued).  Each flush is one ``query_batch`` call
whose answers are split back per request.

Deadline discipline: each enqueued request carries its absolute deadline;
at flush time, requests already past their deadline are completed with
:class:`~repro.exceptions.DeadlineExceededError` and **excluded from the
batch** — an expired request must never cost aggregation work, and its
caller must never receive an answer computed after the budget it declared.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, List, Optional, Sequence, Set

from repro.exceptions import DeadlineExceededError
from repro.obs import runtime as _obs
from repro.serving.planner import ServedAnswer
from repro.serving.service import QueryRequest


class _Entry:
    """One enqueued HTTP request: its queries, future, and deadline."""

    __slots__ = ("requests", "future", "deadline", "release_id")

    def __init__(
        self,
        requests: Sequence[QueryRequest],
        future: "asyncio.Future[List[ServedAnswer]]",
        deadline: Optional[float],
        release_id: Optional[str],
    ):
        self.requests = list(requests)
        self.future = future
        self.deadline = deadline
        self.release_id = release_id


class MicroBatcher:
    """Group-commit coalescing in front of an async batch runner.

    ``runner(requests, release_id)`` must return an awaitable resolving to
    one answer per request (the server wraps ``query_batch`` in an
    executor).  Entries pinning a specific release flush in their own
    group, keyed by release id, since ``query_batch`` takes one pin for
    the whole call.
    """

    def __init__(
        self,
        runner: Callable[
            [List[QueryRequest], Optional[str]], Awaitable[List[ServedAnswer]]
        ],
        *,
        max_batch: int = 512,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._runner = runner
        self._max_batch = int(max_batch)
        self._queues: dict = {}  # release_id -> List[_Entry]
        self._running: dict = {}  # release_id -> batches in flight
        self._inflight: Set[asyncio.Task] = set()
        self._flushes = 0
        self._coalesced_requests = 0

    async def submit(
        self,
        requests: Sequence[QueryRequest],
        *,
        deadline: Optional[float] = None,
        release_id: Optional[str] = None,
    ) -> List[ServedAnswer]:
        """Enqueue one HTTP request's queries; resolves with its answers."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[List[ServedAnswer]]" = loop.create_future()
        entry = _Entry(requests, future, deadline, release_id)
        queue = self._queues.setdefault(release_id, [])
        queue.append(entry)
        queued = sum(len(item.requests) for item in queue)
        if release_id not in self._running or queued >= self._max_batch:
            self._flush(release_id)
        return await future

    def _flush(self, release_id: Optional[str]) -> None:
        queue = self._queues.pop(release_id, None)
        if not queue:
            return
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: List[_Entry] = []
        for entry in queue:
            if entry.future.cancelled():
                continue
            if entry.deadline is not None and now >= entry.deadline:
                # Expired before work started: fail it without aggregating.
                entry.future.set_exception(
                    DeadlineExceededError(
                        "deadline expired while queued for batching"
                    )
                )
                continue
            live.append(entry)
        if not live:
            return
        flat: List[QueryRequest] = []
        for entry in live:
            flat.extend(entry.requests)
        self._flushes += 1
        self._coalesced_requests += len(flat)
        if _obs.ENABLED:
            _obs.observe("net.batch.flush_size", float(len(flat)))
        task = loop.create_task(self._run(live, flat, release_id))
        self._running[release_id] = self._running.get(release_id, 0) + 1
        self._inflight.add(task)
        task.add_done_callback(lambda done: self._finished(done, release_id))

    def _finished(self, task: asyncio.Task, release_id: Optional[str]) -> None:
        """Done-callback: retire ``task``, then flush what queued behind it."""
        self._inflight.discard(task)
        running = self._running.pop(release_id) - 1
        if running:
            self._running[release_id] = running
        self._flush(release_id)

    async def _run(
        self,
        entries: List[_Entry],
        flat: List[QueryRequest],
        release_id: Optional[str],
    ) -> None:
        try:
            answers = await self._runner(flat, release_id)
        except BaseException as error:  # noqa: BLE001 - routed to each waiter
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(error)
            return
        if len(answers) != len(flat):
            error = RuntimeError(
                f"batch runner returned {len(answers)} answers for "
                f"{len(flat)} requests"
            )
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(error)
            return
        offset = 0
        for entry in entries:
            chunk = answers[offset : offset + len(entry.requests)]
            offset += len(entry.requests)
            if not entry.future.done():
                entry.future.set_result(chunk)

    async def drain(self) -> None:
        """Flush every queue and wait until no batch is in flight, including
        batches that completion callbacks start meanwhile."""
        for release_id in list(self._queues):
            self._flush(release_id)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def stats(self) -> dict:
        """Flush counters for ``/statsz``."""
        flushes = self._flushes
        return {
            "max_batch": self._max_batch,
            "flushes": flushes,
            "coalesced_requests": self._coalesced_requests,
            "mean_flush_size": (self._coalesced_requests / flushes) if flushes else 0.0,
            "inflight_batches": len(self._inflight),
        }


__all__ = ["MicroBatcher"]
