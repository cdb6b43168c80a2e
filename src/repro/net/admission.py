"""Admission control for the serving edge: bounded queues, honest 503s.

The controller guards the worker pool with two tests applied *before* any
work is spent on a request:

* **queue bound** — the number of admitted-but-unfinished queries may not
  exceed ``max_pending``; beyond it the server is already saturated and
  accepting more only grows latency for everyone, so the request is shed
  with a 503 and a ``Retry-After``;
* **deadline feasibility** — an EWMA of recent per-query service time
  estimates how long the queue in front of a new request will take; a
  request whose deadline budget cannot cover that wait is shed immediately
  instead of timing out after consuming a worker slot.

All state is touched only from the event-loop thread, so there are no
locks here; the worker pool reports completions back via
:meth:`AdmissionController.release` (scheduled onto the loop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.obs import runtime as _obs

#: Blend factor of the service-time EWMA: old estimate 0.8, new sample 0.2.
EWMA_KEEP = 0.8

#: Starting per-query service-time estimate (seconds) before any sample.
INITIAL_SERVICE_TIME_S = 0.005


@dataclass(frozen=True)
class ShedDecision:
    """Why a request was refused and how long the client should back off."""

    reason: str  # "queue_full" | "deadline_unmeetable" | "draining"
    retry_after_s: float
    detail: str

    @property
    def retry_after(self) -> int:
        """``Retry-After`` header value: integer seconds, at least 1."""
        return max(1, math.ceil(self.retry_after_s))


class AdmissionController:
    """Bounded-pending admission with EWMA wait estimation.

    ``weight`` is the number of queries a request carries (a batch of 50
    loads the pool 50x more than a single query and is accounted as such).
    """

    def __init__(self, max_pending: int, workers: int):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.max_pending = int(max_pending)
        self.workers = int(workers)
        self._pending = 0
        self._service_time_s = INITIAL_SERVICE_TIME_S
        self._admitted = 0
        self._shed = 0
        self._shed_by_reason = {"queue_full": 0, "deadline_unmeetable": 0}

    @property
    def pending(self) -> int:
        """Queries admitted and not yet released."""
        return self._pending

    @property
    def service_time_s(self) -> float:
        """Current EWMA per-query service-time estimate."""
        return self._service_time_s

    def estimated_wait_s(self, extra: int = 0) -> float:
        """Expected queueing delay for a request arriving behind ``extra``.

        With fewer pending queries than workers the wait is zero; beyond
        that, the backlog drains at ``workers`` queries per service time.
        """
        backlog = max(0, self._pending + extra - self.workers)
        return backlog * self._service_time_s / self.workers

    def admit(self, weight: int, budget_s: Optional[float]) -> Optional[ShedDecision]:
        """Try to admit ``weight`` queries; a decision means *shed*.

        ``budget_s`` is the request's remaining deadline budget (``None``
        when the client set no deadline).  On admission, the caller owes a
        matching :meth:`release` call.
        """
        weight = max(1, int(weight))
        if self._pending + weight > self.max_pending:
            wait = max(self.estimated_wait_s(), self._service_time_s)
            return self._shed_decision(
                "queue_full",
                wait,
                f"{self._pending} queries pending (limit {self.max_pending})",
            )
        wait = self.estimated_wait_s(extra=weight)
        if budget_s is not None and wait > budget_s:
            return self._shed_decision(
                "deadline_unmeetable",
                wait,
                f"estimated queue wait {wait * 1000:.0f}ms exceeds the "
                f"{budget_s * 1000:.0f}ms deadline budget",
            )
        self._pending += weight
        self._admitted += weight
        if _obs.ENABLED:
            _obs.gauge_set("net.queue_depth", float(self._pending))
        return None

    def release(self, weight: int, elapsed_s: float = 0.0) -> None:
        """Report ``weight`` queries finished after ``elapsed_s`` seconds.

        Pass ``elapsed_s=0`` to only free the slots: wall time measured at
        the request includes queue wait and the wait behind an in-flight
        batch, and coalesced requests would each report the whole batch's
        wall time — N single queries in one batch would inflate the EWMA
        ~N-fold.  The batch runner feeds the estimate via :meth:`observe`
        instead.
        """
        weight = max(1, int(weight))
        self._pending = max(0, self._pending - weight)
        if elapsed_s > 0:
            self.observe(weight, elapsed_s)
        elif _obs.ENABLED:
            _obs.gauge_set("net.queue_depth", float(self._pending))

    def observe(self, weight: int, elapsed_s: float) -> None:
        """Fold one service-time sample (``weight`` queries, one execution)
        into the EWMA — ``elapsed_s`` must cover execution only, not queue
        wait or the wait behind an in-flight batch."""
        weight = max(1, int(weight))
        if elapsed_s > 0:
            per_query = elapsed_s / weight
            self._service_time_s = (
                EWMA_KEEP * self._service_time_s + (1.0 - EWMA_KEEP) * per_query
            )
        if _obs.ENABLED:
            _obs.gauge_set("net.queue_depth", float(self._pending))

    def _shed_decision(self, reason: str, wait_s: float, detail: str) -> ShedDecision:
        self._shed += 1
        self._shed_by_reason[reason] = self._shed_by_reason.get(reason, 0) + 1
        if _obs.ENABLED:
            _obs.counter_inc("net.shed")
            _obs.counter_inc(f"net.shed.{reason}")
        return ShedDecision(reason=reason, retry_after_s=max(wait_s, 0.001), detail=detail)

    def stats(self) -> dict:
        """Counters for ``/statsz``: admissions, sheds, queue state."""
        return {
            "pending": self._pending,
            "max_pending": self.max_pending,
            "workers": self.workers,
            "admitted": self._admitted,
            "shed": self._shed,
            "shed_by_reason": dict(self._shed_by_reason),
            "service_time_ms": self._service_time_s * 1000.0,
            "estimated_wait_ms": self.estimated_wait_s() * 1000.0,
        }


__all__ = ["AdmissionController", "EWMA_KEEP", "INITIAL_SERVICE_TIME_S", "ShedDecision"]
