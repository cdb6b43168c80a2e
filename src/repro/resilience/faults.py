"""Deterministic, seedable fault injection for the pipeline's failure paths.

The resilience layer is only trustworthy if its failure paths are exercised
exactly like production failures would exercise them — inside the shard
kernels, the store readers and the spill merge, not in unit-test mocks.  This
module plants named **injection sites** at those points::

    from repro.resilience import faults as _faults
    ...
    if _faults.ENABLED:
        _faults.fire("shards.task", shard=index)

Sites mirror the :data:`repro.obs.runtime.ENABLED` idiom: while injection is
off (always, outside tests) the entire cost is one module-attribute read —
no dict lookups, no function calls — so the hot paths stay clean.

The registered sites:

``shards.task``
    Inside the per-shard marginal kernel, before the projection passes run.
``store.read``
    Inside the mapped shard kernel of :class:`~repro.store.mapped.MappedRecordSource`,
    where a real transient I/O error (e.g. ``EIO`` on a cold page) would
    surface.
``store.open``
    Per shard file while :func:`~repro.store.encoded.open_source` maps and
    (with ``verify=True``) re-hashes an encoded source.
``spill.merge``
    Per merge step of :func:`~repro.store.spill.merge_sorted_runs`.
``pool.worker``
    At the shard-pool result-collection layer, raising
    :class:`concurrent.futures.process.BrokenProcessPool` — the observable
    signature of a worker killed mid-task — so pool rebuild + replay is
    exercised without actually killing children.
``net.read``
    Inside the HTTP request-body read of :mod:`repro.net.http` — the
    signature of a client that died (or a socket that failed) mid-upload.
    The serving tier must answer 400 and never aggregate a partial batch.
``net.handler``
    At the top of the query-endpoint handlers of
    :class:`~repro.net.server.QueryServer`, after admission — an unexpected
    handler crash must produce a clean 500, release the admission slot, and
    leave the server serving.

Determinism: a :class:`FaultPlan` is a list of :class:`FaultSpec` rules.  A
spec either fails a fixed set of hits (``hits=(1, 3)`` fails the 1st and 3rd
invocation of its site) or fails each hit with probability ``rate`` drawn
from a generator seeded by ``(plan.seed, site)`` — the decision sequence
depends only on the plan and the per-site hit order, never on wall-clock or
thread scheduling.  Sites called from worker threads share the process-wide
injector under a lock; in process-pool *children* the flag is process-local
and therefore off (exactly like observability), which is why the
worker-death site lives at the collection layer in the parent.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple, Type

import numpy as np

from repro.exceptions import ResilienceError, TransientFault

#: The sites production code fires; a spec naming anything else is a typo
#: and rejected up front.
INJECTION_SITES = (
    "shards.task",
    "store.read",
    "store.open",
    "spill.merge",
    "pool.worker",
    "net.read",
    "net.handler",
)

#: Module-level injection switch.  Never assign directly — use
#: :func:`fault_injection` so the active injector stays in sync.
ENABLED: bool = False

_INJECTOR: Optional["FaultInjector"] = None


def _broken_pool_error() -> Type[BaseException]:
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: which invocations of ``site`` fail, and how.

    Attributes
    ----------
    site:
        One of :data:`INJECTION_SITES`.
    hits:
        1-based invocation numbers of the site that fail (``(1,)`` fails the
        first hit only).  Mutually exclusive with ``rate``.
    rate:
        Per-hit failure probability in ``[0, 1]``, decided by a generator
        seeded from ``(plan.seed, site)`` — deterministic per plan.
    error:
        Exception class raised on a failing hit.  ``None`` means the
        site's canonical error: :class:`BrokenProcessPool` for
        ``pool.worker``, :class:`~repro.exceptions.TransientFault` (an
        ``OSError`` for ``store.read``/``store.open``) otherwise.
    """

    site: str
    hits: Tuple[int, ...] = ()
    rate: float = 0.0
    error: Optional[Type[BaseException]] = None

    def __post_init__(self) -> None:
        if self.site not in INJECTION_SITES:
            raise ResilienceError(
                f"unknown injection site {self.site!r}; choose one of {INJECTION_SITES}"
            )
        if self.hits and self.rate:
            raise ResilienceError(
                f"fault spec for {self.site!r} must use hits= or rate=, not both"
            )
        if not self.hits and not self.rate:
            raise ResilienceError(
                f"fault spec for {self.site!r} fails nothing; give hits= or rate="
            )
        if not (0.0 <= float(self.rate) <= 1.0):
            raise ResilienceError(f"fault rate must lie in [0, 1], got {self.rate}")
        if any(int(hit) < 1 for hit in self.hits):
            raise ResilienceError(f"fault hits are 1-based, got {self.hits}")

    def resolved_error(self) -> Type[BaseException]:
        """The exception class a failing hit raises."""
        if self.error is not None:
            return self.error
        if self.site == "pool.worker":
            return _broken_pool_error()
        if self.site in ("store.read", "store.open", "net.read"):
            return _TransientIOFault
        return TransientFault


class _TransientIOFault(TransientFault, OSError):
    """An injected *I/O* fault: retry policies that only trust ``OSError``
    on store paths still classify it as transient."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults to inject across named sites.

    >>> plan = FaultPlan([
    ...     FaultSpec("shards.task", hits=(1,)),
    ...     FaultSpec("store.read", rate=0.2),
    ... ], seed=7)
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        object.__setattr__(self, "specs", tuple(specs))
        object.__setattr__(self, "seed", int(seed))
        by_site: Dict[str, int] = {}
        for spec in self.specs:
            by_site[spec.site] = by_site.get(spec.site, 0) + 1
            if by_site[spec.site] > 1:
                raise ResilienceError(
                    f"fault plan names site {spec.site!r} twice; merge the specs"
                )

    @property
    def sites(self) -> Tuple[str, ...]:
        return tuple(spec.site for spec in self.specs)

    def total_planned(self) -> int:
        """Planned deterministic (``hits=``) injections; rate specs add more."""
        return sum(len(spec.hits) for spec in self.specs)


@dataclass
class FaultInjector:
    """Executes a :class:`FaultPlan`: counts hits per site, raises on schedule.

    Thread-safe: worker threads of a shard pool fire sites concurrently, and
    the per-site hit counters (which the deterministic schedule keys on) are
    taken under a lock.
    """

    plan: FaultPlan
    hit_counts: Dict[str, int] = field(default_factory=dict)
    fired_counts: Dict[str, int] = field(default_factory=dict)
    _specs: Dict[str, FaultSpec] = field(default_factory=dict)
    _rngs: Dict[str, np.random.Generator] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        for spec in self.plan.specs:
            self._specs[spec.site] = spec
            if spec.rate:
                self._rngs[spec.site] = np.random.default_rng(
                    [self.plan.seed, hash(spec.site) & 0x7FFFFFFF]
                )

    def fire(self, site: str, **context: object) -> None:
        """Count one hit of ``site``; raise when the plan schedules a fault."""
        spec = self._specs.get(site)
        if spec is None:
            return
        with self._lock:
            count = self.hit_counts.get(site, 0) + 1
            self.hit_counts[site] = count
            if spec.hits:
                should_fire = count in spec.hits
            else:
                should_fire = bool(self._rngs[site].random() < spec.rate)
            if not should_fire:
                return
            self.fired_counts[site] = self.fired_counts.get(site, 0) + 1
        from repro.obs import runtime as _obs

        if _obs.ENABLED:
            _obs.counter_inc("resilience.faults_injected")
        error = spec.resolved_error()
        raise error(
            f"injected fault at {site!r} (hit {count}"
            + (f", {context}" if context else "")
            + ")"
        )

    def injected(self, site: Optional[str] = None) -> int:
        """Faults actually raised (at one site, or in total)."""
        with self._lock:
            if site is not None:
                return self.fired_counts.get(site, 0)
            return sum(self.fired_counts.values())


def injector() -> Optional[FaultInjector]:
    """The active injector, or ``None`` while injection is off."""
    return _INJECTOR


def fire(site: str, **context: object) -> None:
    """Fire an injection site on the active injector (no-op when off).

    Hot paths guard the call on :data:`ENABLED` so the disabled cost is a
    single attribute read; calling unconditionally is also safe.
    """
    active = _INJECTOR
    if ENABLED and active is not None:
        active.fire(site, **context)


@contextmanager
def fault_injection(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Activate ``plan`` for a ``with`` block, restoring prior state after.

    >>> from repro.resilience.retry import DEFAULT_RETRY_POLICY
    >>> plan = FaultPlan([FaultSpec("shards.task", hits=(1,))])
    >>> with fault_injection(plan) as inj:
    ...     # The first hit raises TransientFault; the retry layer re-runs it.
    ...     DEFAULT_RETRY_POLICY.run(fire, "shards.task")
    >>> inj.injected("shards.task")
    1
    """
    global ENABLED, _INJECTOR
    previous = (ENABLED, _INJECTOR)
    active = FaultInjector(plan)
    _INJECTOR = active
    ENABLED = True
    try:
        yield active
    finally:
        ENABLED, _INJECTOR = previous
