"""The process-local observability switch and its helper facade.

Instrumented hot paths guard on the module-level :data:`ENABLED` flag::

    from repro.obs import runtime as _obs
    ...
    if _obs.ENABLED:
        _obs.counter_inc("serving.cache.hits")

A plain module-attribute read is the entire disabled-path cost — no dict
lookups, no function calls — so instrumentation is free when observability
is off (the default).  Coarse-grained spans simply call :func:`trace_span`
unconditionally; it returns the shared no-op span while disabled.

Enabling installs a :class:`~repro.obs.tracer.Recorder` (spans + metrics +
budget ledger) for the whole process.  The :func:`tracing` context manager
is the usual entry point; it restores the previous state on exit, so nested
or test-scoped tracing composes safely.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

from repro.obs.metrics import DEFAULT_TIME_BUCKETS
from repro.obs.tracer import NOOP_SPAN, NoopSpan, Recorder, Span

#: Module-level observability switch.  Never assign directly — use
#: :func:`enable` / :func:`disable` / :func:`tracing` so the recorder stays
#: in sync with the flag.
ENABLED: bool = False

_RECORDER: Optional[Recorder] = None


def enable(recorder: Optional[Recorder] = None) -> Recorder:
    """Turn observability on (installing ``recorder`` or a fresh one)."""
    global ENABLED, _RECORDER
    _RECORDER = recorder if recorder is not None else Recorder()
    ENABLED = True
    return _RECORDER


def disable() -> Optional[Recorder]:
    """Turn observability off; returns the recorder that was active."""
    global ENABLED, _RECORDER
    previous = _RECORDER
    ENABLED = False
    _RECORDER = None
    return previous


def recorder() -> Optional[Recorder]:
    """The active recorder, or ``None`` while observability is off."""
    return _RECORDER


@contextmanager
def tracing(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Enable observability for a ``with`` block, restoring prior state after.

    >>> from repro.obs import tracing
    >>> with tracing() as rec:       # doctest: +SKIP
    ...     release_marginals(...)
    ... print(rec.summary())
    """
    global ENABLED, _RECORDER
    previous = (ENABLED, _RECORDER)
    active = enable(recorder)
    try:
        yield active
    finally:
        ENABLED, _RECORDER = previous


def trace_span(name: str, **attrs: object) -> Union[Span, NoopSpan]:
    """A live span on the active recorder, or the shared no-op when off."""
    if not ENABLED or _RECORDER is None:
        return NOOP_SPAN
    return _RECORDER.span(name, attrs)


# --------------------------------------------------------------------------- #
# metric shims (safe to call unconditionally; hot paths should still guard
# on ENABLED to skip the call entirely)
# --------------------------------------------------------------------------- #
def counter_inc(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` on the active recorder (no-op when off)."""
    active = _RECORDER
    if ENABLED and active is not None:
        active.metrics.counter(name).inc(amount)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` on the active recorder (no-op when off)."""
    active = _RECORDER
    if ENABLED and active is not None:
        active.metrics.gauge(name).set(value)


def observe(name: str, value: float, edges=DEFAULT_TIME_BUCKETS) -> None:
    """Observe ``value`` into histogram ``name`` (no-op when off)."""
    active = _RECORDER
    if ENABLED and active is not None:
        active.metrics.histogram(name, edges).observe(value)
