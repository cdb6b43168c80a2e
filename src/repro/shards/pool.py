"""Shared worker pools for sharded sources.

Sources are created per release (``as_count_source`` resolves the engine's
data input on every call), so giving each source its own executor would leak
a thread/process pool per release.  This registry shares one executor per
``(kind, workers)`` pair across the process, creates it lazily on first
parallel dispatch, and shuts everything down at interpreter exit.

Pool choice:

* ``"thread"`` (default) — zero serialisation cost, but only partial
  parallelism: the pair kernel is ~150 short numpy calls per shard
  (bincounts, lookups, ufuncs), and two thread shards overlap them only in
  part.  Measured on 2 vCPUs (numpy 2.4): two ``release-wide`` shards of
  41k distinct codes run their kernels 1.3x faster side by side than one
  after the other, not 2x (the primitives alone: 1.4-1.8x).  Whether
  sharding pays there at all is ROADMAP item 1, step 2.
* ``"process"`` — full parallelism for every pass at the price of pickling
  each shard's arrays per dispatch.  Opt-in.

Failure handling: a process pool whose worker dies (OOM-killed, segfaulted)
is permanently broken — every queued and future submission fails with
:class:`~concurrent.futures.process.BrokenProcessPool`.  :func:`rebuild_pool`
evicts the broken executor from the registry and builds a fresh one so the
dispatch layer can replay the affected shards once; :func:`shard_error`
turns pool-layer failures into a targeted
:class:`~repro.exceptions.ShardError` naming the configuration and the
thread-pool escape hatch.
"""

from __future__ import annotations

import atexit
import pickle
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Tuple

from repro.exceptions import DataError, ShardError

#: The accepted executor kinds.
EXECUTOR_KINDS = ("thread", "process")

_POOLS: Dict[Tuple[str, int], Executor] = {}
_LOCK = threading.Lock()


def check_executor_kind(kind: str) -> str:
    """Validate an executor kind string."""
    if kind not in EXECUTOR_KINDS:
        raise DataError(
            f"unknown executor kind {kind!r}; choose one of {EXECUTOR_KINDS}"
        )
    return kind


def get_pool(kind: str, workers: int) -> Executor:
    """The shared executor for ``(kind, workers)``, created on first use."""
    check_executor_kind(kind)
    workers = int(workers)
    if workers < 1:
        raise DataError(f"worker count must be at least 1, got {workers}")
    key = (kind, workers)
    with _LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            if kind == "thread":
                pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-shard"
                )
            else:
                pool = ProcessPoolExecutor(max_workers=workers)
            _POOLS[key] = pool
        return pool


def rebuild_pool(kind: str, workers: int) -> Executor:
    """Replace the shared executor for ``(kind, workers)`` with a fresh one.

    Called by the dispatch layer after a
    :class:`~concurrent.futures.process.BrokenProcessPool`: the old executor
    can never run another task, so it is evicted from the registry, shut down
    without waiting (its futures are already dead), and rebuilt lazily via
    :func:`get_pool`.
    """
    check_executor_kind(kind)
    key = (kind, int(workers))
    with _LOCK:
        broken = _POOLS.pop(key, None)
    if broken is not None:
        broken.shutdown(wait=False)
    return get_pool(kind, workers)


#: Pool-layer failures that are about the *pool configuration*, not the
#: shard data: worker death and shard-pickling problems.
POOL_FAILURES = (BrokenProcessPool, pickle.PicklingError)


def shard_error(
    error: BaseException,
    *,
    kind: str,
    workers: int,
    shard: int,
    attempts: int = 0,
) -> ShardError:
    """Wrap a pool-layer failure into a targeted :class:`ShardError`.

    The message names the active ``kind=``/``workers=`` configuration and
    points at the thread-pool escape hatch — a thread pool shares memory, so
    neither worker death by re-pickling nor pickling failures exist there.
    """
    if isinstance(error, BrokenProcessPool):
        detail = (
            "a pool worker died (killed or crashed) and the pool stayed "
            "broken after one rebuild"
        )
    elif isinstance(error, pickle.PicklingError):
        detail = f"the shard payload could not be pickled to a worker ({error})"
    else:
        detail = (
            f"the shard task kept failing after {max(attempts, 1)} attempt(s) "
            f"({type(error).__name__}: {error})"
        )
    return ShardError(
        f"sharded measurement failed on shard {shard} with "
        f"kind={kind!r}, workers={workers}: {detail}; if this persists, "
        "switch the backend to the thread pool (kind='thread'), which "
        "shares memory and needs no pickling"
    )


def shutdown_pools() -> None:
    """Shut down every shared pool (registered at interpreter exit; also
    handy for tests that want a clean slate)."""
    with _LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


atexit.register(shutdown_pools)
