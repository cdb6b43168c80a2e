"""LRU answer cache for the query-serving layer.

Served answers are immutable (the planner freezes the value arrays), so they
can be shared between the cache and callers without copying.  The cache is
agnostic of its keys; :class:`~repro.serving.service.QueryService` keys it on
the raw request signature, so a hit skips name resolution and routing too.
The HTTP tier looks requests up on its event-loop thread, before admission
and the micro-batcher, and answers a request whose queries all hit right
there; misses go on to the executor threads, which ``put`` the answers.

Hit/miss/eviction bookkeeping uses the pipeline-wide
:class:`~repro.obs.cachestats.CacheStats` protocol (re-exported here for
backwards compatibility), so serving cache statistics appear in
observability snapshots alongside every other cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, List, Optional, Sequence

from repro.exceptions import ServingError
from repro.obs.cachestats import CacheStats
from repro.serving.planner import ServedAnswer

__all__ = ["AnswerCache", "CacheStats"]


class AnswerCache:
    """A bounded LRU cache of :class:`~repro.serving.planner.ServedAnswer`.

    Parameters
    ----------
    max_entries:
        Capacity; ``0`` disables caching entirely (every ``get`` misses and
        ``put`` is a no-op).
    stats:
        Counters to record into; pass one object to successive caches to
        keep cumulative statistics across them (a fresh one by default).
    """

    def __init__(self, max_entries: int = 1024, *, stats: Optional[CacheStats] = None):
        if max_entries < 0:
            raise ServingError(f"cache capacity must be non-negative, got {max_entries}")
        self._max_entries = max_entries
        self._entries: "OrderedDict[Hashable, ServedAnswer]" = OrderedDict()
        self._stats = stats if stats is not None else CacheStats(metric_prefix="serving.cache")
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def max_entries(self) -> int:
        """Configured capacity."""
        return self._max_entries

    @property
    def stats(self) -> CacheStats:
        """Counters snapshot (the live object; copy if you need to freeze it)."""
        return self._stats

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable) -> Optional[ServedAnswer]:
        """Look up an answer, refreshing its recency; ``None`` on a miss."""
        return self.get_many((key,))[0]  # type: ignore[index]

    def get_many(
        self, keys: Sequence[Optional[Hashable]], *, all_or_nothing: bool = False
    ) -> Optional[List[Optional[ServedAnswer]]]:
        """Look up several answers under one lock, refreshing their recency.

        Returns one answer per key, ``None`` for a miss; a ``None`` key is
        never looked up and not counted.  With ``all_or_nothing``, one miss
        makes the call return ``None`` and record nothing, because the
        caller falls back to a path that looks the same keys up again:
        each request is counted once.
        """
        with self._lock:
            entries = self._entries
            found: List[Optional[ServedAnswer]] = []
            for key in keys:
                entry = None if key is None else entries.get(key)
                if entry is None and all_or_nothing:
                    return None
                found.append(entry)
            for key, entry in zip(keys, found):
                if entry is not None:
                    entries.move_to_end(key)
                    self._stats.record_hit()
                elif key is not None:
                    self._stats.record_miss()
            return found

    def put(self, key: Hashable, answer: ServedAnswer) -> None:
        """Insert (or refresh) an answer, evicting the least recently used."""
        if self._max_entries == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = answer
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._stats.record_eviction()

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        with self._lock:
            self._entries.clear()
