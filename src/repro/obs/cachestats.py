"""The shared cache-statistics protocol.

One :class:`CacheStats` serves every cache in the pipeline — the serving
tier's :class:`~repro.serving.cache.AnswerCache` and the query planner's
plan cache both carry this object instead of hand-rolled hit/miss
bookkeeping.  When observability is
enabled the same events are mirrored into the active recorder's metrics
registry under ``<metric_prefix>.hits`` / ``.misses`` / ``.evictions``, so
a single metrics snapshot reports every cache's hit rate.

Counter updates are plain int increments; callers that need atomicity
(e.g. :class:`AnswerCache`) invoke them under their own lock, exactly as
before the unification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.obs import runtime as _obs


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache.

    ``metric_prefix`` names the cache in metrics snapshots (empty disables
    mirroring even while observability is on).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    metric_prefix: str = ""

    # ------------------------------------------------------------------ #
    def record_hit(self) -> None:
        self.hits += 1
        if _obs.ENABLED and self.metric_prefix:
            _obs.counter_inc(self.metric_prefix + ".hits")

    def record_miss(self) -> None:
        self.misses += 1
        if _obs.ENABLED and self.metric_prefix:
            _obs.counter_inc(self.metric_prefix + ".misses")

    def record_eviction(self) -> None:
        self.evictions += 1
        if _obs.ENABLED and self.metric_prefix:
            _obs.counter_inc(self.metric_prefix + ".evictions")

    # ------------------------------------------------------------------ #
    @property
    def requests(self) -> int:
        """Total lookups served (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict view for reports and benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
