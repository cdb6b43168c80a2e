"""Query serving over private releases (the post-release half of the system).

The release engine (:mod:`repro.core`) ends with a one-shot
:class:`~repro.core.result.ReleaseResult`; this package turns that artefact
into a persistent, queryable service:

* :class:`~repro.serving.store.ReleaseStore` — versioned on-disk storage
  (JSON metadata + one memory-mapped ``.npy`` of the marginal vectors)
  with a cuboid-mask index;
* :class:`~repro.serving.planner.QueryPlanner` — answers arbitrary
  sub-marginal, point and slice queries from the released cuboid lattice,
  always choosing the minimum-expected-variance covering cuboid;
* :class:`~repro.serving.cache.AnswerCache` — LRU answer memoisation with
  hit/miss/eviction statistics, keyed by the service on request signatures;
* :class:`~repro.serving.service.QueryService` — the facade combining all of
  the above, with single and batched query APIs and per-answer error bars.

Everything here is post-processing of already-released data: serving any
number of queries consumes **zero** additional privacy budget.
"""

from repro.serving.cache import AnswerCache, CacheStats
from repro.serving.planner import (
    QueryPlan,
    QueryPlanner,
    ServedAnswer,
    released_cell_variances,
    slice_marginal,
)
from repro.serving.service import QueryRequest, QueryService, resolve_predicate
from repro.serving.store import ReleaseStore, STORE_FORMAT_VERSION

__all__ = [
    "AnswerCache",
    "CacheStats",
    "QueryPlan",
    "QueryPlanner",
    "ServedAnswer",
    "released_cell_variances",
    "slice_marginal",
    "QueryRequest",
    "QueryService",
    "resolve_predicate",
    "ReleaseStore",
    "STORE_FORMAT_VERSION",
]
