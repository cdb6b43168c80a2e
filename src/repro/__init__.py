"""repro: differentially private release of datacubes, contingency tables and marginals.

A from-scratch reproduction of Cormode, Procopiuc, Srivastava and
Yaroslavtsev, *Accurate and Efficient Private Release of Datacubes and
Contingency Tables* (ICDE 2013).  The library implements the
strategy/recovery framework with optimal non-uniform noise budgeting,
Fourier-based marginal release with fast consistency, and the baseline
strategies the paper compares against.

Quickstart
----------
>>> from repro import release_marginals, all_k_way
>>> from repro.data import synthetic_nltcs
>>> data = synthetic_nltcs(n_records=5000, rng=7)
>>> workload = all_k_way(data.schema, 2)
>>> result = release_marginals(data, workload, budget=0.5, strategy="F",
...                            non_uniform=True, rng=7)
>>> round(result.budget.epsilon, 3)
0.5
"""

from repro.domain import Attribute, ContingencyTable, Dataset, Schema
from repro.sources import (
    CountSource,
    DenseCubeSource,
    RecordSource,
    as_count_source,
)
from repro.shards import ShardedRecordSource, StreamingSourceBuilder
from repro.store import (
    MappedRecordSource,
    open_source,
    parse_memory_budget,
    write_source,
)
from repro.queries import (
    MarginalQuery,
    MarginalWorkload,
    all_k_way,
    anchored_workload,
    datacube_workload,
    star_workload,
)
from repro.mechanisms import PrivacyBudget
from repro.budget import (
    GroupSpec,
    NoiseAllocation,
    optimal_allocation,
    uniform_allocation,
)
from repro.strategies import (
    ClusteringStrategy,
    ExplicitMatrixStrategy,
    FourierStrategy,
    IdentityStrategy,
    MarginalSetStrategy,
    Strategy,
    make_strategy,
    query_strategy,
)
from repro.fourier import WorkloadFourierIndex, fwht, fwht_batch, inverse_fwht
from repro.recovery import fourier_consistency, make_consistent
from repro.plan import ExecutionPlan, Executor, Planner
from repro.core import (
    MarginalReleaseEngine,
    ReleaseResult,
    release_marginals,
    table1_bounds,
)
from repro.serving import (
    AnswerCache,
    QueryPlanner,
    QueryService,
    ReleaseStore,
    ServedAnswer,
)
from repro.obs import BudgetLedger, CacheStats, Recorder, trace_span, tracing
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ReleaseCheckpoint,
    RetryPolicy,
    fault_injection,
    plan_fingerprint,
)

#: The package version; ``pyproject.toml`` reads it from here.
__version__ = "1.6.0"

__all__ = [
    "Attribute",
    "Schema",
    "Dataset",
    "ContingencyTable",
    "CountSource",
    "DenseCubeSource",
    "RecordSource",
    "ShardedRecordSource",
    "StreamingSourceBuilder",
    "MappedRecordSource",
    "open_source",
    "parse_memory_budget",
    "write_source",
    "as_count_source",
    "MarginalQuery",
    "MarginalWorkload",
    "all_k_way",
    "star_workload",
    "anchored_workload",
    "datacube_workload",
    "PrivacyBudget",
    "GroupSpec",
    "NoiseAllocation",
    "optimal_allocation",
    "uniform_allocation",
    "Strategy",
    "IdentityStrategy",
    "MarginalSetStrategy",
    "FourierStrategy",
    "ClusteringStrategy",
    "ExplicitMatrixStrategy",
    "query_strategy",
    "make_strategy",
    "WorkloadFourierIndex",
    "fwht",
    "fwht_batch",
    "inverse_fwht",
    "fourier_consistency",
    "make_consistent",
    "ExecutionPlan",
    "Executor",
    "Planner",
    "MarginalReleaseEngine",
    "ReleaseResult",
    "release_marginals",
    "table1_bounds",
    "AnswerCache",
    "QueryPlanner",
    "QueryService",
    "ReleaseStore",
    "ServedAnswer",
    "BudgetLedger",
    "CacheStats",
    "Recorder",
    "trace_span",
    "tracing",
    "FaultPlan",
    "FaultSpec",
    "ReleaseCheckpoint",
    "RetryPolicy",
    "fault_injection",
    "plan_fingerprint",
    "__version__",
]
