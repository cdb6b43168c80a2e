"""Pluggable count backends: dense ``2**d`` vectors or record-native arrays.

``repro.sources`` supplies the exact counts every measurement kernel
consumes.  :class:`DenseCubeSource` wraps the historical dense count vector;
:class:`RecordSource` computes any cuboid marginal directly from
deduplicated ``(codes, weights)`` record arrays and never allocates the full
domain, which unlocks wide schemas (``d`` up to 62) the dense pipeline
physically cannot serve.  Exact values are bitwise identical across backends
for integer count data, so seeded releases reproduce exactly no matter which
backend measured them.
"""

from repro.sources.base import (
    DENSE_LIMIT_BITS,
    CountSource,
    dense_allowed,
    ensure_dense_allowed,
)
from repro.sources.dense import DenseCubeSource
from repro.sources.record import MAX_RECORD_BITS, RecordSource
from repro.sources.resolve import (
    BACKENDS,
    as_count_source,
    check_backend,
    mapped_count_source,
    select_backend,
)

__all__ = [
    "BACKENDS",
    "DENSE_LIMIT_BITS",
    "MAX_RECORD_BITS",
    "CountSource",
    "DenseCubeSource",
    "RecordSource",
    "as_count_source",
    "check_backend",
    "dense_allowed",
    "ensure_dense_allowed",
    "mapped_count_source",
    "select_backend",
]
