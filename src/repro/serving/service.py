"""The query-serving facade: cached, batched answers over stored releases.

:class:`QueryService` fronts either a single in-memory
:class:`~repro.core.result.ReleaseResult` or a whole
:class:`~repro.serving.store.ReleaseStore`.  It resolves attribute names and
predicates against the release schema, routes each query to a covering
release, plans and aggregates through the
:class:`~repro.serving.planner.QueryPlanner`, and memoises answers in an
LRU :class:`~repro.serving.cache.AnswerCache` keyed on the raw request
signature, so a hit skips resolution and routing as well.
:meth:`QueryService.cached_answers` is that lookup alone, all or nothing;
the HTTP tier runs it on its event loop to answer all-hit requests there.

Single and batched queries share one path.  Requests are grouped by resolved
``(release, source cuboid, aggregation target)``: each group is aggregated
exactly once, every request in it that carries a predicate is answered by
one vectorised gather over the shared aggregate
(:func:`~repro.serving.planner.slice_marginal_batch`), and independent
groups are dispatched concurrently on the shared :mod:`repro.shards` thread
pool so multi-cuboid batches overlap I/O on memory-mapped stores.

Routing state lives in an immutable per-generation snapshot that writers
replace under one lock (copy-on-write), so the many threads of the HTTP tier
read it without locking.  Serving never touches the privacy budget —
everything is post-processing of the released vectors.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.result import ReleaseResult
from repro.domain.schema import AttributeRef, Schema
from repro.exceptions import CorruptMarginalError, ReproError, ServingError
from repro.obs import runtime as _obs
from repro.obs.cachestats import CacheStats
from repro.serving.cache import AnswerCache
from repro.serving.planner import (
    QueryPlan,
    QueryPlanner,
    ServedAnswer,
    slice_marginal_batch,
)
from repro.serving.store import ReleaseStore
from repro.shards.pool import get_pool

WhereClause = Mapping[AttributeRef, object]

#: Fixed bucket edges of the ``serving.batch.group_size`` histogram (number
#: of requests answered from one aggregated cuboid).
GROUP_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0,
)


@dataclass(frozen=True)
class QueryRequest:
    """One serving request: a marginal plus an optional predicate.

    Exactly one of ``attributes`` (schema attribute refs) or ``mask`` (raw
    bit mask) names the queried marginal; an empty query with a ``where``
    clause is a point/slice lookup, an empty query without one asks for the
    total count.  ``where`` maps attributes to fixed values (integer codes or
    value labels).
    """

    attributes: Optional[Tuple[AttributeRef, ...]] = None
    mask: Optional[int] = None
    where: Optional[WhereClause] = None

    def __post_init__(self) -> None:
        if self.attributes is not None and self.mask is not None:
            raise ServingError("specify the query by attributes or by mask, not both")


RequestLike = Union[QueryRequest, int, str, Iterable[AttributeRef], Mapping[str, object]]


def _coerce_request(request: RequestLike) -> QueryRequest:
    if isinstance(request, QueryRequest):
        return request
    if isinstance(request, int):
        return QueryRequest(mask=request)
    if isinstance(request, str):
        return QueryRequest(attributes=(request,))
    if isinstance(request, Mapping):
        attributes = request.get("attributes")
        return QueryRequest(
            attributes=tuple(attributes) if attributes is not None else None,
            mask=request.get("mask"),  # type: ignore[arg-type]
            where=request.get("where"),  # type: ignore[arg-type]
        )
    return QueryRequest(attributes=tuple(request))


def _resolve_value(schema: Schema, ref: AttributeRef, value: object) -> int:
    """Turn a predicate value (code or label) into a validated integer code."""
    attribute = schema.attribute(ref)
    if isinstance(value, str):
        if attribute.labels is not None and value in attribute.labels:
            return attribute.labels.index(value)
        try:
            value = int(value)
        except ValueError:
            raise ServingError(
                f"value {value!r} is neither a label nor an integer code of "
                f"attribute {attribute.name!r}"
            ) from None
    try:
        return attribute.validate_value(int(value))  # type: ignore[arg-type]
    except ReproError as error:
        raise ServingError(str(error)) from error


def resolve_predicate(schema: Schema, where: Optional[WhereClause]) -> Tuple[int, int]:
    """Compile a ``where`` clause into ``(fixed_mask, fixed_bits)``.

    The mask covers the whole bit block of every predicated attribute and the
    bits carry the value codes at their domain positions.
    """
    fixed_mask = 0
    fixed_bits = 0
    if not where:
        return 0, 0
    for ref, value in where.items():
        block_mask = schema.attribute_mask(ref)
        if fixed_mask & block_mask:
            raise ServingError(f"attribute {ref!r} appears twice in the predicate")
        offset, _width = schema.bit_block(ref)
        code = _resolve_value(schema, ref, value)
        fixed_mask |= block_mask
        fixed_bits |= code << offset
    return fixed_mask, fixed_bits


_NO_EXCLUDE: FrozenSet[int] = frozenset()

#: One resolved batch member: ``(position, query mask, fixed mask, fixed bits)``.
_Member = Tuple[int, int, int, int]
#: One aggregation group: ``(release, planner, plan, members)``.
_Group = Tuple[Optional[str], QueryPlanner, QueryPlan, List[_Member]]


def _request_signature(request: QueryRequest, release_id: Optional[str]):
    """Hashable form of the raw request (the answer-cache key), or ``None``
    when the predicate values are not hashable."""
    try:
        where_items = frozenset(request.where.items()) if request.where is not None else None
    except TypeError:
        return None
    return (release_id, request.mask, request.attributes, where_items)


def _resolve(schema: Schema, request: QueryRequest) -> Tuple[int, int, int]:
    """``(query mask, fixed mask, fixed bits)`` of a request under ``schema``."""
    if request.mask is not None:
        query_mask = int(request.mask)
        if query_mask < 0 or query_mask > schema.full_mask:
            raise ServingError(f"query mask {query_mask:#x} is outside the release's domain")
    else:
        query_mask = schema.mask_of(request.attributes or ())
    fixed_mask, fixed_bits = resolve_predicate(schema, request.where)
    if fixed_mask & query_mask:
        raise ServingError(
            "predicated attributes must not also be queried "
            f"(bits {fixed_mask & query_mask:#x} overlap)"
        )
    return query_mask, fixed_mask, fixed_bits


def _uncovered(union_mask: int, exclude: FrozenSet[int]) -> ServingError:
    quarantined = f" ({len(exclude)} cuboid(s) quarantined)" if exclude else ""
    return ServingError(f"no released cuboid covers marginal {union_mask:#x}{quarantined}")


def _aggregate_group(
    planner: QueryPlanner, plan: QueryPlan
) -> Tuple[Optional[np.ndarray], Optional[CorruptMarginalError]]:
    """Aggregate one group's source; a corrupt source comes back as a value.

    Runs on pool worker threads, so quarantining (which replaces the serving
    state) is left to the calling thread.  Concurrent calls against one
    planner are safe — the lazily built cube views and digest markers are
    idempotent (racing writers store identical values).
    """
    try:
        return planner.aggregate(plan), None
    except CorruptMarginalError as error:
        if error.mask is None:
            raise
        return None, error


@dataclass(frozen=True)
class _ServingState:
    """Everything routing reads, for one serving epoch.

    An epoch starts at construction, on a store generation change and on
    :meth:`QueryService.invalidate`; each has its own ``cache``, so cache
    identity is epoch identity.  Quarantines and sidelinings derive a new
    state of the same epoch.  ``planners`` and ``schemas`` are insert-only
    memos shared by the states of one epoch; every other field is replaced,
    never mutated.
    """

    generation: int
    routing_order: Tuple[Optional[str], ...]
    #: Corrupt cuboid masks per release, never aggregated again.
    quarantined: Mapping[Optional[str], FrozenSet[int]]
    #: Unloadable releases (by id) that routing skips, with the load error.
    sidelined: Mapping[str, str]
    planners: Dict[Optional[str], QueryPlanner]
    schemas: Dict[Optional[str], Schema]
    cache: AnswerCache
    quarantine_events: int = 0

    def exclude(self, release_id: Optional[str]) -> FrozenSet[int]:
        """The quarantined cuboid masks of one release (usually empty)."""
        return self.quarantined.get(release_id, _NO_EXCLUDE)


class QueryService:
    """Serve marginal / point / slice queries from private releases.

    Parameters
    ----------
    source:
        A :class:`ReleaseStore` (multi-release mode) or a single
        :class:`ReleaseResult` (in-memory mode).
    cache_size:
        Capacity of the LRU answer cache; ``0`` disables caching.
    batch_workers:
        Worker-thread budget for aggregating independent batch groups
        concurrently on the shared :mod:`repro.shards` pool.  ``None``
        (default) uses the machine's core count; ``1`` forces serial
        aggregation.  Results are bitwise identical either way.
    """

    def __init__(
        self,
        source: Union[ReleaseStore, ReleaseResult],
        *,
        cache_size: int = 1024,
        batch_workers: Optional[int] = None,
    ):
        if isinstance(source, ReleaseResult):
            self._store: Optional[ReleaseStore] = None
            self._release_planner: Optional[QueryPlanner] = QueryPlanner(source)
        elif isinstance(source, ReleaseStore):
            self._store = source
            self._release_planner = None
        else:
            raise ServingError(
                f"QueryService expects a ReleaseStore or ReleaseResult, got {type(source).__name__}"
            )
        if batch_workers is not None and int(batch_workers) < 1:
            raise ServingError(
                f"batch_workers must be at least 1, got {batch_workers}"
            )
        self._batch_workers = (
            int(batch_workers) if batch_workers is not None else (os.cpu_count() or 1)
        )
        self._cache_size = cache_size
        # Hit/miss counters stay cumulative across the per-epoch caches.
        self._cache_stats = CacheStats(metric_prefix="serving.cache")
        # Writers (epoch changes, quarantine, sidelining) swap ``_state``
        # under this lock; readers take ``self._state`` once, lock-free.
        self._lock = threading.Lock()
        self._state = self._new_epoch(quarantine_events=0)
        self._queries = 0
        self._batches = 0
        self._batched_requests = 0
        self._batch_groups = 0

    # ------------------------------------------------------------------ #
    # serving state
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> Optional[ReleaseStore]:
        """The backing store (``None`` in single-release mode)."""
        return self._store

    @property
    def batch_workers(self) -> int:
        """Threads a grouped batch aggregates on (``batch_workers`` resolved)."""
        return self._batch_workers

    @property
    def cache(self) -> AnswerCache:
        """The answer cache of the current epoch (exposed for stats)."""
        return self._state.cache

    def _routing_order(self) -> Tuple[Optional[str], ...]:
        """Default candidates, newest release first (later releases
        supersede earlier ones)."""
        if self._store is None:
            return (None,)
        return tuple(reversed(self._store.release_ids()))

    def _new_epoch(self, *, quarantine_events: int) -> _ServingState:
        """A state with empty memos, no degradation and a fresh cache."""
        if self._store is None:
            planner = self._release_planner
            planners = {None: planner}
            schemas = {None: planner.release.workload.schema}  # type: ignore[union-attr]
            generation = 0
        else:
            planners, schemas = {}, {}
            # Read before the release list: a put racing this build leaves
            # a stale generation, so the next call rebuilds.
            generation = self._store.generation
        return _ServingState(
            generation=generation,
            routing_order=self._routing_order(),
            quarantined={},
            sidelined={},
            planners=planners,  # type: ignore[arg-type]
            schemas=schemas,  # type: ignore[arg-type]
            cache=AnswerCache(self._cache_size, stats=self._cache_stats),
            quarantine_events=quarantine_events,
        )

    def _current(self) -> _ServingState:
        """The live state, first starting a new epoch if the store's release
        set changed.

        This retires stale planners and answers after ``put`` (including
        ``overwrite=True``) or ``delete`` through the same store instance.
        Mutations made by *other* processes are invisible here; call
        :meth:`invalidate` (or reopen the store) to pick those up.
        """
        state = self._state
        if self._store is None or self._store.generation == state.generation:
            return state
        with self._lock:
            if self._state.generation != self._store.generation:
                self._state = self._new_epoch(
                    quarantine_events=self._state.quarantine_events
                )
            return self._state

    def invalidate(self, release_id: Optional[str] = None) -> None:
        """Drop cached planners, schemas, answers — and degradation state.

        Quarantines heal here on purpose: after store mutation the corrupt
        file may have been repaired or replaced, and a re-verify on next
        touch is cheap."""
        with self._lock:
            state = self._state
            if release_id is None:
                self._state = self._new_epoch(quarantine_events=state.quarantine_events)
                return

            def without(mapping):
                return {key: value for key, value in mapping.items() if key != release_id}

            self._state = replace(
                state,
                routing_order=self._routing_order(),
                quarantined=without(state.quarantined),
                sidelined=without(state.sidelined),
                planners=without(state.planners),
                schemas=without(state.schemas),
                cache=AnswerCache(self._cache_size, stats=self._cache_stats),
            )

    def _degrade(
        self,
        seen: _ServingState,
        release_id: Optional[str],
        error: ServingError,
        *,
        mask: Optional[int] = None,
    ) -> _ServingState:
        """Quarantine one corrupt cuboid (``mask``) or, without a mask,
        sideline a whole unloadable release; returns the state to go on with.

        The finding is applied to the live state and swapped in when ``seen``
        belongs to the live epoch.  A finding from a retired epoch (the store
        moved or was invalidated meanwhile) stays local to the batch that
        made it: the files may have been repaired since.
        """
        with self._lock:
            live = self._state
            base = live if live.cache is seen.cache else seen
            if mask is None:
                if release_id in base.sidelined:
                    return base
                state = replace(base, sidelined={**base.sidelined, release_id: str(error)})
                metric = "serving.releases_degraded"
                message = f"release {release_id!r} is unloadable and was sidelined from serving"
            else:
                masks = base.exclude(release_id)
                if mask in masks:
                    return base
                state = replace(base, quarantined={**base.quarantined, release_id: masks | {mask}})
                metric = "serving.marginals_quarantined"
                message = f"quarantined corrupt cuboid {mask:#x} and degraded serving"
            state = replace(state, quarantine_events=base.quarantine_events + 1)
            if base is live:
                self._state = state
        if _obs.ENABLED:
            _obs.counter_inc(metric)
            _obs.gauge_set(
                "serving.quarantined_marginals",
                float(sum(len(masks) for masks in state.quarantined.values())),
            )
        warnings.warn(f"{message}: {error}", RuntimeWarning, stacklevel=4)
        return state

    # ------------------------------------------------------------------ #
    # release resolution
    # ------------------------------------------------------------------ #
    def planner(self, release_id: Optional[str] = None) -> QueryPlanner:
        """The (lazily built) planner of one release (default: the latest).

        Store-backed planners verify each source cuboid against its stored
        content digest the first time a query aggregates it.
        """
        state = self._current()
        if self._store is None:
            return state.planners[None]
        if release_id is None:
            release_id = self._store.latest_release_id()
        return self._planner(state, release_id)

    def _planner(self, state: _ServingState, release_id: Optional[str]) -> QueryPlanner:
        planner = state.planners.get(release_id)
        if planner is None:
            # Concurrent builders are tolerated (the loser's planner is
            # dropped); setdefault keeps exactly one instance per epoch so
            # the plan cache and digest markers are shared across threads.
            planner = state.planners.setdefault(
                release_id,
                QueryPlanner(
                    self._store.get(release_id),
                    marginal_digests=self._store.marginal_digests(release_id),
                ),
            )
        return planner

    def _schema(self, state: _ServingState, release_id: Optional[str]) -> Schema:
        """Schema of one release, from the store index (no release files)."""
        schema = state.schemas.get(release_id)
        if schema is None:
            payload = self._store.metadata(release_id)["schema"]  # type: ignore[union-attr,index]
            schema = state.schemas.setdefault(
                release_id, Schema.from_dict(payload)  # type: ignore[arg-type]
            )
        return schema

    def _candidates(
        self, state: _ServingState, release_id: Optional[str]
    ) -> Sequence[Optional[str]]:
        if release_id is None:
            return state.routing_order
        if self._store is None:
            raise ServingError("this service fronts a single in-memory release")
        if release_id not in self._store:
            raise ServingError(f"no release {release_id!r} in the store")
        return (release_id,)

    def _route(
        self, state: _ServingState, request: QueryRequest, release_id: Optional[str]
    ) -> Tuple[_ServingState, Optional[str], QueryPlanner, QueryPlan, int, int, int]:
        """Find a release able to answer the request (newest wins on a tie).

        Resolution runs against the store index, and a release whose planner
        is not loaded yet is checked against the store's cached
        :class:`~repro.plan.lattice.CoveringIndex` first, so candidates that
        cannot serve the request are rejected without loading their marginal
        vectors; a loaded planner answers coverage from its plan cache.
        Quarantined cuboids do not count as coverage: a release whose only
        covering cuboid is corrupt routes the query to an older release
        instead of failing it.  Returns the state to go on with (a new one
        when a release had to be sidelined) and the route ``(release,
        planner, plan, query mask, fixed mask, fixed bits)``.
        """
        last_error: Optional[ServingError] = None
        for candidate in self._candidates(state, release_id):
            if candidate in state.sidelined:
                last_error = ServingError(
                    f"release {candidate!r} is degraded: {state.sidelined[candidate]}"
                )
                continue
            try:
                query_mask, fixed_mask, fixed_bits = _resolve(
                    self._schema(state, candidate), request
                )
            except ReproError as error:
                last_error = ServingError(str(error))
                continue
            union_mask = query_mask | fixed_mask
            exclude = state.exclude(candidate)
            planner = state.planners.get(candidate)
            if planner is None:
                index = self._store.covering_index(candidate)  # type: ignore[union-attr]
                if not index.covers(union_mask, exclude=exclude):
                    last_error = _uncovered(union_mask, exclude)
                    continue
                try:
                    planner = self._planner(state, candidate)
                except ServingError as error:
                    # The release's files cannot be loaded (torn archive,
                    # corrupt metadata): sideline the whole release and keep
                    # routing — an older covering release can still answer.
                    state = self._degrade(state, candidate, error)
                    last_error = error
                    continue
            try:
                plan = planner.plan(union_mask, exclude=exclude)
            except ServingError:
                last_error = _uncovered(union_mask, exclude)
                continue
            return state, candidate, planner, plan, query_mask, fixed_mask, fixed_bits
        if last_error is not None:
            raise last_error
        raise ServingError("the release store is empty")

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def query(
        self,
        attributes: Optional[Iterable[AttributeRef]] = None,
        *,
        mask: Optional[int] = None,
        where: Optional[WhereClause] = None,
        release_id: Optional[str] = None,
    ) -> ServedAnswer:
        """Answer one marginal (or point/slice) query: a batch of one.

        ``attributes`` names the queried schema attributes (``mask`` is the
        raw bit-level alternative); ``where`` pins other attributes to fixed
        values.  Returns a :class:`ServedAnswer` with per-cell error bars.
        """
        request = QueryRequest(
            attributes=tuple(attributes) if attributes is not None else None,
            mask=mask,
            where=where,
        )
        self._queries += 1
        if not _obs.ENABLED:
            return self._serve([request], release_id)[0]
        _obs.counter_inc("serving.queries")
        with _obs.trace_span("serving.query"):
            return self._serve([request], release_id)[0]

    def query_batch(
        self,
        requests: Sequence[RequestLike],
        *,
        release_id: Optional[str] = None,
    ) -> List[ServedAnswer]:
        """Answer many queries, aggregating each source cuboid once.

        Cache misses are grouped by ``(release, source cuboid, aggregation
        target)``; each group is aggregated a single time, every predicated
        request in it is answered by one vectorised gather over the shared
        aggregate, and independent groups aggregate concurrently on the
        shared shard pool.  Answers come back in request order.
        """
        coerced = [_coerce_request(request) for request in requests]
        self._batches += 1
        self._batched_requests += len(coerced)
        if not _obs.ENABLED:
            return self._serve(coerced, release_id)
        _obs.counter_inc("serving.batches")
        _obs.counter_inc("serving.batched_requests", len(coerced))
        with _obs.trace_span("serving.query_batch", requests=len(coerced)):
            return self._serve(coerced, release_id)

    def cached_answers(
        self, requests: Sequence[QueryRequest], release_id: Optional[str] = None
    ) -> Optional[List[ServedAnswer]]:
        """Every request's answer if all of them are answer-cache hits, else
        ``None`` (and nothing is counted: :meth:`query_batch` counts them).

        The answers are exactly what :meth:`query_batch` would return for
        the same call now, ``cached`` flag included.  No name resolution,
        routing or aggregation runs, so the HTTP tier calls this on its
        event-loop thread before admission.
        """
        _signatures, answers = self._lookup(
            self._current().cache, requests, release_id, all_or_nothing=True
        )
        return answers  # type: ignore[return-value]

    @staticmethod
    def _lookup(
        cache: AnswerCache,
        requests: Sequence[QueryRequest],
        release_id: Optional[str],
        *,
        all_or_nothing: bool = False,
    ) -> Tuple[List[object], Optional[List[Optional[ServedAnswer]]]]:
        """``(signatures, answers)``: each request's cache key and cached
        answer (``None`` on a miss); see :meth:`AnswerCache.get_many`."""
        signatures = [_request_signature(request, release_id) for request in requests]
        if not cache.max_entries:
            return signatures, None if all_or_nothing else [None] * len(requests)
        return signatures, cache.get_many(signatures, all_or_nothing=all_or_nothing)

    def _serve(
        self, requests: List[QueryRequest], release_id: Optional[str]
    ) -> List[ServedAnswer]:
        state = self._current()
        # Answers go to the cache of the epoch they were computed in, even if
        # a concurrent invalidate retires it meanwhile.
        cache = state.cache
        signatures, answers = self._lookup(cache, requests, release_id)
        pending = [position for position, answer in enumerate(answers) if answer is None]
        # A group whose source fails its digest check quarantines that cuboid
        # and its members take another pass, which re-plans them around the
        # quarantine (or re-routes them to an older release).  Each retry
        # strictly grows the quarantine set, so the loop terminates.
        while pending:
            groups: Dict[Tuple[Optional[str], int, int], _Group] = {}
            for position in pending:
                state, rid, planner, plan, query_mask, fixed_mask, fixed_bits = self._route(
                    state, requests[position], release_id
                )
                members = groups.setdefault(
                    (rid, plan.source_mask, plan.union_mask), (rid, planner, plan, [])
                )[3]
                members.append((position, query_mask, fixed_mask, fixed_bits))
            self._batch_groups += len(groups)
            results = self._aggregate(list(groups.values()))
            pending = []
            for (rid, _planner, plan, members), (aggregated, error) in zip(
                groups.values(), results
            ):
                if error is None:
                    self._assemble(aggregated, rid, plan, members, signatures, cache, answers)
                else:
                    state = self._degrade(state, rid, error, mask=int(error.mask))
                    pending.extend(member[0] for member in members)
            pending.sort()
        return answers  # type: ignore[return-value]

    def _aggregate(
        self, groups: List[_Group]
    ) -> List[Tuple[Optional[np.ndarray], Optional[CorruptMarginalError]]]:
        """One reduction per group, concurrently when there are several.

        Output is bitwise independent of the dispatch order — each group's
        reduction touches only its own source cuboid."""
        workers = min(self.batch_workers, len(groups))

        def run() -> List[Tuple[Optional[np.ndarray], Optional[CorruptMarginalError]]]:
            if workers > 1:
                pool = get_pool("thread", workers)
                futures = [
                    pool.submit(_aggregate_group, planner, plan) for _, planner, plan, _ in groups
                ]
                return [future.result() for future in futures]
            return [_aggregate_group(planner, plan) for _, planner, plan, _ in groups]

        if not _obs.ENABLED:
            return run()
        with _obs.trace_span("serving.batch.aggregate", groups=len(groups), workers=workers):
            return run()

    @staticmethod
    def _assemble(
        aggregated: np.ndarray,
        rid: Optional[str],
        plan: QueryPlan,
        members: List[_Member],
        signatures: List[object],
        cache: AnswerCache,
        answers: List[Optional[ServedAnswer]],
    ) -> None:
        """Answer every member of one aggregated group and cache the answers.

        Unpredicated members share the aggregate itself; predicated ones are
        answered by one vectorised gather per predicate mask."""
        if _obs.ENABLED:
            _obs.observe("serving.batch.group_size", float(len(members)), GROUP_SIZE_BUCKETS)
        aggregated.setflags(write=False)
        rows: List[Tuple[_Member, np.ndarray]] = []
        by_fixed: Dict[int, List[_Member]] = {}
        for member in members:
            if member[2] == 0:
                rows.append((member, aggregated))
            else:
                by_fixed.setdefault(member[2], []).append(member)
        for fixed_mask, fixed_members in by_fixed.items():
            sliced = slice_marginal_batch(
                aggregated, plan.union_mask, fixed_mask, [member[3] for member in fixed_members]
            )
            sliced.setflags(write=False)
            rows.extend(zip(fixed_members, sliced))
        for (position, query_mask, fixed_mask, fixed_bits), values in rows:
            answer = ServedAnswer(
                values=values,
                query_mask=query_mask,
                fixed_mask=fixed_mask,
                fixed_bits=fixed_bits,
                plan=plan,
                release_id=rid,
            )
            answers[position] = answer
            signature = signatures[position]
            if cache.max_entries and signature is not None:
                # Stored pre-marked as cached so hits return them as-is.
                cache.put(signature, answer.with_provenance(release_id=rid, cached=True))

    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, object]:
        """Degradation state: quarantined cuboids and sidelined releases.

        ``ok`` is ``True`` while every query is served at full fidelity;
        once a corrupt vector is quarantined the service still answers every
        coverable query, but ``quarantined`` names the cuboids whose answers
        now come from fallback sources with wider error bars, and
        ``degraded_releases`` names releases that could not be loaded at all.
        """
        return self._health(self._state)

    @staticmethod
    def _health(state: _ServingState) -> Dict[str, object]:
        quarantined = {
            (release_id if release_id is not None else "<in-memory>"): [
                hex(mask) for mask in sorted(masks)
            ]
            for release_id, masks in state.quarantined.items()
            if masks
        }
        return {
            "ok": not quarantined and not state.sidelined,
            "quarantine_events": state.quarantine_events,
            "quarantined": quarantined,
            "degraded_releases": dict(state.sidelined),
        }

    def stats(self) -> Dict[str, object]:
        """Serving counters: query volume, live planners, caches and health.

        ``queries`` / ``batches`` / ``batched_requests`` count calls to
        :meth:`query` and :meth:`query_batch`; ``batch_groups`` counts the
        aggregation groups those calls resolved to (lower is better: one
        group answers many requests); ``planners`` is the number of
        per-release planners currently materialised; ``cache`` /
        ``plan_cache`` are the
        :meth:`~repro.obs.cachestats.CacheStats.to_dict` snapshots of the
        answer cache (cumulative across epochs) and the (summed,
        per-planner) resolved-plan memo; ``health`` is the :meth:`health`
        degradation report.
        """
        state = self._state
        plan_cache = {"hits": 0, "misses": 0, "evictions": 0}
        for planner in list(state.planners.values()):
            snapshot = planner.plan_stats
            plan_cache["hits"] += snapshot.hits
            plan_cache["misses"] += snapshot.misses
            plan_cache["evictions"] += snapshot.evictions
        requests = plan_cache["hits"] + plan_cache["misses"]
        plan_cache["hit_rate"] = plan_cache["hits"] / requests if requests else 0.0
        return {
            "queries": self._queries,
            "batches": self._batches,
            "batched_requests": self._batched_requests,
            "batch_groups": self._batch_groups,
            "planners": len(state.planners),
            "cache": self._cache_stats.to_dict(),
            "plan_cache": plan_cache,
            "health": self._health(state),
        }
