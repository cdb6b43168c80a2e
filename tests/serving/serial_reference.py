"""A serial reference implementation of query serving, for equivalence tests.

:class:`~repro.serving.service.QueryService` answers every request through
one grouped path: misses are grouped by source cuboid, aggregated once per
group, sliced by one vectorised gather, and groups whose source fails its
digest check are retried after quarantining it.  This module answers the
same requests the plain way — one request at a time through the scalar
:meth:`QueryPlanner.answer` (and so :func:`slice_marginal`), with its own
newest-first routing and its own quarantine-and-retry loop — so tests can
demand that the two implementations agree bit for bit.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Union

from repro.core.result import ReleaseResult
from repro.exceptions import CorruptMarginalError, ReproError, ServingError
from repro.serving.planner import QueryPlanner, ServedAnswer
from repro.serving.service import QueryRequest, _coerce_request, resolve_predicate
from repro.serving.store import ReleaseStore


class SerialReference:
    """Answer requests one by one from a store or a single release.

    ``quarantined`` maps each release id (``None`` in single-release mode) to
    the cuboid masks this reference found corrupt.
    """

    def __init__(self, source: Union[ReleaseStore, ReleaseResult]):
        self._store = source if isinstance(source, ReleaseStore) else None
        self._planners: Dict[Optional[str], QueryPlanner] = (
            {} if self._store is not None else {None: QueryPlanner(source)}
        )
        self.quarantined: Dict[Optional[str], Set[int]] = {}

    def _planner(self, release_id: Optional[str]) -> QueryPlanner:
        if release_id not in self._planners:
            self._planners[release_id] = QueryPlanner(
                self._store.get(release_id),
                marginal_digests=self._store.marginal_digests(release_id),
            )
        return self._planners[release_id]

    def _exclude(self, release_id: Optional[str]) -> FrozenSet[int]:
        return frozenset(self.quarantined.get(release_id, ()))

    def answers(
        self, requests: Iterable[object], *, release_id: Optional[str] = None
    ) -> List[ServedAnswer]:
        if self._store is None:
            candidates: List[Optional[str]] = [None]
        elif release_id is not None:
            candidates = [release_id]
        else:
            candidates = list(reversed(self._store.release_ids()))
        return [self._answer(_coerce_request(r), candidates) for r in requests]

    def _answer(self, request: QueryRequest, candidates) -> ServedAnswer:
        while True:  # each corrupt source found restarts routing around it
            for rid in candidates:
                planner = self._planner(rid)
                schema = planner.release.workload.schema
                try:
                    if request.mask is not None:
                        query_mask = int(request.mask)
                    else:
                        query_mask = schema.mask_of(request.attributes or ())
                    fixed_mask, fixed_bits = resolve_predicate(schema, request.where)
                except ReproError:
                    continue
                exclude = self._exclude(rid)
                if not planner.covers(query_mask | fixed_mask, exclude=exclude):
                    continue
                try:
                    answer = planner.answer(
                        query_mask,
                        fixed_mask=fixed_mask,
                        fixed_bits=fixed_bits,
                        exclude=exclude,
                    )
                except CorruptMarginalError as error:
                    self.quarantined.setdefault(rid, set()).add(int(error.mask))
                    break
                return answer.with_provenance(release_id=rid)
            else:
                raise ServingError(f"no release answers {request!r}")
