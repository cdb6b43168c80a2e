"""HTTP answers are byte-for-byte the in-process answers (hypothesis).

The server and the tests share one canonical JSON encoder
(:func:`repro.net.protocol.encode_canonical`), so equality here is byte
equality of response bodies — values, masks, error bars, provenance flags
and all.  A *reference* :class:`QueryService` over the same store receives
the identical call sequence the server's service does, which keeps both
answer caches in lockstep and makes even the ``cached`` flag comparable.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.protocol import answer_payload, encode_canonical
from repro.net.server import BackgroundServer, ServerConfig
from repro.serving.service import QueryRequest, QueryService
from repro.serving.store import ReleaseStore
from tests.store_files import corrupt_marginal

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        # One server (and its paired reference service) deliberately serves
        # every example: both sides see the identical call sequence, so
        # their cache states evolve in lockstep.
        HealthCheck.function_scoped_fixture,
    ],
)

NAMES = ["a", "b", "c", "d", "e"]

# Queries a 2-way release can always answer: one or two free attributes,
# optionally pinning one *other* attribute (total involved bits <= 2).
query_objects = st.one_of(
    # 1- or 2-way marginal, no predicate.
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True).map(
        lambda attrs: {"attributes": attrs}
    ),
    # 1-way marginal with one other attribute fixed.
    st.tuples(
        st.sampled_from(NAMES), st.sampled_from(NAMES), st.integers(0, 1)
    )
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: {"attributes": [t[0]], "where": {t[1]: t[2]}}),
    # Total count with one attribute fixed (a point/slice query).
    st.tuples(st.sampled_from(NAMES), st.integers(0, 1)).map(
        lambda t: {"attributes": [], "where": {t[0]: t[1]}}
    ),
)


def to_request(obj: dict) -> QueryRequest:
    return QueryRequest(
        attributes=tuple(obj["attributes"]) if obj.get("attributes") is not None else None,
        where=obj.get("where"),
    )


@pytest.fixture
def paired(service, store, client_factory):
    """The HTTP server plus a reference service fed the same sequence."""
    reference = QueryService(store)
    config = ServerConfig(port=0)
    with BackgroundServer(service, config) as background:
        yield client_factory(background.address), reference


class TestEquivalence:
    @SETTINGS
    @given(batch=st.lists(query_objects, min_size=1, max_size=8))
    def test_batch_bodies_match_in_process_byte_for_byte(self, paired, batch):
        client, reference = paired
        status, _, body = client.post_json("/v1/query/batch", batch)
        assert status == 200
        expected = encode_canonical(
            [
                answer_payload(answer)
                for answer in reference.query_batch(
                    [to_request(obj) for obj in batch]
                )
            ]
        )
        assert body == expected

    @SETTINGS
    @given(query=query_objects)
    def test_single_bodies_match_in_process_byte_for_byte(self, paired, query):
        client, reference = paired
        status, _, body = client.post_json("/v1/query", query)
        assert status == 200
        # The server answers singles through the (grouped) batch path; the
        # grouped path is bitwise identical to the serial one, so comparing
        # against reference.query() also checks that contract end to end.
        expected = encode_canonical(
            answer_payload(
                reference.query(
                    query.get("attributes"), where=query.get("where") or None
                )
            )
        )
        assert body == expected


class TestDegradedEquivalence:
    @pytest.fixture
    def corrupt_store_dir(self, tmp_path, release) -> Path:
        """A store whose 'a'-serving cuboid was corrupted in place."""
        root = tmp_path / "cstore"
        store = ReleaseStore(root)
        rid = store.put(release)
        probe = QueryService(ReleaseStore(root, create=False))
        answer = probe.query(["a"])
        corrupt_marginal(root, rid, answer.plan.source_position, release)
        return root

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_degraded_answers_match_in_process(
        self, corrupt_store_dir, client_factory
    ):
        service = QueryService(ReleaseStore(corrupt_store_dir, create=False))
        reference = QueryService(ReleaseStore(corrupt_store_dir, create=False))
        config = ServerConfig(port=0)
        queries = [
            {"attributes": ["a"]},          # quarantines, then degrades
            {"attributes": ["a"]},          # degraded again (memoised route)
            {"attributes": ["b", "c"]},     # healthy cuboid, unaffected
            {"attributes": ["a"], "where": {"c": 1}},
        ]
        with BackgroundServer(service, config) as background:
            client = client_factory(background.address)
            for query in queries:
                status, _, body = client.post_json("/v1/query", query)
                assert status == 200
                expected = encode_canonical(
                    answer_payload(
                        reference.query(
                            query["attributes"], where=query.get("where")
                        )
                    )
                )
                assert body == expected
        # Both sides independently quarantined the same cuboid.
        assert service.health()["quarantined"] == reference.health()["quarantined"]
        assert service.health()["ok"] is False
