"""Fault injection at the serving edge: torn reads and handler crashes.

The contracts under test:

* a ``net.read`` fault (the socket dying mid-upload) is a clean 400 that
  closes the connection — the body is never parsed, no query is admitted,
  and nothing reaches the aggregation path;
* a ``net.handler`` fault (a crash between admission and batching) is a
  clean 500 marked retryable, and the admission slot is released — the
  queue can never leak capacity through errors;
* under *any* retryable fault plan, a retrying client eventually gets an
  answer, and every 200 it ever receives is byte-for-byte the in-process
  answer: faults may cost retries, never correctness.
"""

from __future__ import annotations

import json

import pytest

from repro.net.protocol import answer_payload, encode_canonical
from repro.net.server import BackgroundServer, ServerConfig
from repro.resilience.faults import FaultPlan, FaultSpec, fault_injection
from repro.serving.service import QueryService


@pytest.fixture
def server(service, client_factory):
    config = ServerConfig(port=0)
    with BackgroundServer(service, config) as background:
        yield background


class TestNetReadFaults:
    def test_torn_body_read_is_400_and_never_aggregates(
        self, server, service, client_factory
    ):
        plan = FaultPlan([FaultSpec("net.read", hits=(1,))])
        batches_before = service.stats()["batches"]
        with fault_injection(plan) as injector:
            client = client_factory(server.address)
            status, _, body = client.post_json(
                "/v1/query", {"attributes": ["a", "b"]}
            )
            assert status == 400
            assert "read failed" in json.loads(body)["error"]
            assert injector.injected("net.read") == 1
            # Nothing was admitted, nothing was aggregated.
            assert service.stats()["batches"] == batches_before
            assert server.server.server_stats()["accepted"] == 0
            # The connection was closed (stream position untrusted); a new
            # connection retries the same request successfully.
            retry = client_factory(server.address)
            status, _, _ = retry.post_json("/v1/query", {"attributes": ["a", "b"]})
            assert status == 200

    def test_healthz_has_no_body_and_survives_read_faults(
        self, server, client_factory
    ):
        # GET requests carry no body, so the body-read site never fires.
        plan = FaultPlan([FaultSpec("net.read", hits=(1, 2, 3))])
        with fault_injection(plan) as injector:
            client = client_factory(server.address)
            status, _, _ = client.get("/healthz")
            assert status == 200
            assert injector.injected("net.read") == 0


class TestNetHandlerFaults:
    def test_handler_crash_is_a_clean_500_that_releases_admission(
        self, server, service, client_factory
    ):
        plan = FaultPlan([FaultSpec("net.handler", hits=(1,))])
        with fault_injection(plan) as injector:
            client = client_factory(server.address)
            status, _, body = client.post_json(
                "/v1/query", {"attributes": ["a", "b"]}
            )
            assert status == 500
            payload = json.loads(body)
            assert payload["retryable"] is True
            assert injector.injected("net.handler") == 1
            stats = server.server.server_stats()
            # The admission slot came back: nothing pending, nothing leaked.
            assert stats["admission"]["pending"] == 0
            # Same connection, same request: succeeds on retry.
            status, _, _ = client.post_json("/v1/query", {"attributes": ["a", "b"]})
            assert status == 200


class TestRetryableFaultPlansNeverCorruptAnswers:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_200_under_a_noisy_plan_is_byte_exact(
        self, service, store, client_factory
    ):
        reference = QueryService(store)
        config = ServerConfig(port=0)
        plan = FaultPlan(
            [
                FaultSpec("net.read", rate=0.3),
                # Every request that passes the read reaches the handler, so a
                # hit schedule fires however the request bytes arrive.
                FaultSpec("net.handler", hits=(1, 3)),
            ],
            seed=11,
        )
        queries = [
            {"attributes": ["a"]},
            {"attributes": ["a", "b"]},
            {"attributes": ["c"], "where": {"d": 1}},
            {"attributes": ["d", "e"]},
        ]
        with BackgroundServer(service, config) as background:
            with fault_injection(plan) as injector:
                for query in queries:
                    expected = encode_canonical(
                        answer_payload(
                            reference.query(
                                query["attributes"], where=query.get("where")
                            )
                        )
                    )
                    for attempt in range(50):
                        client = client_factory(background.address)
                        status, _, body = client.post_json("/v1/query", query)
                        if status == 200:
                            break
                        assert status in (400, 500)  # only injected failures
                    else:
                        pytest.fail("retryable plan never let the query through")
                    assert body == expected
                assert injector.injected() > 0  # the plan actually fired
