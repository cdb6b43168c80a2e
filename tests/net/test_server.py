"""End-to-end tests of the HTTP serving tier over a real socket."""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.net.protocol import answer_payload, encode_canonical
from repro.net.server import BackgroundServer, QueryServer, ServerConfig
from repro.obs import tracing
from repro.serving.service import QueryService
from repro.serving.store import ReleaseStore
from tests.store_files import corrupt_marginal


@pytest.fixture
def server(service, client_factory):
    config = ServerConfig(port=0)
    with BackgroundServer(service, config) as background:
        yield background


@pytest.fixture
def client(server, client_factory):
    return client_factory(server.address)


class TestEndpoints:
    def test_healthz(self, client):
        status, _, body = client.get("/healthz")
        assert status == 200
        assert json.loads(body) == {"ok": True, "draining": False}

    def test_readyz_on_a_healthy_store(self, client):
        status, _, body = client.get("/readyz")
        payload = json.loads(body)
        assert status == 200
        assert payload["ready"] is True
        assert payload["health"]["ok"] is True
        assert payload["open_breakers"] == {}

    def test_statsz_carries_the_obs_schema_and_server_block(self, client):
        status, _, body = client.get("/statsz")
        payload = json.loads(body)
        assert status == 200
        assert payload["schema"] == "repro.obs/v1"
        server_stats = payload["server"]
        assert {"admission", "batching", "breaker", "service"} <= set(server_stats)

    def test_unknown_path_is_404(self, client):
        status, _, body = client.get("/nope")
        assert status == 404

    def test_wrong_method_is_405_with_allow(self, client):
        status, headers, _ = client.get("/v1/query")
        assert status == 405
        assert headers["Allow"] == "POST"

    def test_statsz_validates_as_a_trace_payload(self, client):
        from repro.obs import validate_payload

        _, _, body = client.get("/statsz")
        validate_payload(json.loads(body))


class TestQueries:
    def test_single_query_matches_in_process_byte_for_byte(
        self, client, store
    ):
        reference = QueryService(store)
        status, _, body = client.post_json("/v1/query", {"attributes": ["a", "b"]})
        assert status == 200
        expected = encode_canonical(
            answer_payload(reference.query(["a", "b"]))
        )
        assert body == expected

    def test_batch_array_matches_in_process(self, client, store):
        reference = QueryService(store)
        queries = [
            {"attributes": ["a"]},
            {"attributes": ["b", "c"]},
            {"attributes": ["a"], "where": {"b": 1}},
        ]
        status, headers, body = client.post_json("/v1/query/batch", queries)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        expected = encode_canonical(
            [
                answer_payload(answer)
                for answer in reference.query_batch(
                    [
                        {"attributes": ("a",)},
                        {"attributes": ("b", "c")},
                        {"attributes": ("a",), "where": {"b": 1}},
                    ]
                )
            ]
        )
        assert body == expected

    def test_batch_ndjson_in_ndjson_out(self, client):
        nd = b'{"attributes":["a"]}\n{"mask":3}\n'
        status, headers, body = client.request(
            "POST",
            "/v1/query/batch",
            body=nd,
            headers={"Content-Type": "application/x-ndjson"},
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        lines = [line for line in body.split(b"\n") if line]
        assert len(lines) == 2
        for line in lines:
            payload = json.loads(line)
            assert "values" in payload and payload["release"] == "release-0001"

    def test_pinned_release_roundtrips(self, client):
        status, _, body = client.post_json(
            "/v1/query", {"attributes": ["a"], "release": "release-0001"}
        )
        assert status == 200
        assert json.loads(body)["release"] == "release-0001"

    def test_unknown_attribute_is_400_not_500(self, client):
        status, _, body = client.post_json("/v1/query", {"attributes": ["zz"]})
        assert status == 400
        assert "error" in json.loads(body)

    def test_uncovered_marginal_is_400(self, client):
        status, _, body = client.post_json(
            "/v1/query", {"attributes": ["a", "b", "c"]}
        )
        assert status == 400
        assert "covers" in json.loads(body)["error"]

    def test_mixed_release_pins_in_one_batch_are_rejected(self, client):
        status, _, body = client.post_json(
            "/v1/query/batch",
            [
                {"attributes": ["a"], "release": "release-0001"},
                {"attributes": ["b"], "release": "release-0002"},
            ],
        )
        assert status == 400
        assert "same release" in json.loads(body)["error"]

    def test_empty_batch_is_400(self, client):
        status, _, _ = client.post_json("/v1/query/batch", [])
        assert status == 400

    def test_malformed_json_is_400(self, client):
        status, _, _ = client.request(
            "POST", "/v1/query", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400

    def test_keep_alive_across_requests(self, client):
        for _ in range(3):
            status, _, _ = client.post_json("/v1/query", {"attributes": ["a"]})
            assert status == 200


class TestShedding:
    def test_oversized_batch_sheds_with_503_and_retry_after(
        self, service, client_factory
    ):
        config = ServerConfig(port=0, max_pending=2)
        with BackgroundServer(service, config) as background:
            client = client_factory(background.address)
            queries = [{"attributes": ["a"]}] * 5  # weight 5 > max_pending 2
            status, headers, body = client.post_json("/v1/query/batch", queries)
            assert status == 503
            payload = json.loads(body)
            assert payload["reason"] == "queue_full"
            assert int(headers["Retry-After"]) >= 1
            # Within-capacity traffic still flows.
            status, _, _ = client.post_json("/v1/query", {"attributes": ["a"]})
            assert status == 200
            stats = background.server.server_stats()
            assert stats["admission"]["shed_by_reason"]["queue_full"] == 1

    def test_expired_deadline_is_504_and_never_aggregated(
        self, service, client_factory, monkeypatch
    ):
        # Hold one request's batch in flight so a second request queues
        # behind it; the second's deadline clears admission's wait estimate
        # but expires before the hold ends, so the completion flush must
        # drop it un-aggregated.
        gate = threading.Event()
        entered = threading.Event()
        query_batch = service.query_batch

        def held_query_batch(requests, release_id=None):
            entered.set()
            gate.wait(timeout=30.0)
            return query_batch(requests, release_id=release_id)

        monkeypatch.setattr(service, "query_batch", held_query_batch)
        with BackgroundServer(service, ServerConfig(port=0)) as background:
            batches_before = service.stats()["batches"]
            with ThreadPoolExecutor(max_workers=1) as pool:
                held = pool.submit(
                    client_factory(background.address).post_json,
                    "/v1/query",
                    {"attributes": ["a"]},
                )
                assert entered.wait(timeout=10.0)
                timer = threading.Timer(0.5, gate.set)
                timer.start()
                try:
                    status, _, _ = client_factory(background.address).post_json(
                        "/v1/query",
                        {"attributes": ["a", "b"]},
                        headers={"X-Deadline-Ms": "100"},
                    )
                finally:
                    timer.join(timeout=10.0)
                assert held.result(timeout=10.0)[0] == 200
            assert status == 504
            assert service.stats()["batches"] == batches_before + 1

    def test_draining_requests_get_503(self, server, client_factory):
        client = client_factory(server.address)
        status, _, _ = client.post_json("/v1/query", {"attributes": ["a"]})
        assert status == 200
        server.server._draining = True
        try:
            status, _, body = client.post_json("/v1/query", {"attributes": ["a"]})
            assert status == 503
            assert json.loads(body)["reason"] == "draining"
        finally:
            server.server._draining = False


class TestDrain:
    def test_drain_reports_no_aborts_and_refuses_new_connections(
        self, service, client_factory
    ):
        import socket

        config = ServerConfig(port=0)
        background = BackgroundServer(service, config)
        host, port = background.start()
        client = client_factory((host, port))
        for _ in range(3):
            status, _, _ = client.post_json("/v1/query", {"attributes": ["a"]})
            assert status == 200
        report = background.stop()
        assert report == {"completed": 0, "aborted": 0}
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    def test_drain_is_idempotent(self, service):
        config = ServerConfig(port=0)
        background = BackgroundServer(service, config)
        background.start()
        first = background.drain()
        assert background.drain() == first
        background.stop()


class TestBreaker:
    @pytest.fixture
    def corrupt_store(self, tmp_path, release) -> ReleaseStore:
        """A store whose first 2-way cuboid's vector was tampered with."""
        store = ReleaseStore(tmp_path / "cstore")
        rid = store.put(release)
        clean = QueryService(ReleaseStore(tmp_path / "cstore", create=False))
        # Corrupt the source that serves the 1-way 'a' marginal: after the
        # quarantine, other 2-way cuboids containing 'a' still cover it, so
        # the query degrades instead of failing.
        answer = clean.query(["a"])
        corrupt_marginal(store.root, rid, answer.plan.source_position, release)
        return ReleaseStore(tmp_path / "cstore", create=False)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_degraded_pinned_answers_trip_the_breaker(
        self, corrupt_store, client_factory
    ):
        service = QueryService(corrupt_store)
        config = ServerConfig(port=0, breaker_threshold=1, breaker_cooldown_s=60.0)
        with BackgroundServer(service, config) as background:
            client = client_factory(background.address)
            # First pinned query: served, but degraded (quarantined source).
            status, _, body = client.post_json(
                "/v1/query",
                {"attributes": ["a"], "release": "release-0001"},
            )
            assert status == 200
            assert json.loads(body)["degraded"] is True
            # The breaker opened: the next pinned request is refused fast.
            status, headers, body = client.post_json(
                "/v1/query",
                {"attributes": ["a"], "release": "release-0001"},
            )
            assert status == 503
            assert json.loads(body)["reason"] == "breaker_open"
            assert int(headers["Retry-After"]) >= 1
            # Unpinned queries on healthy cuboids still flow.
            status, _, _ = client.post_json("/v1/query", {"attributes": ["b", "c"]})
            assert status == 200
            # Readiness reflects the open breaker.
            status, _, body = client.get("/readyz")
            assert status == 503
            assert "release-0001" in json.loads(body)["open_breakers"]


    def test_client_errors_do_not_trip_the_breaker(self, service, client_factory):
        # Regression: a request-validation 400 used to count as a breaker
        # failure, so one misbehaving client pinning a release could 503
        # everyone else's valid pinned traffic and flip /readyz.
        config = ServerConfig(port=0, breaker_threshold=1)
        with BackgroundServer(service, config) as background:
            client = client_factory(background.address)
            bad = {"attributes": ["zz"], "release": "release-0001"}
            for _ in range(3):
                status, _, _ = client.post_json("/v1/query", bad)
                assert status == 400
            status, _, _ = client.post_json(
                "/v1/query", {"attributes": ["a"], "release": "release-0001"}
            )
            assert status == 200
            status, _, _ = client.get("/readyz")
            assert status == 200

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_aborted_probe_does_not_wedge_the_breaker(
        self, corrupt_store, client_factory
    ):
        # Regression: a half-open probe exiting through the 504 path left
        # probing=True forever — every later pinned request was refused and
        # none could ever be admitted to clear the breaker.
        import time

        service = QueryService(corrupt_store)
        config = ServerConfig(port=0, breaker_threshold=1, breaker_cooldown_s=0.2)
        with BackgroundServer(service, config) as background:
            client = client_factory(background.address)
            pinned = {"attributes": ["a"], "release": "release-0001"}
            status, _, body = client.post_json("/v1/query", pinned)
            assert status == 200 and json.loads(body)["degraded"] is True
            status, _, _ = client.post_json("/v1/query", pinned)
            assert status == 503  # breaker opened on the degraded answer
            time.sleep(0.3)  # cooldown elapses -> half-open
            # The probe's deadline expires while queued: 504, no verdict.
            status, _, _ = client.post_json(
                "/v1/query", pinned, headers={"X-Deadline-Ms": "0.001"}
            )
            assert status == 504
            # The aborted probe freed the slot: the next pinned request is
            # admitted as the new probe instead of being refused forever.
            status, _, body = client.post_json("/v1/query", pinned)
            assert status == 200
            assert json.loads(body)["degraded"] is True


class TestObservability:
    def test_request_spans_and_gauges_reach_statsz(self, store, client_factory):
        service = QueryService(store)
        config = ServerConfig(port=0)
        with tracing() as recorder:
            with BackgroundServer(service, config) as background:
                client = client_factory(background.address)
                for _ in range(3):
                    status, _, _ = client.post_json(
                        "/v1/query", {"attributes": ["a"]}
                    )
                    assert status == 200
                _, _, body = client.get("/statsz")
        payload = json.loads(body)
        assert payload["span_durations"]["net.request"]["count"] == 3
        assert payload["metrics"]["gauges"]["net.queue_depth"] == 0.0
        assert recorder.metrics.snapshot()["counters"]["net.requests"] >= 3


class TestWorkers:
    def test_edge_and_service_agree_on_the_worker_count(self, store, monkeypatch):
        # Regression: with no explicit count the edge sized its executor and
        # admission estimate for max(2, cpu_count) workers while the service
        # aggregated on cpu_count — 2 vs 1 on a one-core host.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        service = QueryService(store)
        server = QueryServer(service)
        assert service.batch_workers == 1
        assert server.workers == 1
        assert server.server_stats()["admission"]["workers"] == 1
        assert QueryServer(QueryService(store, batch_workers=3)).workers == 3
