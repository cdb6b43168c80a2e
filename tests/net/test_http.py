"""Unit tests of the HTTP/1.1 parsing layer (no sockets: fed streams)."""

from __future__ import annotations

import asyncio

import pytest

from repro.net.http import (
    ProtocolError,
    error_body,
    read_request,
    render_response,
    retry_after_headers,
)


def parse(raw: bytes, **kwargs):
    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(_run())


class TestReadRequest:
    def test_simple_get(self):
        request = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/healthz"
        assert request.headers["host"] == "x"
        assert request.body == b""
        assert request.keep_alive

    def test_post_with_body(self):
        raw = (
            b"POST /v1/query HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 7\r\n\r\n"
            b'{"a":1}'
        )
        request = parse(raw)
        assert request.method == "POST"
        assert request.body == b'{"a":1}'

    def test_query_string(self):
        request = parse(b"GET /statsz?pretty=1&q=a%20b HTTP/1.1\r\n\r\n")
        assert request.path == "/statsz"
        assert request.query == {"pretty": "1", "q": "a b"}

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_connection_close_header(self):
        request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_truncated_body_is_400_and_closes(self):
        raw = b"POST /v1/query HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"a\":"
        with pytest.raises(ProtocolError) as excinfo:
            parse(raw)
        assert excinfo.value.status == 400
        assert "truncated request body" in str(excinfo.value)
        assert excinfo.value.close_connection

    def test_oversized_body_is_413(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n"
        with pytest.raises(ProtocolError) as excinfo:
            parse(raw, max_body_bytes=100)
        assert excinfo.value.status == 413

    def test_malformed_content_length_is_400(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"
        with pytest.raises(ProtocolError) as excinfo:
            parse(raw)
        assert excinfo.value.status == 400

    def test_negative_content_length_is_400(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        with pytest.raises(ProtocolError) as excinfo:
            parse(raw)
        assert excinfo.value.status == 400

    def test_chunked_encoding_is_501(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(ProtocolError) as excinfo:
            parse(raw)
        assert excinfo.value.status == 501

    def test_malformed_request_line_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse(b"BROKEN\r\n\r\n")
        assert excinfo.value.status == 400

    def test_unsupported_version_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse(b"GET / HTTP/0.9\r\n\r\n")
        assert excinfo.value.status == 400

    def test_malformed_header_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert excinfo.value.status == 400

    def test_too_many_headers_is_400(self):
        headers = b"".join(b"H%d: v\r\n" % i for i in range(100))
        with pytest.raises(ProtocolError) as excinfo:
            parse(b"GET / HTTP/1.1\r\n" + headers + b"\r\n")
        assert excinfo.value.status == 400

    def test_line_past_the_stream_limit_is_400_and_closes(self):
        # Longer than the StreamReader's own 64 KiB buffer limit, so
        # readuntil() gives up before MAX_LINE_BYTES is even checked.
        raw = b"GET / HTTP/1.1\r\nX-Long: " + b"a" * (1 << 16) + b"\r\n\r\n"
        with pytest.raises(ProtocolError) as excinfo:
            parse(raw)
        assert excinfo.value.status == 400
        assert excinfo.value.close_connection

    def test_header_float_rejects_garbage(self):
        request = parse(b"GET / HTTP/1.1\r\nX-Deadline-Ms: soon\r\n\r\n")
        with pytest.raises(ProtocolError) as excinfo:
            request.header_float("x-deadline-ms")
        assert excinfo.value.status == 400

    def test_header_float_parses(self):
        request = parse(b"GET / HTTP/1.1\r\nX-Deadline-Ms: 250\r\n\r\n")
        assert request.header_float("x-deadline-ms") == 250.0
        assert request.header_float("missing") is None

    def test_conflicting_content_lengths_are_400_and_close(self):
        # RFC 7230 §3.3.2: differing duplicate Content-Length values make
        # the framing ambiguous — must reject, not let the last one win.
        raw = (
            b"POST / HTTP/1.1\r\n"
            b"Content-Length: 7\r\n"
            b"Content-Length: 3\r\n\r\n"
            b'{"a":1}'
        )
        with pytest.raises(ProtocolError) as excinfo:
            parse(raw)
        assert excinfo.value.status == 400
        assert "Content-Length" in str(excinfo.value)
        assert excinfo.value.close_connection

    def test_identical_duplicate_content_lengths_are_tolerated(self):
        raw = (
            b"POST / HTTP/1.1\r\n"
            b"Content-Length: 7\r\n"
            b"Content-Length: 7\r\n\r\n"
            b'{"a":1}'
        )
        assert parse(raw).body == b'{"a":1}'

    def test_http10_defaults_to_close(self):
        request = parse(b"GET / HTTP/1.0\r\nHost: x\r\n\r\n")
        assert request.version == "HTTP/1.0"
        assert not request.keep_alive

    def test_http10_explicit_keep_alive_is_honoured(self):
        request = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        assert request.keep_alive

    def test_http11_defaults_to_keep_alive(self):
        assert parse(b"GET / HTTP/1.1\r\n\r\n").version == "HTTP/1.1"
        assert parse(b"GET / HTTP/1.1\r\n\r\n").keep_alive

    def test_keepalive_parses_two_requests_off_one_stream(self):
        async def _run():
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\n\r\n"
            )
            reader.feed_eof()
            first = await read_request(reader)
            second = await read_request(reader)
            third = await read_request(reader)
            return first, second, third

        first, second, third = asyncio.run(_run())
        assert first.path == "/one"
        assert second.path == "/two"
        assert third is None


class TestRendering:
    def test_render_response_roundtrip(self):
        wire = render_response(200, b'{"ok":true}', keep_alive=True)
        head, _, body = wire.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 11" in head
        assert b"Connection: keep-alive" in head
        assert body == b'{"ok":true}'

    def test_render_response_close(self):
        wire = render_response(503, b"{}", keep_alive=False)
        assert b"Connection: close" in wire

    def test_extra_headers(self):
        wire = render_response(503, b"{}", extra_headers=(("Retry-After", "2"),))
        assert b"Retry-After: 2\r\n" in wire

    def test_error_body_shape(self):
        import json

        payload = json.loads(error_body(503, "shed", reason="queue_full"))
        assert payload == {"error": "shed", "status": 503, "reason": "queue_full"}

    def test_retry_after_ceils_to_at_least_one_second(self):
        assert retry_after_headers(0.01) == (("Retry-After", "1"),)
        assert retry_after_headers(2.3) == (("Retry-After", "3"),)
