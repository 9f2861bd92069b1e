"""HTTP front-end: endpoint round-trips and structured errors.

Each test boots the real asyncio server on an ephemeral localhost port
and speaks actual HTTP/1.1 over a socket — the same wire path ``repro
serve`` exposes — with a thread worker pool for speed.
"""

from __future__ import annotations

import asyncio
import json

from repro.schema import validate, validate_node
from repro.serve import CompileService, start_http_server
from repro.serve.schemas import (
    COMPARE_RESPONSE_SCHEMA,
    COMPILE_RESPONSE_SCHEMA,
    ERROR_SCHEMA,
    HEALTH_SCHEMA,
    STATS_SCHEMA,
    TRACE_RESPONSE_SCHEMA,
)


async def _roundtrip(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                "Host: localhost\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    head, _, response_body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), response_body


def serve(tmp_path, *requests):
    """Run *requests* (method, path[, payload]) against a live server."""

    async def flow():
        service = CompileService(jobs=0, cache_dir=tmp_path)
        server = await start_http_server(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        responses = []
        try:
            for request in requests:
                method, path = request[0], request[1]
                body = (
                    json.dumps(request[2]).encode()
                    if len(request) > 2 and not isinstance(request[2], bytes)
                    else (request[2] if len(request) > 2 else b"")
                )
                status, payload = await _roundtrip(port, method, path, body)
                responses.append((status, json.loads(payload)))
        finally:
            server.close()
            await server.wait_closed()
            service.close()
        return responses

    return asyncio.run(flow())


JOB = {"workload": "GHZ_n8", "machine": "grid:4x4:12", "compiler": "muss-ti"}


class TestEndpoints:
    def test_healthz(self, tmp_path):
        ((status, payload),) = serve(tmp_path, ("GET", "/healthz"))
        assert status == 200
        validate(payload, HEALTH_SCHEMA)
        validate_node(payload, HEALTH_SCHEMA)

    def test_compile_round_trip_and_cache_hit(self, tmp_path):
        responses = serve(
            tmp_path,
            ("POST", "/compile", JOB),
            ("POST", "/compile", JOB),
            ("GET", "/stats"),
        )
        (s1, first), (s2, second), (s3, stats) = responses
        assert (s1, s2, s3) == (200, 200, 200)
        validate(first, COMPILE_RESPONSE_SCHEMA)
        validate_node(first, COMPILE_RESPONSE_SCHEMA)
        assert first["cache"] == "miss"
        assert second["cache"] == "memory"
        assert first["report"] == second["report"]
        validate(stats, STATS_SCHEMA)
        assert stats["cache"]["memory_hits"] == 1
        assert stats["cache"]["misses"] == 1

    def test_trace_round_trip(self, tmp_path):
        ((status, payload),) = serve(
            tmp_path, ("POST", "/trace", {"workload": "GHZ_n8", "machine": "eml"})
        )
        assert status == 200
        validate(payload, TRACE_RESPONSE_SCHEMA)
        validate_node(payload, TRACE_RESPONSE_SCHEMA)

    def test_compare_round_trip(self, tmp_path):
        ((status, payload),) = serve(
            tmp_path, ("POST", "/compare", {"workload": "GHZ_n8"})
        )
        assert status == 200
        validate(payload, COMPARE_RESPONSE_SCHEMA)
        validate_node(payload, COMPARE_RESPONSE_SCHEMA)
        assert len(payload["rows"]) >= 2


class TestErrors:
    def test_bad_spec_is_a_structured_400_with_field(self, tmp_path):
        ((status, payload),) = serve(
            tmp_path, ("POST", "/compile", {"workload": "GHZ_n8", "machine": "bogus"})
        )
        assert status == 400
        validate(payload, ERROR_SCHEMA)
        validate_node(payload, ERROR_SCHEMA)
        assert payload["error"]["field"] == "machine"
        assert "Traceback" not in json.dumps(payload)

    def test_malformed_json_is_a_structured_400(self, tmp_path):
        ((status, payload),) = serve(tmp_path, ("POST", "/compile", b"{not json"))
        assert status == 400
        validate(payload, ERROR_SCHEMA)
        assert "Traceback" not in json.dumps(payload)

    def test_empty_body_is_a_structured_400(self, tmp_path):
        ((status, payload),) = serve(tmp_path, ("POST", "/compile"))
        assert status == 400
        validate(payload, ERROR_SCHEMA)

    def test_unknown_route_is_a_structured_404(self, tmp_path):
        ((status, payload),) = serve(tmp_path, ("GET", "/nope"))
        assert status == 404
        validate(payload, ERROR_SCHEMA)
        assert "/compile" in payload["error"]["message"]

    def test_wrong_method_is_a_405(self, tmp_path):
        responses = serve(tmp_path, ("POST", "/healthz"), ("GET", "/compile"))
        assert [status for status, _ in responses] == [405, 405]
        for _, payload in responses:
            validate(payload, ERROR_SCHEMA)

    def test_oversized_qft_is_a_400_on_workload(self, tmp_path):
        # QFT_n2048's phase angle pi/2**2047 once raised OverflowError,
        # which escaped job parsing as a 500.
        ((status, payload),) = serve(
            tmp_path, ("POST", "/compile", {"workload": "QFT_n2048"})
        )
        assert status == 400
        validate(payload, ERROR_SCHEMA)
        assert payload["error"]["field"] == "workload"
        assert "1024" in payload["error"]["message"]

    def test_unknown_field_is_a_400_naming_it(self, tmp_path):
        ((status, payload),) = serve(
            tmp_path, ("POST", "/compile", {"workload": "GHZ_n8", "shots": 100})
        )
        assert status == 400
        assert payload["error"]["field"] == "shots"


class TestFramingErrors:
    """A framing error gets ONE structured response, then the
    connection dies — it must never loop 413s at the client forever."""

    def _interact(self, tmp_path, raw_request: bytes) -> bytes:
        async def flow():
            service = CompileService(jobs=0, cache_dir=tmp_path)
            server = await start_http_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    writer.write(raw_request)
                    await writer.drain()
                    writer.write_eof()
                    # read() returns only at EOF: a server that keeps the
                    # connection alive after the error hangs right here.
                    return await asyncio.wait_for(reader.read(), timeout=10)
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionResetError, BrokenPipeError):
                        pass
            finally:
                server.close()
                await server.wait_closed()
                service.close()

        return asyncio.run(flow())

    def test_oversized_headers_one_413_then_close(self, tmp_path):
        from repro.serve.http import MAX_HEADER_BYTES

        filler = b"X-Filler: " + b"x" * (MAX_HEADER_BYTES + 1024) + b"\r\n"
        raw = self._interact(
            tmp_path, b"GET /healthz HTTP/1.1\r\n" + filler + b"\r\n"
        )
        assert raw.count(b"HTTP/1.1 413") == 1
        assert b"HTTP/1.1 200" not in raw
        assert b"Connection: close" in raw

    def test_truncated_body_one_400_then_close(self, tmp_path):
        raw = self._interact(
            tmp_path,
            b"POST /compile HTTP/1.1\r\nContent-Length: 100\r\n\r\n{tiny",
        )
        assert raw.count(b"HTTP/1.1 400") == 1
        assert b"Connection: close" in raw

    def test_bad_content_length_closes_before_pipelined_request(self, tmp_path):
        # The unread "body" of the broken request must not be re-parsed
        # as the next request; the connection dies after the 400, so the
        # pipelined /healthz never gets an answer.
        raw = self._interact(
            tmp_path,
            b"POST /compile HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\n\r\n",
        )
        assert raw.count(b"HTTP/1.1 400") == 1
        assert b"HTTP/1.1 200" not in raw

    def test_chunked_transfer_encoding_one_501_then_close(self, tmp_path):
        # A chunked body would be read as Content-Length: 0 and its bytes
        # replayed as the next request line — the classic desync
        # primitive.  The smuggled /healthz must never be answered.
        raw = self._interact(
            tmp_path,
            b"POST /compile HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\n\r\n",
        )
        assert raw.count(b"HTTP/1.1 501") == 1
        assert b"HTTP/1.1 200" not in raw
        assert b"Connection: close" in raw
        assert b"Content-Length" in raw  # the 501 itself is framed
        body = json.loads(raw.partition(b"\r\n\r\n")[2])
        validate(body, ERROR_SCHEMA)
        assert "Transfer-Encoding" in body["error"]["message"]

    def test_transfer_encoding_with_content_length_rejected(self, tmp_path):
        # TE + CL is the textbook smuggling pair; TE is rejected even
        # when a plausible Content-Length is present.
        raw = self._interact(
            tmp_path,
            b"POST /compile HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n{}",
        )
        assert raw.count(b"HTTP/1.1 501") == 1
        assert b"Connection: close" in raw

    def test_duplicate_content_length_one_400_then_close(self, tmp_path):
        raw = self._interact(
            tmp_path,
            b"POST /compile HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Content-Length: 2\r\n\r\n{}",
        )
        assert raw.count(b"HTTP/1.1 400") == 1
        assert b"Connection: close" in raw
        body = json.loads(raw.partition(b"\r\n\r\n")[2])
        validate(body, ERROR_SCHEMA)
        assert "duplicate Content-Length" in body["error"]["message"]

    def test_conflicting_content_length_one_400_then_close(self, tmp_path):
        # Two parsers in the path picking different lengths is the other
        # smuggling primitive — a silent last-win is never acceptable.
        raw = self._interact(
            tmp_path,
            b"POST /compile HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Content-Length: 40\r\n\r\n{}"
            b"GET /healthz HTTP/1.1\r\n\r\n",
        )
        assert raw.count(b"HTTP/1.1 400") == 1
        assert b"HTTP/1.1 200" not in raw
        body = json.loads(raw.partition(b"\r\n\r\n")[2])
        assert "conflicting Content-Length" in body["error"]["message"]

    def test_unsupported_version_one_505_then_close(self, tmp_path):
        raw = self._interact(tmp_path, b"GET /healthz HTTP/2.0\r\n\r\n")
        assert raw.count(b"HTTP/1.1 505") == 1
        assert b"Connection: close" in raw
        body = json.loads(raw.partition(b"\r\n\r\n")[2])
        validate(body, ERROR_SCHEMA)


class TestHttpVersionSemantics:
    """HTTP/1.0 defaults to close (keep-alive is opt-in); HTTP/1.1
    defaults to keep-alive (close is opt-out)."""

    def _session(self, tmp_path, flow):
        async def run():
            service = CompileService(jobs=0, cache_dir=tmp_path)
            server = await start_http_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    return await asyncio.wait_for(flow(reader, writer), timeout=10)
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionResetError, BrokenPipeError):
                        pass
            finally:
                server.close()
                await server.wait_closed()
                service.close()

        return asyncio.run(run())

    def test_http10_defaults_to_close(self, tmp_path):
        async def flow(reader, writer):
            # No Connection header, client side stays open for writing:
            # read() returning proves the *server* closed the stream.
            writer.write(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
            await writer.drain()
            return await reader.read()

        raw = self._session(tmp_path, flow)
        assert raw.count(b"HTTP/1.1 200") == 1
        assert b"Connection: close" in raw

    def test_http10_keep_alive_is_honored_when_asked(self, tmp_path):
        async def flow(reader, writer):
            request = (
                b"GET /healthz HTTP/1.0\r\nHost: x\r\n"
                b"Connection: keep-alive\r\n\r\n"
            )
            writer.write(request)
            await writer.drain()
            first = await reader.readuntil(b"\r\n\r\n")
            length = int(
                [
                    line.split(b":")[1]
                    for line in first.split(b"\r\n")
                    if line.lower().startswith(b"content-length")
                ][0]
            )
            await reader.readexactly(length)
            # Second request on the same connection must be answered.
            writer.write(request)
            await writer.drain()
            second = await reader.readuntil(b"\r\n\r\n")
            return first, second

        first, second = self._session(tmp_path, flow)
        assert first.startswith(b"HTTP/1.1 200")
        assert second.startswith(b"HTTP/1.1 200")
        assert b"Connection: keep-alive" in first


class TestCoalescingOverHttp:
    def test_concurrent_identical_posts_share_one_execution(self, tmp_path):
        async def flow():
            service = CompileService(jobs=0, cache_dir=tmp_path)
            server = await start_http_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            body = json.dumps(JOB).encode()
            try:
                responses = await asyncio.gather(
                    *(_roundtrip(port, "POST", "/compile", body) for _ in range(5))
                )
                stats = service.stats()
            finally:
                server.close()
                await server.wait_closed()
                service.close()
            return responses, stats

        responses, stats = asyncio.run(flow())
        assert all(status == 200 for status, _ in responses)
        reports = {
            json.dumps(json.loads(payload)["report"], sort_keys=True)
            for _, payload in responses
        }
        assert len(reports) == 1
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["coalesced"] + stats["cache"]["memory_hits"] == 4
