"""Load generator for the compilation service: ``repro bench serve``.

Boots a :class:`~repro.serve.service.CompileService` plus its HTTP
front-end on an ephemeral localhost port, drives a configurable request
mix at a configurable concurrency through *real* HTTP connections, and
records latency/throughput cells into the same schema-validated
``BENCH_<date>.json`` trajectory the microbenchmark suite feeds — so
service performance is guarded by ``repro bench compare`` exactly like
scheduler performance is.

Three phases, three cells:

* ``serve-cold`` — a fresh cache (private temp dir), so every distinct
  job in the mix executes once and concurrent duplicates exercise the
  coalescer,
* ``serve-warm`` — the identical request list again, now served from
  the in-memory tier; the cold/warm p50 ratio is the cache's measured
  speedup and is printed after the run,
* ``serve-backpressure`` — the same mix against a second service booted
  with ``max_inflight_per_client=1`` and its own cold cache, so the
  concurrent workers (all one client address) collide with the
  per-client limiter and the 429 path is exercised under real load.

Each cell records request count, concurrency, error count, rejected
(429) count, p50/p99 latency (ms) and throughput (requests/s).  The
percentile samples cover **successful** requests only: a transport
failure or error response has a latency that measures the failure mode
(connect timeout, instant rejection), not the service, and folding it
into the percentiles skews the cells both ways.  Failed-request
latencies are kept separately for diagnostics.  ``--quick`` shrinks the
mix and concurrency to a seconds-scale CI smoke run.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .http import start_http_server
from .service import CompileService

#: The request mix: small, structurally different jobs across both
#: machine families plus a trace, so the mix exercises compile and
#: trace paths and more than one cache key.
DEFAULT_MIX: tuple[tuple[str, dict], ...] = (
    ("/compile", {"workload": "GHZ_n16", "machine": "grid:2x2:12"}),
    ("/compile", {"workload": "GHZ_n16", "machine": "eml"}),
    ("/compile", {"workload": "QFT_n16", "machine": "eml"}),
    ("/compile", {"workload": "GHZ_n16", "machine": "eml", "physics": "perfect-gate"}),
    ("/trace", {"workload": "GHZ_n16", "machine": "grid:2x2:12"}),
)

#: Identity fields of the serve cells in ``BENCH_*.json``; stable
#: across runs so ``repro bench compare`` matches them by key.
MIX_LABEL = "mix:compile+trace"


@dataclass
class PhaseResult:
    """One load phase: outcome counters plus per-outcome latencies.

    ``latencies_ms`` holds successful (HTTP 200) requests only — the
    population the percentile cells are computed from.  Rejected (429)
    and failed requests are counted separately and their latencies kept
    in ``failed_latencies_ms`` for diagnostics, never mixed into the
    percentile samples.
    """

    phase: str
    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    failed_latencies_ms: list[float] = field(default_factory=list)
    errors: int = 0
    rejected: int = 0

    def record(self, status: int, elapsed_ms: float) -> None:
        """File one finished request under its outcome.

        ``status`` 0 means the transport failed before a status line
        arrived (dropped connection, garbled response).
        """
        if status == 200:
            self.latencies_ms.append(elapsed_ms)
            return
        self.failed_latencies_ms.append(elapsed_ms)
        if status == 429:
            self.rejected += 1
        else:
            self.errors += 1

    @property
    def attempts(self) -> int:
        return len(self.latencies_ms) + len(self.failed_latencies_ms)

    def percentile(self, q: float) -> float:
        ordered = sorted(self.latencies_ms)
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
        return ordered[index]

    @property
    def throughput_rps(self) -> float:
        return len(self.latencies_ms) / self.wall_s if self.wall_s > 0 else 0.0

    def cell(self, concurrency: int) -> dict:
        return {
            "workload": MIX_LABEL,
            "machine": "mix",
            "compiler": "mix",
            "mode": f"serve-{self.phase}",
            "concurrency": concurrency,
            "requests": self.attempts,
            "errors": self.errors,
            "rejected": self.rejected,
            "p50_ms": round(self.percentile(0.50), 3),
            "p99_ms": round(self.percentile(0.99), 3),
            "throughput_rps": round(self.throughput_rps, 2),
        }


async def _request(host: str, port: int, path: str, payload: dict) -> tuple[int, bytes]:
    """One HTTP POST over a fresh connection; returns (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode()
        writer.write(
            (
                f"POST {path} HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                "Content-Type: application/json\r\n"
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
    status = int(head.split(b" ", 2)[1])
    return status, response_body


async def _run_phase(
    host: str,
    port: int,
    phase: str,
    request_list: list[tuple[str, dict]],
    concurrency: int,
) -> PhaseResult:
    queue: asyncio.Queue = asyncio.Queue()
    for item in request_list:
        queue.put_nowait(item)
    result = PhaseResult(phase)

    async def worker() -> None:
        while True:
            try:
                path, payload = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            started = time.perf_counter()
            try:
                status, _ = await _request(host, port, path, payload)
            except (OSError, EOFError, ValueError, IndexError):
                # A dropped connection or garbled response is one failed
                # request, not a reason to abort the whole bench run.
                status = 0
            result.record(status, (time.perf_counter() - started) * 1000.0)

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    result.wall_s = time.perf_counter() - started
    return result


def _request_list(requests: int) -> list[tuple[str, dict]]:
    """Round-robin through the mix until *requests* entries exist — so
    duplicates are plentiful and the coalescer/cache actually works."""
    return [DEFAULT_MIX[index % len(DEFAULT_MIX)] for index in range(requests)]


async def _run_load(
    *, requests: int, concurrency: int, jobs: int | None, cache_dir: str
) -> tuple[PhaseResult, PhaseResult, PhaseResult, dict]:
    request_list = _request_list(requests)
    service = CompileService(jobs=jobs, cache_dir=cache_dir)
    server = await start_http_server(service, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    try:
        cold = await _run_phase(host, port, "cold", request_list, concurrency)
        warm = await _run_phase(host, port, "warm", request_list, concurrency)
        stats = service.stats()
    finally:
        server.close()
        await server.wait_closed()
        service.close()

    # Backpressure phase: a second service, cold private cache, one
    # in-flight request per client.  Every worker shares one client
    # address (localhost), so concurrent requests collide with the
    # limiter and the 429 path runs under real load.
    bp_service = CompileService(
        jobs=jobs,
        cache_dir=str(Path(cache_dir) / "backpressure"),
        max_inflight_per_client=1,
    )
    bp_server = await start_http_server(bp_service, "127.0.0.1", 0)
    bp_host, bp_port = bp_server.sockets[0].getsockname()[:2]
    try:
        backpressure = await _run_phase(
            bp_host, bp_port, "backpressure", request_list, max(concurrency, 2)
        )
        stats["backpressure_phase"] = bp_service.stats()["backpressure"]
    finally:
        bp_server.close()
        await bp_server.wait_closed()
        bp_service.close()
    return cold, warm, backpressure, stats


def run_serve_bench(
    *,
    requests: int = 60,
    concurrency: int = 8,
    jobs: int | None = None,
    quick: bool = False,
) -> dict:
    """Run the load generator; returns a validated BENCH payload whose
    cells are the cold, warm, and backpressure phases (plus the final
    ``/stats`` under a non-schema sibling key for the human summary)."""
    from ..bench.micro import build_payload

    if quick:
        requests = min(requests, 20)
        concurrency = min(concurrency, 4)
    if requests < len(DEFAULT_MIX):
        raise ValueError(
            f"requests must cover the {len(DEFAULT_MIX)}-entry mix, got {requests}"
        )
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as cache_dir:
        cold, warm, backpressure, stats = asyncio.run(
            _run_load(
                requests=requests,
                concurrency=concurrency,
                jobs=jobs,
                cache_dir=cache_dir,
            )
        )
    if backpressure.rejected == 0:
        raise RuntimeError(
            "backpressure phase saw zero 429 rejections — the per-client "
            "limiter did not engage under concurrent load"
        )
    payload = build_payload(
        "serve",
        [
            cold.cell(concurrency),
            warm.cell(concurrency),
            backpressure.cell(max(concurrency, 2)),
        ],
    )
    # Diagnostics ride alongside (not part of the schema-validated payload).
    payload_stats = {
        "stats": stats,
        "cold_p50_ms": cold.cell(concurrency)["p50_ms"],
        "warm_p50_ms": warm.cell(concurrency)["p50_ms"],
        "backpressure_rejected": backpressure.rejected,
        "backpressure_attempts": backpressure.attempts,
    }
    return {"payload": payload, "diagnostics": payload_stats}


def render(result: dict) -> str:
    """Human summary: the three cells plus the cache's measured speedup."""
    from ..analysis.tables import render_table

    payload = result["payload"]
    headers = [
        "phase",
        "requests",
        "conc",
        "p50 (ms)",
        "p99 (ms)",
        "req/s",
        "errors",
        "429s",
    ]
    body = [
        [
            cell["mode"].removeprefix("serve-"),
            cell["requests"],
            cell["concurrency"],
            f"{cell['p50_ms']:.1f}",
            f"{cell['p99_ms']:.1f}",
            f"{cell['throughput_rps']:.1f}",
            cell["errors"],
            cell.get("rejected", 0),
        ]
        for cell in payload["cells"]
    ]
    lines = [render_table(headers, body, title="Service load benchmark")]
    cold = result["diagnostics"]["cold_p50_ms"]
    warm = result["diagnostics"]["warm_p50_ms"]
    if warm > 0:
        lines.append(f"cold/warm p50 speedup: {cold / warm:.1f}x")
    cache = result["diagnostics"]["stats"]["cache"]
    lines.append(
        f"cache: {cache['memory_hits']} memory + {cache['disk_hits']} disk hits, "
        f"{cache['misses']} misses, {cache['coalesced']} coalesced"
    )
    rejected = result["diagnostics"].get("backpressure_rejected")
    if rejected is not None:
        lines.append(
            f"backpressure: {rejected} of "
            f"{result['diagnostics']['backpressure_attempts']} requests "
            "rejected with 429 (max-inflight-per-client=1)"
        )
    return "\n".join(lines)
