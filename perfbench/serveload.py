"""The ``serve`` workload: ``repro serve --jobs 1`` under seeded HTTP load.

The server runs in its own process with a fresh private cache directory.
This process is the only load generator; it holds at most two keep-alive
connections and sends only requests generated from the run's seed:

1. open loop — a fixed mean rate; each gap between arrivals is drawn from
   the seed, uniformly between half and one and a half mean gaps (bounded
   bursts, so the tail measures the service rather than a seed's luck);
   latency is measured from each request's due time, so a wait for a free
   connection counts against the service;
2. closed loop — both connections send back to back, for capacity.

Each phase requests its own fixed set of distinct jobs (small compiles:
six circuit families at 10-14 qubits, MUSS-TI on an EML or a 2x2 grid and
the Dai and Murali baselines on the grid, three physics profiles; one job
in ten is a ``/trace``).  ``REPEAT_SHARE`` of the requests repeat an
earlier job of the phase and are answered from the memory tier; every job
is sent the same number of times.  The set depends only on the run
length, so every seed sends the same multiset of requests and the
schedule-quality sums are the same; the seed draws the order and the
arrival times.

Responses are parsed and checked against the service's response schemas
after each phase, never while it is timed.  The per-layer split comes
from the ``spans`` every response carries and from ``GET /stats``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from .measure import ROOT, WORK_DIR, descendants, median, percentile, tree_peak_rss_mib
from .spans import SpanRecorder

#: Open-loop mean arrival rate (requests per second).
OPEN_RATE = 39.0

#: Share of ``--seconds`` given to the open-loop phase.
OPEN_SHARE = 0.87

#: Closed-loop requests per second of ``--seconds`` given to that phase.
CLOSED_PER_SECOND = 160.0

#: Share of requests that repeat an earlier job of their phase.  With half
#: the requests missing, 1000 open-loop requests in one run kept the single
#: worker about half busy and the latencies measured queueing.
REPEAT_SHARE = 0.8

#: Connections the generator holds.
CONNECTIONS = 2

#: Server boots per run; ``setup_s`` is their median.
SERVER_BOOTS = 3

#: The run fails if the generator's own p99 lateness exceeds one mean
#: inter-arrival gap: its latencies would then measure the generator.
LATE_LIMIT_MS = 1000.0 / OPEN_RATE

#: Seconds a server may take to announce its port.
BOOT_TIMEOUT_S = 60.0

#: Percentiles need this many successes to leave ten samples beyond p99.
MIN_SAMPLES = 1000

#: Narrow sizes keep the misses' service times close together, so p99 does
#: not hinge on which few large jobs make up the tail; past 12 qubits the
#: 2x2 grid's traps overflow, so the schedules still shuttle.
FAMILIES = {
    "GHZ": range(10, 15),
    "QFT": range(10, 15),
    "BV": range(10, 15),
    "Adder": range(10, 15),
    "QAOA": range(10, 15),
    "SQRT": range(10, 14),
}
TARGETS = (
    ("eml", "muss-ti"),
    ("grid:2x2:12", "muss-ti"),
    ("grid:2x2:12", "dai"),
    ("grid:2x2:12", "murali"),
)
PHYSICS = ("table1", "perfect-gate", "perfect-shuttle")

#: Answered once per boot during set-up; not part of any phase.
WARM_JOB = ("/compile", {"workload": "GHZ_n6", "machine": "eml"})


def universe() -> list[tuple[str, dict]]:
    """Every distinct job the phases draw from, in one fixed order."""
    jobs = [
        {"workload": f"{family}_n{size}", "machine": machine, "compiler": compiler,
         "physics": physics}
        for family, sizes in FAMILIES.items()
        for size in sizes
        for machine, compiler in TARGETS
        for physics in PHYSICS
    ]
    random.Random(0).shuffle(jobs)  # a fixed interleaving, not the run seed
    return [
        ("/trace" if index % 10 == 9 else "/compile", job)
        for index, job in enumerate(jobs)
    ]


def phase_sizes(seconds: float) -> tuple[int, int]:
    """Requests in the open-loop and the closed-loop phase."""
    return (
        round(OPEN_RATE * OPEN_SHARE * seconds),
        round(CLOSED_PER_SECOND * (1.0 - OPEN_SHARE) * seconds),
    )


def mix(rng: random.Random, fresh: list, count: int) -> list[tuple[str, dict]]:
    """``count`` requests: every job of ``fresh`` once, the rest repeats.

    Each position repeats an earlier job with the phase's repeat share,
    unless no job sent so far has repeats left.  Repeats are spread evenly
    over the jobs (each is repeated the same number of times, give or take
    one), so every seed sends the same multiset of requests and differs
    only in order and timing.
    """
    repeats = count - len(fresh)
    # Quotas follow the jobs, not the shuffled order, so no seed changes them.
    pairs = [
        (job, repeats // len(fresh) + (index < repeats % len(fresh)))
        for index, job in enumerate(fresh)
    ]
    rng.shuffle(pairs)
    fresh = [job for job, _ in pairs]
    quota = [share for _, share in pairs]
    sent = 0
    requests = []
    for position in range(count):
        available = [job for job in range(sent) if quota[job]]
        if sent < len(fresh) and (
            not available
            or count - position == len(fresh) - sent
            or rng.random() >= repeats / count
        ):
            requests.append(fresh[sent])
            sent += 1
        else:
            job = rng.choice(available)
            quota[job] -= 1
            requests.append(fresh[job])
    return requests


def generate(seed: int, seconds: float) -> dict:
    """The run's request lists and open-loop arrival offsets, from ``seed``."""
    open_count, closed_count = phase_sizes(seconds)
    open_fresh = round(open_count * (1.0 - REPEAT_SHARE))
    closed_fresh = round(closed_count * (1.0 - REPEAT_SHARE))
    jobs = universe()
    if open_fresh + closed_fresh > len(jobs):
        raise ValueError(f"--seconds {seconds} needs more distinct jobs than exist")
    rng = random.Random(seed)
    arrivals, clock = [], 0.0
    for _ in range(open_count):
        arrivals.append(clock)
        clock += rng.uniform(0.5, 1.5) / OPEN_RATE
    return {
        "open": mix(rng, jobs[:open_fresh], open_count),
        "arrivals": arrivals,
        "closed": mix(rng, jobs[open_fresh : open_fresh + closed_fresh], closed_count),
    }


# -- HTTP client -------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def request(
        self, method: str, path: str, body: bytes = b"", request_id: str = ""
    ) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port, limit=1 << 24
            )
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"X-Request-Id: {request_id or 'perfbench'}\r\n\r\n"
        )
        try:
            self.writer.write(head.encode() + body)
            await self.writer.drain()
            header = await self.reader.readuntil(b"\r\n\r\n")
            status_line, *lines = header.decode("latin-1").split("\r\n")
            status = int(status_line.split(" ", 2)[1])
            fields = {}
            for line in lines:
                name, _, value = line.partition(":")
                fields[name.strip().lower()] = value.strip()
            payload = await self.reader.readexactly(int(fields["content-length"]))
        except BaseException:
            await self.close()
            raise
        if fields.get("connection", "").lower() == "close":
            await self.close()
        return status, payload

    async def close(self) -> None:
        writer, self.writer, self.reader = self.writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


TRANSPORT_ERRORS = (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    ValueError, KeyError, IndexError)


@dataclass
class Phase:
    """One load phase: ``rows`` holds (status, due, sent, done, body) per
    request, ``parsed`` the checked response documents (None if failed),
    ``failures`` why each failed one failed, ``lateness`` the generator's
    own delay per open-loop send."""

    name: str
    requests: list
    rows: list = field(default_factory=list)
    lateness: list = field(default_factory=list)
    wall_s: float = 0.0
    parsed: list = field(default_factory=list)
    failures: list = field(default_factory=list)


async def send(connection: Connection, phase: Phase, index: int, due: float) -> None:
    path, job = phase.requests[index]
    loop = asyncio.get_running_loop()
    sent = loop.time()
    try:
        status, body = await connection.request(
            "POST", path, json.dumps(job).encode(), f"{phase.name}-{index}"
        )
    except TRANSPORT_ERRORS:
        status, body = 0, b""
    phase.rows[index] = (status, due, sent, loop.time(), body)


async def open_loop(connections: list[Connection], phase: Phase, arrivals: list) -> None:
    """Send each request at its due time on the first free connection."""
    loop = asyncio.get_running_loop()
    free: asyncio.Queue = asyncio.Queue()
    for connection in connections:
        free.put_nowait(connection)
    phase.rows = [None] * len(phase.requests)

    async def send_and_release(connection: Connection, index: int, due: float) -> None:
        try:
            await send(connection, phase, index, due)
        finally:
            free.put_nowait(connection)

    tasks = []
    start = loop.time() + 0.05
    dispatched = start
    for index, offset in enumerate(arrivals):
        due = start + offset
        ready = max(due, dispatched)  # earliest the generator could act
        if due > loop.time():
            await asyncio.sleep(due - loop.time())
        phase.lateness.append(loop.time() - ready)
        connection = await free.get()
        dispatched = loop.time()
        tasks.append(asyncio.create_task(send_and_release(connection, index, due)))
    await asyncio.gather(*tasks)
    phase.wall_s = loop.time() - start


async def closed_loop(connections: list[Connection], phase: Phase) -> None:
    """Each connection sends its next request as soon as the last returns."""
    loop = asyncio.get_running_loop()
    phase.rows = [None] * len(phase.requests)
    pending = iter(range(len(phase.requests)))

    async def client(connection: Connection) -> None:
        for index in pending:
            await send(connection, phase, index, loop.time())

    started = loop.time()
    await asyncio.gather(*(client(connection) for connection in connections))
    phase.wall_s = loop.time() - started


# -- the server process ------------------------------------------------------


class Server:
    """A ``repro serve --jobs 1`` child process with its own cache dir."""

    def __init__(self, boot: int) -> None:
        self.cache_dir = WORK_DIR / f"serve-cache-{os.getpid()}-{boot}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        env = dict(
            os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_BENCH_CACHE=str(self.cache_dir)
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "1", "--port", "0",
             "--cache-dir", str(self.cache_dir)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def peak_rss_mib(self) -> float:
        return tree_peak_rss_mib(self.process.pid)

    def stop(self) -> None:
        """SIGTERM the server, wait for it and every process it started."""
        try:
            children = descendants(self.process.pid)
        except FileNotFoundError:
            children = []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        deadline = time.monotonic() + 30
        for pid in children:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.01)
            if os.path.exists(f"/proc/{pid}"):
                os.kill(pid, signal.SIGKILL)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


async def get_json(port: int, path: str) -> dict:
    connection = Connection(port)
    try:
        status, body = await connection.request("GET", path)
    finally:
        await connection.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


async def boot(index: int) -> tuple[Server, float]:
    """Start a server and wait for its first answered compile."""
    started = time.perf_counter()
    server = Server(index)
    connection = Connection(server.port)
    try:
        path, job = WARM_JOB
        status, _ = await connection.request("POST", path, json.dumps(job).encode())
    finally:
        await connection.close()
    if status != 200:
        server.stop()
        raise RuntimeError(f"warm compile answered {status}")
    return server, time.perf_counter() - started


# -- checking and reporting --------------------------------------------------


def check_phase(phase: Phase, reports: dict) -> dict:
    """Validate every response (untimed); returns the phase's counts.

    ``reports`` maps a job to its first report and is shared across
    phases: a repeat must carry the identical report.
    """
    from repro.schema import validate_node
    from repro.serve.schemas import COMPILE_RESPONSE_SCHEMA, TRACE_RESPONSE_SCHEMA

    counts = {"attempted": len(phase.rows), "succeeded": 0, "failed": 0, "refused": 0}
    phase.parsed = []
    for index, ((path, job), (status, *_, body)) in enumerate(zip(phase.requests, phase.rows)):
        document = None
        if status != 200:
            phase.failures.append(f"{phase.name}-{index}: HTTP status {status}")
        else:
            try:
                document = json.loads(body)
                validate_node(
                    document,
                    TRACE_RESPONSE_SCHEMA if path == "/trace" else COMPILE_RESPONSE_SCHEMA,
                )
                if document["job"]["workload"] != job["workload"]:
                    raise ValueError("answer for another job")
                result = document["trace"] if path == "/trace" else document["report"]
                key = (path, json.dumps(job, sort_keys=True))
                if reports.setdefault(key, result) != result:
                    raise ValueError("repeat answered with a different result")
            except Exception as error:  # any malformed or inconsistent answer fails
                phase.failures.append(f"{phase.name}-{index}: {type(error).__name__}: {error}")
                document = None
        phase.parsed.append(document)
        if document is not None:
            counts["succeeded"] += 1
        elif status in (429, 503):
            counts["refused"] += 1
        else:
            counts["failed"] += 1
    return counts


def span_totals(phase: Phase) -> dict[str, float]:
    """Seconds per server span name over a phase's successful responses."""
    totals: dict[str, float] = {}
    for document in phase.parsed:
        for span in document["spans"] if document else ():
            totals[span["name"]] = totals.get(span["name"], 0.0) + span["ms"] / 1000.0
    return totals


def record_spans(recorder: SpanRecorder, phase: Phase, offset: int) -> None:
    """One span per request, with the server's spans laid end to end as children."""
    for index, (row, document) in enumerate(zip(phase.rows, phase.parsed)):
        if document is None:
            continue
        _, due, sent, done, _ = row
        parent = recorder.add(offset + index, "request", due, done)
        clock = sent
        for span in document["spans"]:
            seconds = span["ms"] / 1000.0
            recorder.add(offset + index, f"serve.{span['name']}", clock, clock + seconds, parent)
            clock += seconds


async def drive(plan: dict) -> dict:
    """Boot the server, run both phases, stop it; returns raw outcomes."""
    boots = []
    server = None
    try:
        for index in range(SERVER_BOOTS):
            if server is not None:
                server.stop()
            server, elapsed = await boot(index)
            boots.append(elapsed)
        before = await get_json(server.port, "/stats")
        connections = [Connection(server.port) for _ in range(CONNECTIONS)]
        open_phase = Phase("open", plan["open"])
        await open_loop(connections, open_phase, plan["arrivals"])
        middle = await get_json(server.port, "/stats")
        closed_phase = Phase("closed", plan["closed"])
        await closed_loop(connections, closed_phase)
        after = await get_json(server.port, "/stats")
        for connection in connections:
            await connection.close()
        peak_rss = server.peak_rss_mib()
    finally:
        if server is not None:
            server.stop()
    return {
        "setup_s": median(boots),
        "phases": (open_phase, closed_phase),
        "stats": (before, middle, after),
        "peak_rss_mb": peak_rss,
    }


def cache_delta(start: dict, end: dict) -> dict:
    return {
        name: end["cache"][name] - start["cache"][name]
        for name in ("memory_hits", "disk_hits", "misses", "coalesced")
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    """One run of the serve workload; returns metrics, counts and detail."""
    outcome = asyncio.run(drive(generate(seed, seconds)))
    phases = outcome["phases"]
    open_phase, closed_phase = phases
    before, middle, after = outcome["stats"]
    reports: dict = {}
    counts = {phase.name: check_phase(phase, reports) for phase in phases}
    caches = {"open": cache_delta(before, middle), "closed": cache_delta(middle, after)}
    latencies = [
        (done - due) * 1000.0
        for (_, due, _, done, _), document in zip(open_phase.rows, open_phase.parsed)
        if document is not None
    ]
    lateness_ms = [late * 1000.0 for late in open_phase.lateness]
    late_p99 = percentile(lateness_ms, 0.99)
    for phase in phases:
        done, cache = counts[phase.name], caches[phase.name]
        hits = cache["memory_hits"] + cache["disk_hits"]
        repeats = hits + cache["coalesced"]
        print(
            f"phase {phase.name}: attempted {done['attempted']}, succeeded "
            f"{done['succeeded']}, failed {done['failed']}, refused {done['refused']}; "
            f"measured repeat share {repeats / done['attempted']:.3f} ({hits} hits, "
            f"{cache['coalesced']} coalesced, {cache['misses']} misses); {phase.wall_s:.2f} s"
        )
    beyond = len(latencies) - 1 - int(0.99 * (len(latencies) - 1))
    print(
        f"open-loop latency samples {len(latencies)} ({beyond} beyond p99); generator "
        f"lateness p99 {late_p99:.3f} ms, max {max(lateness_ms):.3f} ms"
    )
    if len(latencies) < MIN_SAMPLES:
        print(f"warning: fewer than {MIN_SAMPLES} open-loop successes", file=sys.stderr)
    if late_p99 > LATE_LIMIT_MS:
        raise RuntimeError(
            f"load generator fell behind its schedule (p99 lateness {late_p99:.1f} ms "
            f"> {LATE_LIMIT_MS:.1f} ms): the latencies would measure the generator"
        )
    attempted = sum(done["attempted"] for done in counts.values())
    refused = sum(done["refused"] for done in counts.values())
    errors = sum(done["failed"] for done in counts.values())
    if trace:
        recorder = SpanRecorder()
        record_spans(recorder, open_phase, 0)
        record_spans(recorder, closed_phase, len(open_phase.rows))
        recorder.write(WORK_DIR / f"spans-serve-seed{seed}.jsonl")
        server_s = {
            name[len("serve."):]: seconds
            for name, seconds in recorder.self_times().items()
            if name.startswith("serve.")
        }
        lookups = {
            name: caches["open"][name] + caches["closed"][name] for name in caches["open"]
        }
        metrics = {
            f"serve.{name}_s": server_s.get(name, 0.0)
            for name in ("parse", "encode", "cache_lookup", "coalesced_wait",
                         "queue_wait", "execute")
        }
        metrics.update({
            "serve.hit_ratio": (lookups["memory_hits"] + lookups["disk_hits"])
            / sum(lookups.values()),
            "serve.misses": lookups["misses"],
            "serve.coalesced": lookups["coalesced"],
            "serve.errors": errors,
            "serve.rejected": refused,
            "serve.late_ms": late_p99,
            # Spans are assembled from stored responses after the phases end,
            # so tracing adds nothing to the timed load.
            "trace.overhead_s": 0.0,
            "trace.accounted_ratio": sum(server_s.values()) / recorder.root_time(),
        })
    else:
        opened = span_totals(open_phase)
        quality = [
            document["report"]
            for phase in phases
            for (path, _), document in zip(phase.requests, phase.parsed)
            if path == "/compile" and document is not None and document["cache"] == "miss"
        ]
        metrics = {
            "setup_s": outcome["setup_s"],
            "compile_s": opened.get("execute", 0.0),
            "execute_s": opened.get("parse", 0.0) + opened.get("encode", 0.0),
            "peak_rss_mb": outcome["peak_rss_mb"],
            "shuttles": sum(report["shuttle_count"] for report in quality),
            "makespan_us": sum(report["makespan_us"] for report in quality),
            "neg_log10_fidelity": -sum(report["log10_fidelity"] for report in quality),
            "p50_ms": percentile(latencies, 0.50),
            "p99_ms": percentile(latencies, 0.99),
            "throughput_rps": counts["closed"]["succeeded"] / closed_phase.wall_s,
        }
    detail = {
        "phases": counts,
        "failures": open_phase.failures + closed_phase.failures,
        "cache": caches,
        "stats": after,
        "latency_ms": latencies,
        "generator_lateness_ms": {"p99": late_p99, "max": max(lateness_ms)},
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": errors + refused,
        "detail": detail,
    }
