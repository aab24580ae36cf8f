"""The ``serve-zipf`` workload: the solve server under seeded load.

Timed run: ``repro serve --jobs 1`` starts fresh, in its own process, with
its in-memory ``SolveCache``.  This process drives it over two connections
(``AsyncServeClient`` multiplexes requests on each).  Set-up ends with the
head of the mix sent closed-loop, which takes the burst of first touches a
cold cache sees.  Then ``CYCLES`` rounds of two segments:

- sequential: one request at a time on one connection, a fixed number of
  them per run, each timed by the CPU it cost: this process's CPU over
  the request plus the server's.  The latencies and the SLO come from
  these segments.
- closed loop: ``IN_FLIGHT`` requests outstanding per connection.
  Throughput (completions per CPU second of both processes) comes from
  these segments.

Every figure of the timed run is CPU time, not wall time.  On a shared
virtual machine the host hands the CPU to other guests in spells of
seconds; the guest kernel reports that as steal and leaves it out of
every process's CPU time, while a wall clock counts it.  The wall-clock
figures are kept in the record's notes.

The request mix is ``loadgen.sample_mix`` over four pools of 50 graphs
(24 to 61 edges), zipf 1.2 within each pool, a quarter ``plan`` ops:
repeats are cache hits, first touches are solves plus a store.

Traced run: open-loop segments (Poisson arrivals at ``RATE_RPS``, each
request timed from when it was due) alternate with closed-loop segments
against a server hosted in this process with ``serve_background``, once
bare and once with the layer wrappers; the closed segments run a fixed
number of requests so the two passes compare.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import catalog
import checks
import harness
from harness import RunResult, median, quantile, ratio, tail
from tracer import Tracer, tracing

from repro import solve
from repro.graphs.generators import random_connected_bipartite
from repro.graphs.io import dump_bipartite, load_bipartite
from repro.obs.context import TraceContext, derived_trace_id
from repro.obs.telemetry import parse_exposition
from repro.parallel.cache import SolveCache
from repro.parallel.fingerprint import fingerprint
from repro.server.client import AsyncServeClient
from repro.server.server import SolveServer, serve_background
from repro.workloads.loadgen import LoadSpec, sample_mix

# Traced run: open-loop arrival rate, fixed and never rescaled at run time,
# about a tenth of the closed-loop capacity of this mix (about 1,100
# completions/s on a shared 2-core x86 VM).
RATE_RPS = 100.0
SLO_MS = 100.0
# Timed run: sequential requests per second of the run.  A fixed count, so
# every run at a seed sends the same requests and meets the same misses.
SEQUENTIAL_RPS = 60
# Timed run: the closed segments' share of the seconds.
CLOSED_SHARE = 0.4
CYCLES = 8  # sequential (timed) or open (traced) / closed alternations per run
# Closed-loop requests number from here (their trace ids stay distinct).
CLOSED_FIRST_INDEX = 1_000_000
CONNECTIONS = 2
IN_FLIGHT = 2  # closed-loop requests outstanding per connection
EDGE_CLASSES = (22, 26, 32, 40)  # loadgen edge settings: 24..61-edge graphs
POOL_PER_CLASS = {False: 50, True: 8}
# Zipf traffic over a fixed pool first-touches nearly every graph early,
# so on its own it would leave the open loop almost without misses.  This
# share of requests after the warm-up carries a never-seen graph, which
# keeps misses (solve plus store) at a steady 20 per second.
FRESH_SHARE = 0.2
# Traced run: open phase share of the seconds, and closed requests per second.
TRACED_OPEN_SHARE = 0.3
TRACED_CLOSED_PER_SECOND = 25
STARTUP_TIMEOUT_S = 30.0
# Set-up ends by sending the head of the mix closed-loop, so the burst of
# first touches a cold cache takes lands in set-up, not in the measured
# segments.
WARM_UP_REQUESTS = {False: 600, True: 40}


@dataclass
class Sample:
    index: int
    trace_id: str  # the op id of the request's server-side spans
    op: str
    graph: str
    due: float  # open loop: when it was due; closed loop: when it was sent
    sent: float
    done: float
    response: dict[str, Any] | None
    error: str | None = None
    cpu: float = 0.0  # sequential requests: CPU seconds of both processes

    @property
    def cpu_ms(self) -> float:
        return self.cpu * 1000.0

    @property
    def ok(self) -> bool:
        return self.error is None and self.response is not None and bool(self.response.get("ok"))

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


def build_mix(seed: int, smoke: bool, length: int) -> list[tuple[str, str]]:
    """``length`` requests: the four size classes take turns, each drawn
    zipf-skewed from its own pool by ``sample_mix``.  After the warm-up,
    ``FRESH_SHARE`` of the requests carry a graph made for that request
    alone (a miss however warm the cache is)."""
    per_class = length // len(EDGE_CLASSES) + 1
    parts = [
        sample_mix(
            LoadSpec(
                requests=per_class,
                universe=POOL_PER_CLASS[smoke],
                skew=1.2,
                edges=edges,
                plan_fraction=0.25,
                seed=seed * len(EDGE_CLASSES) + k,
            )
        )
        for k, edges in enumerate(EDGE_CLASSES)
    ]
    mix = [request for group in zip(*parts) for request in group][:length]
    rng = random.Random(f"serve-zipf:{seed}:fresh")
    for index in range(WARM_UP_REQUESTS[smoke], len(mix)):
        if rng.random() < FRESH_SHARE:
            edges = EDGE_CLASSES[index % len(EDGE_CLASSES)]
            sides = max(2, edges // 4)
            fresh = random_connected_bipartite(sides, sides, edges, seed=random.Random(f"{seed}:{index}"))
            mix[index] = (mix[index][0], dump_bipartite(fresh))
    return mix


def _mix_length(seconds: float) -> int:
    """Room for the warm-up and the open-loop or sequential requests."""
    return WARM_UP_REQUESTS[False] + int(max(RATE_RPS, SEQUENTIAL_RPS) * seconds) + 1


async def _send(
    client: AsyncServeClient, seed: int, index: int, request: tuple[str, str], due: float | None
) -> Sample:
    """Send one request; ``due`` is when it was due (None: now)."""
    op, graph = request
    loop = asyncio.get_running_loop()
    sent = loop.time()
    trace_id = derived_trace_id(seed, index)
    try:
        response = await client.request(op, graph, trace=TraceContext(trace_id))
        error = None
    except (ConnectionError, OSError) as exc:
        response, error = None, f"{type(exc).__name__}: {exc}"
    return Sample(index, trace_id, op, graph, sent if due is None else due, sent, loop.time(), response, error)


def arrivals(seed: int, seconds: float) -> list[float]:
    """Seeded Poisson arrival offsets at ``RATE_RPS`` within ``seconds``."""
    rng = random.Random(f"serve-zipf:{seed}:arrivals")
    offsets: list[float] = []
    offset = rng.expovariate(RATE_RPS)
    while offset < seconds:
        offsets.append(offset)
        offset += rng.expovariate(RATE_RPS)
    return offsets


async def open_loop(clients, mix, seed: int, offsets: list[float], first_index: int) -> list[Sample]:
    """Send request ``first_index + i`` at ``offsets[i]`` seconds from now,
    whether or not earlier ones have finished."""
    loop = asyncio.get_running_loop()
    origin = loop.time()
    tasks = []
    for index, offset in enumerate(offsets, start=first_index):
        due = origin + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        client = clients[index % len(clients)]
        tasks.append(asyncio.ensure_future(_send(client, seed, index, mix[index % len(mix)], due)))
    return list(await asyncio.gather(*tasks))


async def closed_loop(
    clients,
    pick: Callable[[int], tuple[str, str]],
    seed: int,
    first_index: int,
    seconds: float | None = None,
    count: int | None = None,
) -> tuple[list[Sample], float]:
    """Closed loop until ``seconds`` pass (or ``count`` requests are
    sent); request ``i`` is ``pick(i)``.  Returns the samples and the
    phase's wall time."""
    loop = asyncio.get_running_loop()
    indices = itertools.count(first_index)
    started = loop.time()
    end = started + seconds if seconds is not None else None
    last = first_index + count if count is not None else None
    samples: list[Sample] = []

    async def worker(client: AsyncServeClient) -> None:
        while end is None or loop.time() < end:
            index = next(indices)
            if last is not None and index >= last:
                return
            samples.append(await _send(client, seed, index, pick(index), None))

    await asyncio.gather(*[worker(c) for c in clients for _ in range(IN_FLIGHT)])
    return samples, loop.time() - started


def _replay(mix: list[tuple[str, str]], seed: int, sent: int) -> Callable[[int], tuple[str, str]]:
    """Closed-loop request ``i``: a seeded draw from the first ``sent``
    requests of the mix, which the server has already seen.  So the
    closed loop first-touches no graph, and the open loop meets the same
    misses at a seed however fast the closed loop runs."""

    def pick(index: int) -> tuple[str, str]:
        digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
        return mix[int.from_bytes(digest, "big") % sent]

    return pick


async def sequential(
    client: AsyncServeClient, mix, seed: int, first_index: int, count: int, server_cpu: Callable[[], float]
) -> list[Sample]:
    """Send requests ``first_index`` .. ``first_index + count - 1`` of the
    mix one at a time; each one's ``cpu`` is this process's CPU over the
    request plus the server's (``server_cpu`` reads its CPU clock)."""
    samples = []
    for index in range(first_index, first_index + count):
        server_before, own_before = server_cpu(), time.process_time()
        sample = await _send(client, seed, index, mix[index % len(mix)], None)
        sample.cpu = (time.process_time() - own_before) + (server_cpu() - server_before)
        samples.append(sample)
    return samples


@dataclass
class Measured:
    """The samples of alternating sequential and closed-loop segments."""

    segments: list[list[Sample]]  # sequential
    closed: list[Sample]
    closed_wall: float  # summed wall time of the closed segments
    closed_rates: list[float]  # each closed segment's completions per CPU second of both processes

    @property
    def sequential(self) -> list[Sample]:
        return [sample for segment in self.segments for sample in segment]

    @property
    def throughput(self) -> float:
        """Closed-loop completions per CPU second of the server and this
        process together, the median over segments, so a slow spell moves
        one segment only.  Counting both keeps the figure from moving with
        how many requests the server finds waiting per wake-up, which
        depends on how fast the client ran."""
        return median(self.closed_rates)


async def measure(
    clients, mix, seed: int, first_index: int, seconds: float, server_cpu: Callable[[], float]
) -> Measured:
    """``CYCLES`` rounds of a sequential segment (``SEQUENTIAL_RPS *
    seconds`` requests in all) followed by a closed-loop segment (a
    ``CLOSED_SHARE`` of the seconds in all).  Spreading both over the run
    keeps a slow spell of the machine from landing on one of them."""
    per_segment = max(1, int(SEQUENTIAL_RPS * seconds) // CYCLES)
    measured = Measured([], [], 0.0, [])
    for _cycle in range(CYCLES):
        index = first_index + len(measured.sequential)
        measured.segments.append(await sequential(clients[0], mix, seed, index, per_segment, server_cpu))
        pick = _replay(mix, seed, index + per_segment)
        before = server_cpu() + time.process_time()
        closed, wall = await closed_loop(
            clients, pick, seed, CLOSED_FIRST_INDEX + len(measured.closed),
            seconds=CLOSED_SHARE * seconds / CYCLES,
        )
        measured.closed_rates.append(ratio(len(closed), server_cpu() + time.process_time() - before))
        measured.closed += closed
        measured.closed_wall += wall
    return measured


@dataclass
class Phases:
    """The samples of alternating open- and closed-loop segments (traced run)."""

    open_segments: list[list[Sample]]
    closed: list[Sample]
    closed_wall: float  # summed wall time of the closed segments

    @property
    def open(self) -> list[Sample]:
        return [sample for segment in self.open_segments for sample in segment]


async def alternate(
    clients, mix, seed: int, first_index: int, seconds: float, open_share: float, closed_count: int
) -> Phases:
    """``CYCLES`` rounds of an open-loop segment (``open_share`` of the
    seconds in all) followed by a closed-loop segment (``closed_count``
    requests in all, split evenly)."""
    schedule = arrivals(seed, open_share * seconds)
    segment = open_share * seconds / CYCLES
    phases = Phases([], [], 0.0)
    for cycle in range(CYCLES):
        offsets = [t - cycle * segment for t in schedule if cycle * segment <= t < (cycle + 1) * segment]
        phases.open_segments.append(
            await open_loop(clients, mix, seed, offsets, first_index + len(phases.open))
        )
        pick = _replay(mix, seed, first_index + len(phases.open))
        index = CLOSED_FIRST_INDEX + len(phases.closed)
        closed, wall = await closed_loop(clients, pick, seed, index, count=closed_count // CYCLES)
        phases.closed += closed
        phases.closed_wall += wall
    return phases


# -- the server process ---------------------------------------------------------


class ServerProcess:
    """``repro serve --jobs 1`` in a child process on an ephemeral port."""

    def __init__(self, process: asyncio.subprocess.Process, host: str, port: int) -> None:
        self.process = process
        self.host = host
        self.port = port

    @classmethod
    async def start(cls) -> "ServerProcess":
        process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "serve", "--jobs", "1", "--port", "0",
            cwd=harness.ROOT,
            env=harness.library_env(),
            stdout=asyncio.subprocess.PIPE,
        )
        try:
            line = await asyncio.wait_for(process.stdout.readline(), STARTUP_TIMEOUT_S)
            text = line.decode().strip()
            if not text.startswith("serving on "):
                raise RuntimeError(f"server did not start: {text!r}")
            host, port = text.removeprefix("serving on ").rsplit(":", 1)
        except BaseException:
            await cls._end(process)
            raise
        return cls(process, host, int(port))

    def cpu_seconds(self) -> float:
        """CPU seconds the server process has used so far."""
        return harness.process_cpu_seconds(self.process.pid)

    async def connect(self) -> list[AsyncServeClient]:
        return [await AsyncServeClient.connect(host=self.host, port=self.port) for _ in range(CONNECTIONS)]

    async def stop(self, clients: list[AsyncServeClient]) -> None:
        """Ask the server to shut down, close ``clients``, and wait for the
        process to end (killing it if it does not)."""
        if clients:
            try:
                await asyncio.wait_for(clients[0].request("shutdown"), 10.0)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
        await _close(clients)
        await self._end(self.process)

    @staticmethod
    async def _end(process: asyncio.subprocess.Process) -> None:
        try:
            await asyncio.wait_for(process.wait(), 10.0)
        except asyncio.TimeoutError:
            process.kill()
            await process.wait()


async def _close(clients: list[AsyncServeClient]) -> None:
    for client in clients:
        await client.close()


# -- checks -------------------------------------------------------------------


def verify(samples: list[Sample], result: RunResult) -> dict[str, tuple[int, int]]:
    """Every response against a local solve of its graph: same pi, a
    scheme that pebbles each edge once, pi within Theorem 3.1's bound.
    Returns ``m`` and the local ``pi`` per graph text."""
    local: dict[str, tuple[int, int, list]] = {}
    for sample in samples:
        result.attempted += 1
        if not sample.ok:
            detail = sample.error or (sample.response or {}).get("error")
            result.fail(f"request {sample.index} ({sample.op}) failed: {detail}")
            continue
        if sample.graph not in local:
            graph = load_bipartite(sample.graph)
            edges = [(str(u), str(v)) for u, v in graph.edges()]
            reference = solve(graph, "auto")
            problems, m, pi = checks.check_order(
                edges, [tuple(map(str, c)) for c in reference.scheme.configurations],
                reference.effective_cost, "approx",
            )
            if problems:
                result.fail(f"local solve of a {m}-edge graph: {problems[0]}")
            local[sample.graph] = (m, reference.effective_cost, edges)
        m, pi, edges = local[sample.graph]
        answer = sample.response["result"]
        problems = []
        if answer.get("effective_cost") != pi:
            problems.append(f"server pi {answer.get('effective_cost')} != local pi {pi}")
        if answer.get("status") not in ("optimal", "complete"):
            problems.append(f"status {answer.get('status')}")
        if sample.op == "solve":
            scheme_problems, _m, _pi = checks.check_order(
                edges, [tuple(c) for c in answer.get("scheme", [])], answer.get("effective_cost"), "approx"
            )
            problems += scheme_problems
        if problems:
            result.fail(f"request {sample.index} ({sample.op}): {problems[0]}")
    return {text: (m, pi) for text, (m, pi, _edges) in local.items()}


def _input_fingerprint(mix: list[tuple[str, str]]) -> str:
    distinct = sorted(set(graph for _op, graph in mix))
    return harness.combine_fingerprints([fingerprint(load_bipartite(text)) for text in distinct])


def _pi_ratio(samples: list[Sample], local: dict) -> float:
    answered = [local[s.graph] for s in samples if s.ok and s.graph in local]
    return ratio(sum(pi for _m, pi in answered), sum(m for m, _pi in answered))


def _window_p50_ms(exposition: str, op: str = "solve") -> float:
    families, _problems = parse_exposition(exposition)
    family = families.get("repro_server_window_p50_ms")
    for sample in family.samples if family else []:
        if sample.labels.get("op") == op:
            return sample.value
    return 0.0


# -- timed ----------------------------------------------------------------------


async def _timed(seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    setups: list[float] = []
    setup_walls: list[float] = []
    server: ServerProcess | None = None
    clients: list[AsyncServeClient] = []
    try:
        for _repeat in range(harness.SETUP_REPEATS):
            if server is not None:
                await server.stop(clients)
                server, clients = None, []
            started_wall, started = time.perf_counter(), time.process_time()
            mix = build_mix(seed, smoke, _mix_length(seconds))
            server = await ServerProcess.start()
            clients = await server.connect()
            warm_up, _wall = await closed_loop(clients, mix.__getitem__, seed, 0, count=WARM_UP_REQUESTS[smoke])
            # The server started within this set-up, so all its CPU so far is set-up.
            setups.append(time.process_time() - started + server.cpu_seconds())
            setup_walls.append(time.perf_counter() - started_wall)
        measured = await measure(clients, mix, seed, len(warm_up), seconds, server.cpu_seconds)
        stats = (await clients[0].request("stats")).get("result", {})
        peak_rss_mb = harness.process_peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            await server.stop(clients)
    return {
        "setups": setups,
        "setup_walls": setup_walls,
        "mix": mix,
        "warm_up": warm_up,
        "measured": measured,
        "stats": stats,
        "peak_rss_mb": peak_rss_mb,
    }


def timed(seed: int, seconds: float, smoke: bool) -> RunResult:
    result = RunResult("serve-zipf", seed, traced=False, smoke=smoke)
    run = asyncio.run(_timed(seed, seconds, smoke))
    measured = run["measured"]
    sequential_samples, closed_samples = measured.sequential, measured.closed
    local = verify(run["warm_up"] + sequential_samples + closed_samples, result)
    latencies = [s.cpu_ms for s in sequential_samples]
    # Over the whole run the tail (about p99) lies among the largest
    # misses.  Per segment it fell near where misses give way to hits,
    # and moved twice as much between runs.
    latency_tail = tail(latencies)
    within = sum(1 for s in sequential_samples if s.ok and s.cpu_ms <= SLO_MS)
    result.put("setup_s", median(run["setups"]), "s")
    result.put("ops_per_s", measured.throughput, "ops/s")
    result.put("latency_p50_ms", median(latencies), "ms")
    result.put("latency_tail_ms", latency_tail.value, "ms")
    result.put("ok_rate", 1.0 - ratio(result.failed, result.attempted), "fraction")
    result.put("slo_met_rate", ratio(within, len(sequential_samples)), "fraction")
    result.put("pi_ratio", _pi_ratio(sequential_samples, local), "ratio")
    result.put("peak_rss_mb", run["peak_rss_mb"], "MB")
    walls = [s.latency_ms for s in sequential_samples]
    result.notes.update(
        {
            "loop": f"{CYCLES} x (sequential, 1 in flight, {len(measured.segments[0])} requests; "
            f"then closed {CONNECTIONS}x{IN_FLIGHT} in flight for "
            f"{CLOSED_SHARE * seconds / CYCLES:g} s)",
            "op_time": "CPU time: this process's plus the server's over each sequential "
            "request; ops_per_s is closed-loop completions per CPU second of both",
            "latency_tail": latency_tail.describe(),
            "error_rate": ratio(result.failed, result.attempted),
            "slo_miss_rate": 1.0 - ratio(within, len(sequential_samples)),
            "latency_limit_ms": SLO_MS,
            "closed_segment_ops_per_s": [round(rate, 1) for rate in measured.closed_rates],
            "sequential_segment_p50_ms": [
                round(median([s.cpu_ms for s in segment]), 4) for segment in measured.segments
            ],
            "sequential_requests": len(sequential_samples),
            "closed_requests": len(closed_samples),
            "wall_closed_ops_per_s": ratio(len(closed_samples), measured.closed_wall),
            "wall_latency_p50_ms": median(walls),
            "wall_latency_tail_ms": tail(walls).value,
            "distinct_graphs": len(local),
            "setup_samples_s": [round(s, 4) for s in run["setups"]],
            "setup_wall_samples_s": [round(s, 4) for s in run["setup_walls"]],
            "server_stats": run["stats"],
        }
    )
    result.input_fingerprint = _input_fingerprint(run["mix"])
    return result


# -- traced ---------------------------------------------------------------------


async def _drive_in_process(address, seed: int, seconds: float, smoke: bool, mix) -> tuple[Phases, dict, str]:
    host, port = address
    clients = [await AsyncServeClient.connect(host=host, port=port) for _ in range(CONNECTIONS)]
    try:
        warm_up, _wall = await closed_loop(clients, mix.__getitem__, seed, 0, count=WARM_UP_REQUESTS[smoke])
        phases = await alternate(
            clients, mix, seed, len(warm_up), seconds, TRACED_OPEN_SHARE,
            closed_count=int(TRACED_CLOSED_PER_SECOND * seconds),
        )
        stats = (await clients[0].request("stats")).get("result", {})
        metrics = (await clients[0].request("metrics")).get("result", {})
    finally:
        await _close(clients)
    return phases, stats, metrics.get("text", "")


def _in_process_pass(seed: int, seconds: float, smoke: bool, mix):
    server = SolveServer(port=0, jobs=1, cache=SolveCache())
    with serve_background(server):
        return asyncio.run(_drive_in_process(server.address, seed, seconds, smoke, mix))


def traced(seed: int, seconds: float, smoke: bool) -> RunResult:
    result = RunResult("serve-zipf", seed, traced=True, smoke=smoke)
    mix = build_mix(seed, smoke, _mix_length(seconds))
    bare, _stats, _text = _in_process_pass(seed, seconds, smoke, mix)
    tracer = Tracer()
    with tracing(tracer, server=True):
        phases, stats, exposition = _in_process_pass(seed, seconds, smoke, mix)
    samples = phases.open + phases.closed
    verify(bare.open + bare.closed + samples, result)
    # A request's own server time is its span window less the time it
    # yielded to other requests; the rest of its client latency is waiting.
    windows = tracer.op_windows()
    yielded = tracer.time_in("server.yield")
    own = {op: window - yielded.get(op, 0.0) for op, window in windows.items()}
    ops = {s.trace_id for s in samples} & set(own)
    waits = [(s.done - s.sent - own[s.trace_id]) * 1000.0 for s in samples if s.trace_id in own]
    extra = {
        "server.service_p50_ms": _window_p50_ms(exposition),
        "server.wait_ms_p50": median(waits),
        "loadgen.late_ms_p99": quantile([(s.sent - s.due) * 1000.0 for s in phases.open], 0.99),
    }
    values = catalog.layer_metrics(
        tracer,
        ops,
        sum(own[op] for op in ops),
        tracer.top_level_time(ops) - sum(yielded.get(op, 0.0) for op in ops),
        ratio(phases.closed_wall, bare.closed_wall),
        extra,
    )
    for name, unit in catalog.PER_LAYER.items():
        result.put(name, values[name], unit)
    spans_path = result.path().with_suffix(".spans.jsonl")
    tracer.write(spans_path)
    result.notes.update(
        {
            "traced_requests": len(ops),
            "spans": len(tracer.spans),
            "spans_file": spans_path.name,
            "server_stats": stats,
            "op_time": "server side: first span start to last span end per request, "
            "less the time yielded to other requests",
        }
    )
    result.input_fingerprint = _input_fingerprint(mix)
    return result
