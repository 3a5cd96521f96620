"""serve_mixed: an open-loop request mix against the gateway over TCP.

The gateway runs in its own process (``python -m repro.serve --port 0``,
default configuration otherwise): in-process, its threads hold the GIL
and the generator runs late.  The generator is one asyncio thread with
one ``ServeClient`` connection per server, sending on a seeded Poisson
schedule; every latency is timed from the request's due time, so a stall
counts against every request it delays.

Mix: 50% ``axpy`` n=1024, 20% ``scale`` n=1024, 20% ``gemm`` 32x32, 10%
``heat_equation`` 32x32 with 4 steps, over 3 equal-weight tenants.
Phases: 50 req/s, 100 req/s, a paired phase, then a ladder of rates 8%
apart, searched by bisection, for the highest rate at which 99% of
requests complete correctly within 200 ms of their due time and
completions keep up with the offered rate.

The paired phase is the yardstick of ``overhead_x``: one request in
flight, each input sent to the gateway and then to the numpy twin
(numpy_server.py, the same wire protocol with the kernels done directly
in numpy), or the other way round every other time.  A pair's two
latencies are taken a few milliseconds apart, so the shared host's
wandering speed moves both alike; with one request in flight no queue
amplifies it, as it does the open-loop latencies.

Every response is checked: axpy, scale and heat bit-for-bit against
numpy, gemm with ``allclose`` against ``batched_gemm_reference``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.errors import ServeError
from repro.kernels import jacobi_reference_step
from repro.kernels.batched import batched_gemm_reference
from repro.serve import ServeClient

from . import layers, stats
from .common import HERE, OUT, ROOT, BenchError, child_env, process_peak_rss_mib
from .serve_launcher import LAYERS_TAG
from .spans import Recorder

MIX = (("axpy", 0.5), ("scale", 0.2), ("gemm", 0.2), ("heat_equation", 0.1))
TENANTS = ("t0", "t1", "t2")
VECTOR_N = 1024
MATRIX_N = 32
PLATE = 32
HEAT_STEPS = 4
HEAT_C = 0.2
ALPHA = 2.0
FACTOR = 3.0
#: Distinct inputs per kind; requests draw from them at random.
POOL = 16

LATENCY_LIMIT_S = 0.200
LIMIT_SHARE = 0.99
#: Ladder rungs: 50 req/s times powers of 1.08 (<= 10% apart).
LADDER = tuple(50.0 * 1.08 ** k for k in range(40))
RUNG_S = 1.5
RUNG_PROBES = 5
#: The rate whose Poisson draw supplies the paired phase's (payload,
#: tenant) sequence; only the order of the draw is used.
PAIRED_DRAW_RATE = 2000.0
#: Idle time after each rung, so an overloaded rung's aftermath (the
#: gateway's queues and heap) does not spill into the next one.
RUNG_SETTLE_S = 0.5
#: A phase whose generator ran later than this at p99 is invalid.
LATE_LIMIT_S = 0.050
#: A rung fails when completions in the second half of its send window
#: fall below this share of the requests due in that half.
KEEP_UP = 0.9
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 60.0


@dataclass
class Payload:
    kind: str
    params: dict
    arrays: Dict[str, np.ndarray]
    check: Callable[[dict], bool]


def _payloads(rng) -> Dict[str, List[Payload]]:
    pools: Dict[str, List[Payload]] = {k: [] for k, _ in MIX}
    for _ in range(POOL):
        x, y = rng.random(VECTOR_N), rng.random(VECTOR_N)
        pools["axpy"].append(Payload(
            "axpy", {"alpha": ALPHA}, {"x": x, "y": y},
            lambda out, w=ALPHA * x + y: np.array_equal(out["y"], w)))
        s = rng.random(VECTOR_N)
        pools["scale"].append(Payload(
            "scale", {"factor": FACTOR}, {"x": s},
            lambda out, w=FACTOR * s: np.array_equal(out["out"], w)))
        A, B = rng.random((MATRIX_N, MATRIX_N)), rng.random((MATRIX_N, MATRIX_N))
        want_c = batched_gemm_reference(1.0, A[None], B[None], 0.0,
                                        np.zeros((1, MATRIX_N, MATRIX_N)))[0]
        pools["gemm"].append(Payload(
            "gemm", {"alpha": 1.0, "beta": 0.0}, {"A": A, "B": B},
            lambda out, w=want_c: np.allclose(out["C"], w, rtol=1e-12, atol=0.0)))
        plate = want_p = rng.random((PLATE, PLATE))
        for _ in range(HEAT_STEPS):
            want_p = jacobi_reference_step(want_p, HEAT_C)
        pools["heat_equation"].append(Payload(
            "heat_equation", {"steps": HEAT_STEPS, "c": HEAT_C}, {"plate": plate},
            lambda out, w=want_p: np.array_equal(out["plate"], w)))
    return pools


# ---------------------------------------------------------------------------
# Gateway process
# ---------------------------------------------------------------------------


class Server:
    """The gateway in a child process, untraced or under the launcher, or
    with ``twin=True`` the numpy twin (numpy_server.py)."""

    def __init__(self, spans_out: Optional[str] = None, twin: bool = False):
        if twin:
            cmd = [sys.executable, os.path.join(HERE, "numpy_server.py")]
        elif spans_out is None:
            cmd = [sys.executable, "-m", "repro.serve", "--port", "0"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   "--spans-out", spans_out, "--", "--port", "0"]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                                     cwd=ROOT, text=True)
        self.port = None
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while self.port is None:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                self.stop()
                raise BenchError(f"{cmd[-1]} did not report its port")
            if "listening on" in line:
                self.port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> str:
        """SIGINT (the gateway drains), wait, and return what it printed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            rest, _ = self.proc.communicate(timeout=SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest, _ = self.proc.communicate()
        return rest or ""


# ---------------------------------------------------------------------------
# Open-loop generator
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    kind: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    #: The response arrived but its arrays were wrong.
    wrong: bool = False
    server_latency: float = 0.0
    #: Which server the request went to: 0 the gateway, 1 the numpy twin.
    target: int = 0


@dataclass
class Phase:
    name: str
    rate: float
    duration: float
    start: float = 0.0
    samples: List[Sample] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def sent(self) -> int:
        return len(self.samples)

    @property
    def succeeded(self) -> int:
        return sum(s.ok for s in self.samples)

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded

    @property
    def wrong(self) -> int:
        return sum(s.wrong for s in self.samples)

    def latencies(self) -> List[float]:
        return [s.done - s.due for s in self.samples if s.ok]

    def late_p99(self) -> float:
        return stats.percentile([s.sent - s.due for s in self.samples], 99.0)

    def select(self, target: int) -> "Phase":
        """The requests of this phase that went to ``target``."""
        return Phase(self.name + (".twin" if target else ""), self.rate, self.duration, self.start,
                     [s for s in self.samples if s.target == target], self.stopped_early)

    @property
    def valid(self) -> bool:
        return self.late_p99() <= LATE_LIMIT_S

    def within_limit_share(self) -> float:
        met = sum(1 for s in self.samples if s.ok and s.done - s.due <= LATENCY_LIMIT_S)
        return stats.ratio(met, self.sent)

    def keeps_up(self) -> bool:
        """Completions in the second half of the send window keep pace
        with the requests due in it (no growing backlog)."""
        half = self.start + self.duration / 2
        end = self.start + self.duration
        due = sum(1 for s in self.samples if s.due >= half)
        done = sum(1 for s in self.samples if s.ok and half <= s.done <= end)
        return not self.stopped_early and done >= KEEP_UP * due

    def meets_limit(self) -> bool:
        return self.valid and self.within_limit_share() >= LIMIT_SHARE and self.keeps_up()


class Generator:
    """Seeded Poisson arrivals over one ServeClient connection.

    Each phase draws its arrival times, request kinds, inputs and
    tenants from its own stream, seeded by (seed, rate), before it
    starts: the same seed gives every phase the same inputs, whatever
    the timing of earlier phases."""

    def __init__(self, clients: Sequence[ServeClient], pools, seed: int):
        self.clients = clients
        self.pools = pools
        self.seed = seed
        self.kinds = [k for k, _ in MIX]
        self.weights = np.array([w for _, w in MIX])

    def plan(self, rate: float, duration: float) -> list:
        """``[(offset_s, payload, tenant), ...]`` for one phase."""
        rng = np.random.default_rng([self.seed, round(rate * 1000)])
        arrivals = []
        t = float(rng.exponential(1.0 / rate))
        while t < duration:
            pool = self.pools[self.kinds[rng.choice(len(self.kinds), p=self.weights)]]
            arrivals.append((t, pool[rng.integers(len(pool))], TENANTS[rng.integers(len(TENANTS))]))
            t += float(rng.exponential(1.0 / rate))
        return arrivals

    async def request(self, payload: Payload, tenant: str, sample: Sample) -> None:
        client = self.clients[sample.target]
        call = client.submit_graph if payload.kind == "heat_equation" else client.launch
        try:
            result = await call(payload.kind, tenant=tenant, params=payload.params,
                                arrays=payload.arrays)
        except (ServeError, ConnectionError, asyncio.TimeoutError):
            sample.done = time.perf_counter()
            return
        sample.done = time.perf_counter()
        sample.server_latency = result.latency
        sample.ok = bool(payload.check(result.arrays))
        sample.wrong = not sample.ok

    async def first_of_each(self) -> int:
        """One verified request of every kind; returns the failures."""
        failed = 0
        for kind, _ in MIX:
            s = Sample(kind, time.perf_counter())
            s.sent = s.due
            await self.request(self.pools[kind][0], TENANTS[0], s)
            failed += not s.ok
        return failed

    async def run(self, name: str, rate: float, duration: float,
                  max_backlog_s: Optional[float] = None) -> Phase:
        """Send on a Poisson schedule for ``duration`` seconds, then wait
        for every response.  With ``max_backlog_s``, sending stops once
        more requests are outstanding than that many seconds of the
        offered rate (the rung has failed; its queue need not grow)."""
        phase = Phase(name, rate, duration)
        arrivals = self.plan(rate, duration)
        tasks = []
        start = phase.start = time.perf_counter() + 0.01
        outstanding = [0]

        async def tracked(payload, tenant, sample):
            try:
                await self.request(payload, tenant, sample)
            finally:
                outstanding[0] -= 1

        for off, payload, tenant in arrivals:
            due = start + off
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if max_backlog_s is not None and outstanding[0] > max_backlog_s * rate:
                phase.stopped_early = True
                break
            sample = Sample(payload.kind, due, sent=time.perf_counter())
            phase.samples.append(sample)
            outstanding[0] += 1
            tasks.append(asyncio.ensure_future(tracked(payload, tenant, sample)))
        for task in tasks:
            await task
        return phase

    async def paired(self, duration: float) -> Phase:
        """One request in flight for ``duration`` seconds, each input sent
        to the gateway and to the numpy twin back to back, the gateway
        first in even pairs.  Samples ``2k`` and ``2k + 1`` form pair k."""
        phase = Phase("paired", 0.0, duration)
        end = time.perf_counter() + duration
        for k, (_, payload, tenant) in enumerate(self.plan(PAIRED_DRAW_RATE, duration)):
            if time.perf_counter() >= end:
                break
            for target in ((0, 1) if k % 2 == 0 else (1, 0)):
                now = time.perf_counter()
                sample = Sample(payload.kind, now, sent=now, target=target)
                phase.samples.append(sample)
                await self.request(payload, tenant, sample)
        return phase


def paired_ratios(phase: Phase) -> Dict[str, List[float]]:
    """Gateway/twin latency ratio of every pair both of whose requests
    succeeded, by request kind."""
    out: Dict[str, List[float]] = {}
    for a, b in zip(phase.samples[0::2], phase.samples[1::2]):
        if a.ok and b.ok:
            gw, twin = (a, b) if a.target == 0 else (b, a)
            out.setdefault(a.kind, []).append((gw.done - gw.due) / (twin.done - twin.due))
    return out


async def ladder(gen: Generator, fixed: List[Phase]) -> tuple:
    """Bisection over LADDER for the highest rate meeting the limit.

    The fixed-rate phases seed the search (50 and 100 req/s are rungs 0
    and 9).  Returns (max_rate, rungs run)."""
    lo, hi = -1, len(LADDER)
    for ph in (f.select(0) for f in fixed):
        k = min(range(len(LADDER)), key=lambda i: abs(LADDER[i] - ph.rate))
        if ph.meets_limit():
            lo = max(lo, k)
        else:
            hi = min(hi, k)
    rungs = []
    for _ in range(RUNG_PROBES):
        if hi - lo <= 1:
            break
        mid = (lo + hi) // 2
        # More requests outstanding than the rate times the latency limit
        # means a mean latency above the limit (Little's law): the rung
        # has failed, and sending more only deepens the queue.
        ph = await gen.run(f"rung{len(rungs)}", LADDER[mid], RUNG_S,
                           max_backlog_s=LATENCY_LIMIT_S)
        await asyncio.sleep(RUNG_SETTLE_S)
        rungs.append(ph)
        if ph.meets_limit():
            lo = mid
        else:
            hi = mid
    return (LADDER[lo] if lo >= 0 else 0.0), rungs


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


async def _session(ports: Sequence[int], seed: int, phases, paired_s: float = 0.0,
                   with_ladder: bool = False, on_client=None, rss_pid: Optional[int] = None) -> dict:
    """Connect to the gateway (and the numpy twin, when a second port is
    given), verify one gateway request of each kind, run ``phases`` (a
    list of ``(name, rate, seconds)``) against the gateway, then
    optionally the paired phase for ``paired_s`` seconds and the
    ladder.  With ``rss_pid``, that process's peak RSS is read before
    the ladder, whose overloaded rungs would make it depend on how
    far the host lets them overload."""
    pools = _payloads(np.random.default_rng(seed))
    async with contextlib.AsyncExitStack() as stack:
        clients = [await stack.enter_async_context(ServeClient(port=p)) for p in ports]
        gen = Generator(clients, pools, seed)
        first_failed = await gen.first_of_each()
        if on_client is not None:
            on_client()
        done = [await gen.run(name, rate, secs) for name, rate, secs in phases]
        paired = None
        max_rate, rungs = None, []
        if paired_s:
            paired = await gen.paired(paired_s)
            await asyncio.sleep(RUNG_SETTLE_S)
        rss = None if rss_pid is None else process_peak_rss_mib(rss_pid)
        if with_ladder:
            max_rate, rungs = await ladder(gen, done)
    return {"first_failed": first_failed, "phases": done, "rungs": rungs,
            "paired": paired, "max_rate": max_rate, "rss_mib": rss}


def setup_probe(seed: int) -> int:
    """Gateway spawn plus one verified request of each kind."""
    server = Server()
    try:
        out = asyncio.run(_session([server.port], seed, []))
    finally:
        server.stop()
    return out["first_failed"]


def phase_row(ph: Phase) -> tuple:
    """Report row of one phase: requests sent, succeeded and failed, and
    for an open-loop phase whether it met the latency limit."""
    lat = ph.latencies()
    note = f"sent={ph.sent} ok={ph.succeeded} failed={ph.failed}"
    if ph.rate:
        note = (f"rate={ph.rate:.1f} {note} late_p99={1e3 * ph.late_p99():.2f}ms "
                f"within_limit={ph.within_limit_share():.4f} "
                f"keeps_up={ph.keeps_up()} meets={ph.meets_limit()}")
    return (f"phase.{ph.name}", 1e3 * stats.median(lat) if lat else None, "ms", ph.sent, note)


def _totals(out: dict) -> tuple:
    """(attempted, failed, wrong) over the first requests and all phases."""
    phases = out["phases"] + out["rungs"] + ([out["paired"]] if out["paired"] else [])
    attempted = len(MIX) + sum(p.sent for p in phases)
    failed = out["first_failed"] + sum(p.failed for p in phases)
    wrong = out["first_failed"] + sum(p.wrong for p in phases)
    return attempted, failed, wrong


def untraced(seed: int, seconds: float) -> dict:
    server = Server()
    try:
        twin = Server(twin=True)
        try:
            out = asyncio.run(_session([server.port, twin.port], seed, [
                ("r50", 50.0, 0.3 * seconds), ("r100", 100.0, 0.55 * seconds)],
                paired_s=0.4 * seconds, with_ladder=True, rss_pid=server.proc.pid))
        finally:
            twin.stop()
    finally:
        server.stop()
    r50, r100 = out["phases"]
    paired = out["paired"]
    ratios = paired_ratios(paired)
    overhead = {kind: stats.median(r) for kind, r in ratios.items()}
    attempted, failed, wrong = _totals(out)
    rows = []
    for ph in (r50, r100):
        lat = ph.latencies()
        p99, tail = stats.percentile_or_none(lat, 99.0), stats.tail(lat)
        rows.append((f"req_ms_p50_{ph.name}", 1e3 * stats.median(lat), "ms", len(lat),
                     "from due time" + ("" if ph.valid else " INVALID: generator late")))
        rows.append((f"req_ms_p99_{ph.name}", None if p99 is None else 1e3 * p99, "ms", len(lat),
                     "" if p99 is not None else "needs 1000 samples" if tail is None
                     else f"p{tail['p']:g}={1e3 * tail['value']:.2f}ms"))
    rows.append(("max_rate_rps", out["max_rate"], "req/s", len(out["rungs"]),
                 f"p99 <= {1e3 * LATENCY_LIMIT_S:.0f} ms, no growing backlog"))
    for target, who in ((0, "gateway"), (1, "twin")):
        lat = paired.select(target).latencies()
        rows.append((f"paired.{who}_ms_p50", 1e3 * stats.median(lat), "ms", len(lat),
                     "one request in flight"))
    for kind, _ in MIX:
        rows.append((f"paired.overhead_x.{kind}", overhead.get(kind), "x", len(ratios.get(kind, [])),
                     "median of gateway/twin latency ratios"))
    rows += [phase_row(ph) for ph in [r50, r100, paired] + out["rungs"]]
    return {
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "overhead_x": stats.geomean(list(overhead.values())),
        "overhead_n": sum(map(len, ratios.values())),
        "overhead_note": "geomean over request kinds of the median paired gateway/twin latency ratio",
        "peak_rss_mib": out["rss_mib"], "rows": rows,
        "valid": r50.valid and r100.valid,
    }


def traced(seed: int, seconds: float) -> dict:
    """r100 against an untraced gateway, then against a traced one with
    the client's codec wrapped too."""
    server = Server()
    try:
        base = asyncio.run(_session([server.port], seed, [("r100", 100.0, 0.5 * seconds)]))
    finally:
        server.stop()

    os.makedirs(OUT, exist_ok=True)
    rec = Recorder()
    layers.install_client(rec)
    server = Server(spans_out=os.path.join(OUT, "spans-serve_mixed-server.jsonl"))
    try:
        def start_recording():
            rec.enabled = True

        out = asyncio.run(_session([server.port], seed, [("r100", 100.0, 0.5 * seconds)],
                                   on_client=start_recording))
        rec.enabled = False
    finally:
        rec.uninstall()
        printed = server.stop()
    server_m = None
    for line in printed.splitlines():
        if line.startswith(LAYERS_TAG + " "):
            server_m = json.loads(line[len(LAYERS_TAG) + 1:])
    if server_m is None:
        raise BenchError("traced gateway printed no layer metrics")

    phase = out["phases"][0]
    ok = [s for s in phase.samples if s.ok]
    m = dict(server_m)
    m["protocol.codec_us"] = m.pop("protocol.server_codec_us") + layers.codec_us_per_request(rec, len(phase.samples))
    m["protocol.wire_ms"] = 1e3 * stats.median([(s.done - s.sent) - s.server_latency for s in ok])
    m["serve.server_latency_ms"] = 1e3 * stats.median([s.server_latency for s in ok])
    m["loadgen.late_ms_p99"] = 1e3 * max(p.late_p99() for p in base["phases"] + out["phases"])
    m["trace.overhead_pct"] = 100.0 * (stats.median(phase.latencies())
                                       / stats.median(base["phases"][0].latencies()) - 1.0)
    attempted, failed, wrong = _totals(out)
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "per_layer": m, "recorder": rec}
