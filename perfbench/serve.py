"""The open-loop serving workload against ``AcornService``.

One process, one thread, one event loop, no socket: the generator and
the service share the loop, as a front-end does with its controller.
Requests are due on a seeded Poisson schedule drawn before each phase;
latency runs from the due time, so a request queued behind a blocking
cold re-plan is charged the wait.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import selectors
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.net import ChannelPlan, CompiledNetwork, ThroughputModel
from repro.net.interference import build_interference_graph
from repro.net.state import network_fingerprint
from repro.obs.tracer import Tracer, activate
from repro.service import AcornService
from repro.sim.timeline import campus_network

from calibrate import Calibrated
from ledger import REQUEST_ID, Ledger, span_cost_s
from workloads import (
    SERVICE_OPS,
    Outcome,
    decision_misses,
    install_layers,
    layer_metrics,
    percentile,
)

# A fragmented campus: at 150 m spacing the APs split into several
# interference shards.
SERVE_APS = 36
SERVE_SPACING_M = 150.0
RESIDENTS = 90
# Two devices (a laptop and a phone) per desk: devices on one desk share
# link SNRs, so set-up pays the rate math once per desk.
DESKS = 45
DESK_RADIUS_M = 40.0
AWAY_AT_START = 10  # residents that leave during set-up and return later
# Set-up runs for several seconds, long enough for the host's speed to
# change, so a calibration kernel closes every this many admissions.
ADMITS_PER_SEGMENT = 15
# The deployment and its desks are one fixed campus; the workload seed
# draws the traffic. Seeded geometry moved the cold re-plan cost, and
# with it the heavy tail, by 2x between seeds.
CAMPUS_SEED = 2010

# Op mix of the measured phases. Returning devices re-admit at their
# recorded positions, so admissions hit the rate-decision cache.
MIX = {
    "beacon": 0.53,
    "depart": 0.10,
    "admit": 0.10,
    "reconfigure_warm": 0.15,
    "status": 0.10,
    "reconfigure_cold": 0.02,
}
# Requests that can move a device between APs, and so merge or split
# interference shards.
CHURN = ("beacon", "depart", "admit")
# Offered rates, frozen. The loop's capacity for this mix is about
# 450 req/s on the reference machine, so light is ~15% and heavy ~40%
# of it; higher loads made the goodput spread 4x more between seeds
# (see perfbench/README.md).
LIGHT_RPS = 70.0
HEAVY_RPS = 175.0
LATENCY_LIMIT_S = 0.050
# The light phase gives the gated mix latency and the heavy phase the
# goodput; each needs enough of the rarer ops to take medians of.
PHASE_SHARE = {"light": 0.4, "heavy": 0.6}


class TimedSelector(selectors.DefaultSelector):
    """The loop's selector, counting the time the loop sat idle."""

    idle_s = 0.0

    def select(self, timeout=None):
        t0 = time.perf_counter()
        try:
            return super().select(timeout)
        finally:
            self.idle_s += time.perf_counter() - t0


@dataclass
class Request:
    rid: int
    kind: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    span: int = -1


class ReplanGate:
    """Keeps churn out of a cold all-shard re-plan.

    The service snapshots the shard list for an all-shard re-plan and
    then runs the shards as separate tasks; a beacon move, depart or
    admit that lands in between can retire a snapshotted shard and fail
    the re-plan with ``unknown shard`` (see perfbench/README.md). So a
    churn request due during a re-plan waits for it, and a re-plan waits
    for the churn already in flight. Either wait counts in the
    request's latency, which runs from its due time.
    """

    def __init__(self) -> None:
        self.changed = asyncio.Condition()
        self.churning = 0
        self.replanning = 0

    @contextlib.asynccontextmanager
    async def _churn(self):
        async with self.changed:
            await self.changed.wait_for(lambda: not self.replanning)
            self.churning += 1
        try:
            yield
        finally:
            async with self.changed:
                self.churning -= 1
                self.changed.notify_all()

    @contextlib.asynccontextmanager
    async def _replan(self):
        async with self.changed:
            # Announce the re-plan first, so new churn waits behind it.
            self.replanning += 1
            await self.changed.wait_for(lambda: not self.churning)
        try:
            yield
        finally:
            async with self.changed:
                self.replanning -= 1
                self.changed.notify_all()

    def hold(self, kind: str):
        if kind == "reconfigure_cold":
            return self._replan()
        if kind in CHURN:
            return self._churn()
        return contextlib.nullcontext()


class Campus:
    """Which devices are associated, away, or have a request in flight."""

    def __init__(self, positions: Dict[str, tuple], away: List[str]) -> None:
        self.positions = positions
        self.away = set(away)
        self.busy: set = set()
        self.gate = ReplanGate()

    def idle(self, present: bool) -> List[str]:
        pool = (set(self.positions) - self.away) if present else self.away
        return sorted(pool - self.busy)


def schedule(rng: np.random.Generator, rate: float, seconds: float):
    """Due offsets, op kinds and target draws for one phase."""
    n = int(rng.poisson(rate * seconds * 1.5)) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    kinds = rng.choice(list(MIX), size=n, p=list(MIX.values()))
    picks = rng.random(size=n)
    keep = offsets < seconds
    return list(zip(offsets[keep].tolist(), kinds[keep].tolist(), picks[keep].tolist()))


def mix_latency_s(requests: List[Request]) -> float:
    """Each op's median latency, weighted by the op's share of MIX.

    Beacons compute for about 1 ms and are half the requests; most
    other ops compute for 2-4 ms. So the plain median sits where the
    beacons meet the rest,
    and which op it lands on moves with each seed's draw of the mix.
    Weighting per-op medians by MIX holds the mix fixed.
    """
    latencies: Dict[str, List[float]] = {}
    for request in requests:
        latencies.setdefault(request.kind, []).append(request.done - request.due)
    return math.fsum(
        MIX[kind] * statistics.median(values) for kind, values in latencies.items()
    ) / math.fsum(MIX[kind] for kind in latencies)


async def set_up(calibrated: Calibrated):
    """Campus, service, resident devices, a first cold plan.

    A calibration kernel closes every ADMITS_PER_SEGMENT admissions and
    the end of set-up; the scaled segments add up to the set-up time.
    """
    t0 = time.perf_counter()

    def close_segment() -> None:
        nonlocal t0
        calibrated.add(time.perf_counter() - t0)
        t0 = time.perf_counter()

    rng = np.random.default_rng(CAMPUS_SEED)
    network = campus_network(SERVE_APS, spacing_m=SERVE_SPACING_M, seed=CAMPUS_SEED)
    service = AcornService(network, ChannelPlan(), ThroughputModel(), seed=CAMPUS_SEED)
    await service.start()
    anchors = [network.ap(a).position for a in network.ap_ids]
    desks = []
    for _ in range(DESKS):
        x, y = anchors[int(rng.integers(len(anchors)))]
        radius = DESK_RADIUS_M * math.sqrt(rng.random())
        angle = 2 * math.pi * rng.random()
        desks.append((x + radius * math.cos(angle), y + radius * math.sin(angle)))
    positions = {}
    for index in range(RESIDENTS):
        client = f"dev{index:03d}"
        positions[client] = desks[index % DESKS]
        response = await service.admit(client, position=positions[client])
        if not response["ok"]:
            raise RuntimeError(f"set-up admission of {client} refused: {response}")
        if (index + 1) % ADMITS_PER_SEGMENT == 0:
            close_segment()
    await service.reconfigure(warm=False)
    away = sorted(positions)[:AWAY_AT_START]
    for client in away:
        await service.depart(client)
    close_segment()
    return service, Campus(positions, away)


async def run_phase(service, campus: Campus, plan, ledger: Optional[Ledger]) -> List[Request]:
    """Send every scheduled request on time; wait for all to finish."""
    loop = asyncio.get_running_loop()
    requests: List[Request] = []
    tasks = []
    t0 = time.perf_counter()
    for offset, kind, pick in plan:
        delay = t0 + offset - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        target = pick
        if kind in CHURN:
            pool = campus.idle(present=kind != "admit")
            if pool:
                target = pool[int(pick * len(pool))]
                campus.busy.add(target)
            else:  # every candidate device is busy: ask for status instead
                kind = "status"
        request = Request(len(requests), kind, t0 + offset, sent=time.perf_counter())
        requests.append(request)
        tasks.append(loop.create_task(send(service, campus, request, target, ledger)))
    await asyncio.gather(*tasks)
    return requests


async def send(service, campus: Campus, request: Request, target, ledger) -> None:
    kind = request.kind
    handle = None
    if ledger is not None:
        REQUEST_ID.set(request.rid)
        handle = ledger.open(f"service.{kind}")
        request.span = handle[0]
        if kind == "beacon":
            ledger.client_owner[target] = handle[0]
    try:
        async with campus.gate.hold(kind):
            response = await call(service, campus, kind, target)
        request.ok = bool(response.get("ok"))
    except Exception as exc:  # a failed request is data, not a crash
        request.ok = False
        print(f"serve: {kind} {target!r} failed: {exc!r}")
    finally:
        request.done = time.perf_counter()
        if handle is not None:
            ledger.close(handle)
            ledger.client_owner.pop(target, None)
        if kind in CHURN:
            campus.busy.discard(target)
            if request.ok and kind == "depart":
                campus.away.add(target)
            elif request.ok and kind == "admit":
                campus.away.discard(target)


async def call(service, campus: Campus, kind: str, target):
    """Send one request of ``kind`` to the service; return its response."""
    if kind == "beacon":
        return await service.beacon(target)
    if kind == "depart":
        return await service.depart(target)
    if kind == "admit":
        return await service.admit(target, position=campus.positions[target])
    if kind == "reconfigure_warm":
        # Pick the shard as the request starts, from the live shard map.
        shards = service.acorn.decomposition.shard_ids
        return await service.reconfigure(shard=shards[int(target * len(shards))], warm=True)
    if kind == "reconfigure_cold":
        return await service.reconfigure(warm=False)
    return await service.status()


async def _serve(seed: int, seconds: float, trace: bool, selector: TimedSelector) -> dict:
    # Set-up is scaled by the calibration kernels timed around its
    # segments (see calibrate.py). Latencies are not: most of a light
    # request's latency is the loop waking and switching tasks, and the
    # kernel's run-to-run noise moved a scaled latency more than the
    # host's speed moved the raw one.
    calibrated = Calibrated()
    service, campus = await set_up(calibrated)
    run = {"setup_build_s": math.fsum(calibrated.scaled), "wall_s": 0.0, "busy_s": 0.0}
    rng = np.random.default_rng([seed, 7])
    plans = {
        "light": schedule(rng, LIGHT_RPS, seconds * PHASE_SHARE["light"]),
        "heavy": schedule(rng, HEAVY_RPS, seconds * PHASE_SHARE["heavy"]),
    }
    ledger = run["ledger"] = Ledger() if trace else None
    tracer = run["tracer"] = Tracer()

    async def phase(name: str) -> None:
        idle0, wall0 = selector.idle_s, time.perf_counter()
        run[name] = await run_phase(service, campus, plans[name], ledger)
        wall_s = time.perf_counter() - wall0
        run["wall_s"] += wall_s
        run["busy_s"] += wall_s - (selector.idle_s - idle0)

    if trace:
        install_layers(ledger)
    try:
        with activate(tracer) if trace else contextlib.nullcontext():
            await phase("light")
            await phase("heavy")
    finally:
        if trace:
            ledger.unwrap_all()
    run["status"] = await service.status()
    run["problems"] = _check_service(service, run["status"])
    await service.stop()
    return run


def _check_service(service: AcornService, status) -> List[str]:
    network = service.network
    problems = []
    graph = build_interference_graph(network)
    patched = service.acorn.compiled.thaw()
    fresh = CompiledNetwork.compile(network, graph, service.acorn.plan).thaw()
    # Allocation commits channels to the live network; the snapshot's
    # copy is refreshed only by churn patches, so compare it on its own
    # channels. Links, SNRs, graph and associations must match exactly.
    for ap_id, channel in patched.channel_assignment.items():
        fresh.set_channel(ap_id, channel)
    if network_fingerprint(patched) != network_fingerprint(fresh):
        problems.append("serve: patched compiled state differs from a fresh compile")
    total = service.acorn.model.evaluate(network, graph).total_mbps
    if status["total_mbps"] != total:
        problems.append(f"serve: status total {status['total_mbps']!r} != fresh evaluate {total!r}")
    return problems


def run_serve(seed: int, seconds: float, trace: bool) -> Outcome:
    """Set up the campus, then a light and a heavy open-loop phase."""
    selector = TimedSelector()
    with asyncio.Runner(loop_factory=lambda: asyncio.SelectorEventLoop(selector)) as runner:
        run = runner.run(_serve(seed, seconds, trace, selector))
    light, heavy = run["light"], run["heavy"]
    every = light + heavy
    failed = sum(1 for r in every if not r.ok)
    good = sum(1 for r in heavy if r.ok and r.done - r.due <= LATENCY_LIMIT_S)
    # Goodput at the offered rate: the Poisson draw of how many requests
    # fall in the phase would otherwise add a few percent of noise.
    goodput_rps = HEAVY_RPS * good / len(heavy)
    lat_light = [r.done - r.due for r in light]
    lat_heavy = [r.done - r.due for r in heavy]
    outcome = Outcome(
        e2e={
            "unit_ms": 1e3 * mix_latency_s(light),
            "rate_per_s": goodput_rps,
        },
        named=[
            ("serve.light.p50_ms", 1e3 * statistics.median(lat_light), "ms", len(light)),
            ("serve.light.p99_ms", 1e3 * percentile(lat_light, 99), "ms", len(light)),
            ("serve.heavy.p50_ms", 1e3 * statistics.median(lat_heavy), "ms", len(heavy)),
            ("serve.heavy.p99_ms", 1e3 * percentile(lat_heavy, 99), "ms", len(heavy)),
            ("serve.heavy.goodput_rps", goodput_rps, "1/s", len(heavy)),
            ("serve.failed_pct", 100.0 * failed / len(every), "%", len(every)),
        ],
        attempted=len(every),
        failed=failed,
        setup_build_s=run["setup_build_s"],
        problems=run["problems"],
    )
    if trace:
        _serve_layers(outcome, run, every)
    return outcome


def _serve_layers(outcome: Outcome, run: dict, every: List[Request]) -> None:
    """Per-op compute and wait, loop busy share, generator lag."""
    ledger: Ledger = run["ledger"]
    busy_s = run["busy_s"]
    child_s = ledger.children_s()
    table = ledger.self_times()
    for op in SERVICE_OPS:
        table.pop(f"service.{op}", None)
    # Layer time is what the request spans' children cover; the rest of
    # the busy loop (asyncio, the generator, service glue) is unattributed.
    attributed = math.fsum(child_s[r.span] for r in every)
    overhead_pct = 100.0 * len(ledger.spans) * span_cost_s() / busy_s
    layers = layer_metrics(
        table, ledger.counts, busy_s - attributed, busy_s, overhead_pct, decision_misses(ledger)
    )
    for op in SERVICE_OPS:
        mine = [r for r in every if r.kind == op]
        if mine:
            layers[f"service.{op}.compute_p50_ms"] = 1e3 * statistics.median(
                child_s[r.span] for r in mine
            )
            layers[f"service.{op}.wait_p99_ms"] = 1e3 * percentile(
                [r.done - r.due - child_s[r.span] for r in mine], 99
            )
    layers["service.loop_busy_pct"] = 100.0 * busy_s / run["wall_s"]
    layers["service.gen_lag_p99_ms"] = 1e3 * percentile([r.sent - r.due for r in every], 99)
    batches = run["tracer"].metrics.counter("service.beacon_batches").value
    beacons = sum(1 for r in every if r.kind == "beacon")
    layers["service.beacon_batch_mean"] = beacons / batches if batches else 0.0
    outcome.layers, outcome.layer_table, outcome.traced_wall_s = layers, table, busy_s
    outcome.ledger = ledger
