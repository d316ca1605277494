"""The closed-loop workloads — cold configure and campus timeline replay —
plus what every workload shares: the outcome record, the layer wrappers
and the per-layer metric table.

Every input is derived from the ``--seed`` the benchmark is given; the
program under test receives only the generated scenarios and configs.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.core.association as association
import repro.core.controller as controller
import repro.core.refinement as refinement
import repro.net.state as state
from repro.config import make_rng
from repro.core.controller import Acorn
from repro.graph.components import ComponentDecomposition
from repro.link.adaptation import RateController
from repro.net import ChannelPlan, ThroughputModel
from repro.net.interference import build_interference_graph
from repro.sim.scenario import random_enterprise
from repro.sim.timeline import TimelineConfig, campus_network, run_timeline
from repro.traces.associations import synthesize_association_events

from calibrate import Calibrated
from ledger import Ledger

# configure: the CLI user's cold path, at the AP and client density of
# a 24-AP / 60-client enterprise floor but a third of its area, so a
# run holds about fifteen scenarios to take the median of. Every
# scenario of this shape runs the same number of MCS searches (320),
# so seeds differ in geometry, not in work.
CONFIGURE_SHAPE = {"n_aps": 8, "n_clients": 20, "area_m": (35.0, 26.0)}

# timeline: a 49-AP campus, 4 channels, 3 arrivals per minute, Algorithm
# 2 after every third arrival. Each replay is a two-minute window of a
# seed-derived day with exactly TIMELINE_ARRIVALS arrivals, so days
# differ in where and when devices arrive, not in how many.
TIMELINE_APS = 49
TIMELINE_CHANNELS = 4
TIMELINE_RATE_PER_S = 3 / 60
TIMELINE_HORIZON_S = 120.0
TIMELINE_ARRIVALS = 6
TIMELINE_PERIOD_S = 600.0
TIMELINE_EVERY_ARRIVALS = 3

# The per-layer metrics every traced run reports (0 where a workload
# bypasses the layer): metric -> (span name, what to read, unit).
SPAN_METRICS = {
    "mcs.decide_s": ("mcs.decide", "self_s", "s"),
    "mcs.decides": ("mcs.decide", "calls", "count"),
    "throughput.decision_s": ("throughput.decision", "self_s", "s"),
    "throughput.decisions": ("throughput.decision", "calls", "count"),
    "state.rate_tables_s": ("state.rate_tables", "self_s", "s"),
    "state.compile_s": ("state.compile", "self_s", "s"),
    "state.compiles": ("state.compile", "calls", "count"),
    "interference.build_s": ("interference.build", "self_s", "s"),
    "interference.builds": ("interference.build", "calls", "count"),
    "scenario.build_s": ("scenario.build", "self_s", "s"),
    "association.choose_ap_s": ("association.choose_ap", "self_s", "s"),
    "association.scans": ("association.choose_ap", "calls", "count"),
    "allocation.allocate_s": ("allocation.allocate", "self_s", "s"),
    "refinement.refine_s": ("refinement.refine", "self_s", "s"),
    "state.apply_churn_s": ("state.apply_churn", "self_s", "s"),
    "state.apply_churn_calls": ("state.apply_churn", "calls", "count"),
    "components.update_s": ("components.update", "self_s", "s"),
    "throughput.evaluate_s": ("throughput.evaluate", "self_s", "s"),
    "throughput.evaluates": ("throughput.evaluate", "calls", "count"),
    "controller.self_s": ("controller", "self_s", "s"),
    "timeline.loop_self_s": ("timeline.loop", "self_s", "s"),
}
COUNT_METRICS = ("allocation.evaluations", "refinement.moves", "throughput.history_mismatches")
SERVICE_OPS = ("beacon", "admit", "depart", "reconfigure_warm", "reconfigure_cold", "status")
SERVICE_METRICS = tuple(
    f"service.{op}.{kind}" for op in SERVICE_OPS for kind in ("compute_p50_ms", "wait_p99_ms")
) + ("service.loop_busy_pct", "service.gen_lag_p99_ms", "service.beacon_batch_mean")
DERIVED_METRICS = ("throughput.decision_hit_pct", "unattributed_pct", "trace_overhead_pct")
PER_LAYER = tuple(SPAN_METRICS) + COUNT_METRICS + DERIVED_METRICS + SERVICE_METRICS


def layer_unit(name: str) -> str:
    if name in SPAN_METRICS:
        return SPAN_METRICS[name][2]
    if name.endswith("_ms"):
        return "ms"
    return "%" if name.endswith("_pct") else "count"


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    # The gated end-to-end slots (see BENCHMARK.json): unit_ms and
    # rate_per_s. setup_s and peak_rss_mb are added by run.py. The
    # closed loops scale each unit by the calibration kernel timed
    # around it (see calibrate.py).
    e2e: Dict[str, float]
    # The path metrics printed by name: (name, value, unit, samples).
    named: List[Tuple[str, float, str, int]]
    attempted: int
    failed: int
    setup_build_s: float
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    layer_table: Dict[str, Dict[str, float]] = field(default_factory=dict)
    traced_wall_s: float = 0.0
    ledger: Optional[Ledger] = None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def install_layers(ledger: Ledger) -> None:
    """Wrap each layer's public entry points where their callers find them."""

    def add_evaluations(ledger, result):
        ledger.count("allocation.evaluations", result.total_evaluations)

    def add_moves(ledger, result):
        ledger.count("refinement.moves", result.n_moves)

    def beacon_owner(args):
        # choose_ap(network, graph, model, client_id, ...)
        return ledger.client_owner.get(args[3]) if len(args) > 3 else None

    ledger.wrap(RateController, "decide_from_snr", "mcs.decide")
    ledger.wrap(ThroughputModel, "decision_from_snr", "throughput.decision")
    ledger.wrap(ThroughputModel, "evaluate", "throughput.evaluate")
    ledger.wrap(state.RateTables, "__init__", "state.rate_tables")
    ledger.wrap(state.CompiledNetwork, "compile", "state.compile")
    ledger.wrap(state.CompiledNetwork, "apply_churn", "state.apply_churn")
    ledger.wrap(controller, "build_interference_graph", "interference.build")
    ledger.wrap(state, "build_interference_graph", "interference.build")
    ledger.wrap(controller, "choose_ap", "association.choose_ap")
    # The service imports choose_ap lazily from its home module.
    ledger.wrap(association, "choose_ap", "association.choose_ap", parent_of=beacon_owner)
    ledger.wrap(controller, "allocate_channels", "allocation.allocate", on_result=add_evaluations)
    # Acorn._configure imports refine_associations lazily from its home module.
    ledger.wrap(refinement, "refine_associations", "refinement.refine", on_result=add_moves)
    ledger.wrap(ComponentDecomposition, "update", "components.update")
    ledger.wrap(ComponentDecomposition, "from_graph", "components.build")
    for method in (
        "__init__", "configure", "assign_initial_channels", "admit_client",
        "admit_clients", "allocate", "apply_churn", "invalidate_graph",
    ):
        ledger.wrap(Acorn, method, "controller")


def layer_metrics(
    table: Dict[str, Dict[str, float]],
    counts: Dict[str, float],
    root_self_s: float,
    wall_s: float,
    overhead_pct: float,
    decision_misses: int,
) -> Dict[str, float]:
    """The full per-layer metric set from one traced unit of work."""
    layers = {}
    for metric, (span, key, _) in SPAN_METRICS.items():
        layers[metric] = float(table.get(span, {}).get(key, 0))
    for metric in COUNT_METRICS:
        layers[metric] = float(counts.get(metric, 0))
    decisions = layers["throughput.decisions"]
    layers["throughput.decision_hit_pct"] = (
        100.0 * (decisions - decision_misses) / decisions if decisions else 0.0
    )
    layers["unattributed_pct"] = 100.0 * root_self_s / wall_s if wall_s > 0 else 0.0
    layers["trace_overhead_pct"] = overhead_pct
    for metric in SERVICE_METRICS:
        layers.setdefault(metric, 0.0)
    return layers


def decision_misses(ledger: Ledger) -> int:
    """Cached rate lookups that had to run the MCS search."""
    spans = ledger.spans
    return sum(
        1
        for name, _, _, parent, _ in spans
        if name == "mcs.decide" and parent >= 0 and spans[parent][0] == "throughput.decision"
    )


def trace_unit(ledger: Ledger, root: str, work) -> Tuple[object, float, Dict, float]:
    """Run ``work`` under a root span with every layer wrapped."""
    install_layers(ledger)
    try:
        with ledger.span(root) as index:
            value = work()
    finally:
        ledger.unwrap_all()
    _, start, end, _, _ = ledger.spans[index]
    table = ledger.self_times()
    root_self_s = table.pop(root)["self_s"]
    return value, end - start, table, root_self_s


# ----------------------------------------------------------------------
# configure
# ----------------------------------------------------------------------
def _configure(scenario_seed: int, model: Optional[ThroughputModel] = None, ledger=None):
    building = ledger.span("scenario.build") if ledger else contextlib.nullcontext()
    with building:
        scenario = random_enterprise(seed=scenario_seed, **CONFIGURE_SHAPE)
    acorn = Acorn(
        scenario.network,
        scenario.plan,
        model if model is not None else ThroughputModel(),
        seed=scenario_seed,
    )
    result = acorn.configure(client_order=scenario.client_order, refine=True)
    return scenario, acorn, result


def _same_plan(a, b) -> bool:
    return (
        a.total_mbps == b.total_mbps
        and a.report.assignment == b.report.assignment
        and a.report.associations == b.report.associations
    )


def _check_configure(scenario_seed, scenario, acorn, result, problems) -> None:
    network = scenario.network
    palette = set(scenario.plan.all_channels())
    label = f"configure seed {scenario_seed}"
    for ap_id in network.ap_ids:
        if network.channel_assignment.get(ap_id) not in palette:
            problems.append(f"{label}: AP {ap_id} holds no channel from the plan")
    for client_id, ap_id in network.associations.items():
        if ap_id not in network.candidate_aps(client_id, acorn.min_snr20_db):
            problems.append(f"{label}: {client_id} is associated outside its serving set")
    fresh = acorn.model.evaluate(network, build_interference_graph(network)).total_mbps
    if fresh != result.total_mbps:
        problems.append(f"{label}: reported {result.total_mbps!r} != re-evaluated {fresh!r}")
    # Same inputs, same model: the plan must repeat exactly.
    _, _, again = _configure(scenario_seed, model=acorn.model)
    if not _same_plan(again, result):
        problems.append(f"{label}: a repeated configure gave a different plan")


def run_configure(seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed loop of cold configures, one fresh scenario and model each."""
    problems: List[str] = []
    walls: List[float] = []
    results = []
    calibrated = Calibrated()
    for index in itertools.count():
        # The traced run times one untraced scenario, then traces one.
        if walls and (trace or math.fsum(walls) >= seconds):
            break
        scenario_seed = seed * 1000 + index
        t0 = time.perf_counter()
        scenario, acorn, result = _configure(scenario_seed)
        walls.append(time.perf_counter() - t0)
        calibrated.add(walls[-1])
        results.append(result)
        _check_configure(scenario_seed, scenario, acorn, result, problems)
    totals = [r.total_mbps for r in results]
    outcome = Outcome(
        e2e={
            "unit_ms": 1e3 * calibrated.median(),
            "rate_per_s": 1.0 / calibrated.median(),
        },
        named=[
            ("configure.p50_s", statistics.median(walls), "s", len(walls)),
            ("configure.mbps", statistics.fmean(totals), "Mbps", len(totals)),
        ],
        attempted=len(walls),
        failed=0,
        setup_build_s=0.0,
        problems=problems,
    )
    if trace:
        _trace_configure(seed, calibrated, results[0], outcome)
    return outcome


def overhead_pct(calibrated: Calibrated, traced_unit_s: float) -> float:
    """A traced unit against the first untraced one, both at reference speed."""
    calibrated.add(traced_unit_s)
    untraced, traced = calibrated.scaled[0], calibrated.scaled[-1]
    return 100.0 * (traced - untraced) / untraced


def _trace_configure(seed: int, calibrated: Calibrated, cold_first, outcome: Outcome) -> None:
    """Ledger of one traced cold configure, plus the history count."""
    ledger = Ledger()
    traced_seed = seed * 1000 + 1
    (scenario, acorn, result), wall_s, table, root_self_s = trace_unit(
        ledger, "configure.unit", lambda: _configure(traced_seed, ledger=ledger)
    )
    overhead = overhead_pct(calibrated, wall_s)
    _check_configure(traced_seed, scenario, acorn, result, outcome.problems)
    # History independence: scenario 0 again, on the model the traced
    # scenario warmed. A pure rate-decision cache gives the same plan.
    _, _, warm = _configure(seed * 1000, model=acorn.model)
    ledger.count("throughput.history_mismatches", 0 if _same_plan(warm, cold_first) else 1)
    outcome.layers = layer_metrics(
        table,
        ledger.counts,
        root_self_s,
        wall_s,
        overhead,
        decision_misses(ledger),
    )
    outcome.layer_table, outcome.traced_wall_s = table, wall_s
    outcome.ledger = ledger


# ----------------------------------------------------------------------
# timeline
# ----------------------------------------------------------------------
def timeline_days(seed: int):
    """Seed-derived days with exactly TIMELINE_ARRIVALS arrivals in the window."""
    for k in itertools.count():
        day = seed * 1000 + k
        events = synthesize_association_events(
            TIMELINE_HORIZON_S, TIMELINE_RATE_PER_S, rng=make_rng(day)
        )
        if sum(1 for e in events if e.arrival_s < TIMELINE_HORIZON_S) == TIMELINE_ARRIVALS:
            yield day


def _replay(day: int, ledger: Optional[Ledger] = None):
    network = campus_network(TIMELINE_APS, seed=day)
    config = TimelineConfig(
        horizon_s=TIMELINE_HORIZON_S,
        arrival_rate_per_s=TIMELINE_RATE_PER_S,
        period_s=TIMELINE_PERIOD_S,
        allocate_every_arrivals=TIMELINE_EVERY_ARRIVALS,
        measure_every_event=True,
        seed=day,
    )
    plan = ChannelPlan().subset(TIMELINE_CHANNELS)
    loop = ledger.span("timeline.loop") if ledger else contextlib.nullcontext()
    t0 = time.perf_counter()
    with loop:
        result = run_timeline(network, plan, config, ThroughputModel())
    return network, result, time.perf_counter() - t0


def _timeline_signature(result) -> tuple:
    return (
        result.n_events,
        result.n_arrivals,
        result.n_departures,
        result.n_rejected,
        result.mean_throughput_mbps,
    )


def _check_associations(network, result, problems) -> None:
    if len(network.associations) != result.n_arrivals - result.n_departures:
        problems.append(
            f"timeline: {len(network.associations)} associations at the end, "
            f"expected {result.n_arrivals - result.n_departures}"
        )


def _check_repeat(result, first, problems) -> None:
    if _timeline_signature(result) != _timeline_signature(first):
        problems.append(
            f"timeline: replay gave {_timeline_signature(result)}, "
            f"first replay {_timeline_signature(first)}"
        )


def run_timeline_workload(seed: int, seconds: float, trace: bool) -> Outcome:
    """Replays of one seed-derived day after another until the time is used."""
    days = timeline_days(seed)
    first_day = next(days)
    problems: List[str] = []
    results, walls = [], []
    # A replay is one call, so its unit is the mean event of a day.
    calibrated = Calibrated()
    day = first_day
    while True:
        network, result, wall_s = _replay(day)
        results.append(result)
        walls.append(wall_s)
        calibrated.add(wall_s / result.n_events)
        _check_associations(network, result, problems)
        # The traced run compares one untraced replay with a traced one.
        if trace or math.fsum(walls) >= seconds:
            break
        day = next(days)
    first = results[0]
    if not trace:
        # Same day, same seed: a replay must repeat exactly.
        network, again, _ = _replay(first_day)
        _check_associations(network, again, problems)
        _check_repeat(again, first, problems)
    epochs = [e.reconfig_wall_s for r in results for e in r.epochs]
    events = sum(r.n_events for r in results)
    outcome = Outcome(
        e2e={"unit_ms": 1e3 * calibrated.median(), "rate_per_s": 1.0 / calibrated.median()},
        named=[
            ("timeline.events_per_s", events / math.fsum(walls), "1/s", events),
            (
                "timeline.mbps",
                statistics.fmean(r.mean_throughput_mbps for r in results),
                "Mbps",
                len(results),
            ),
            ("timeline.reconfig_p50_ms", 1e3 * statistics.median(epochs), "ms", len(epochs)),
        ],
        attempted=events,
        failed=0,
        setup_build_s=0.0,
        problems=problems,
    )
    if trace:
        ledger = Ledger()
        (network, result, traced_s), wall_s, table, root_self_s = trace_unit(
            ledger, "timeline.unit", lambda: _replay(first_day, ledger)
        )
        _check_associations(network, result, problems)
        _check_repeat(result, first, problems)
        outcome.layers = layer_metrics(
            table,
            ledger.counts,
            root_self_s,
            wall_s,
            overhead_pct(calibrated, traced_s / result.n_events),
            decision_misses(ledger),
        )
        outcome.layer_table, outcome.traced_wall_s = table, wall_s
        outcome.ledger = ledger
    return outcome
