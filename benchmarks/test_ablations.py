"""Ablations of ACORN's design choices (DESIGN.md §5).

1. ε stopping threshold — allocation quality vs evaluation cost.
2. Joint vs independent association/allocation — the paper's thesis
   that the two are tightly coupled under CB.
3. Eq. 4 (network-aware) vs selfish association under CB.
4. SNR calibration off — why the 3 dB width correction matters for
   the allocator's decisions.
"""

import pytest

from repro import Acorn
from repro.analysis.tables import render_table
from repro.baselines.kauffmann import kauffmann_choose_ap
from repro.core import allocate_channels
from repro.errors import AssociationError
from repro.net import ThroughputModel, build_interference_graph
from repro.net.throughput import ThroughputModel as _TM
from repro.sim.scenario import dense_triangle, random_enterprise, topology2


class UncalibratedModel(ThroughputModel):
    """A throughput estimator with the SNR-calibration module removed.

    It believes every width sees the 20 MHz SNR — i.e. it ignores the
    3 dB per-subcarrier penalty of bonding, the way a legacy
    single-width estimator would.
    """

    def link_decision(self, network, ap_id, client_id, channel):
        budget = network.link_budget(ap_id, client_id)
        snr = budget.snr20_db  # wrong for bonded channels, on purpose
        key = (snr, channel.params.name)
        decision = self._decision_cache.get(key)
        if decision is None:
            decision = self.controller.decide_from_snr(snr, channel.params)
            self._decision_cache[key] = decision
        return decision


@pytest.fixture(scope="module")
def epsilon_sweep():
    model = ThroughputModel()
    results = {}
    for epsilon in (1.0, 1.05, 1.25):
        scenario = random_enterprise(n_aps=5, n_clients=12, seed=21)
        acorn = Acorn(
            scenario.network, scenario.plan, model, epsilon=epsilon, seed=4
        )
        acorn.assign_initial_channels()
        acorn.admit_clients(scenario.client_order)
        allocation = acorn.allocate()
        results[epsilon] = (allocation.aggregate_mbps, allocation.evaluations)
    return results


def test_ablation_epsilon(benchmark, epsilon_sweep, emit):
    rows = [
        [epsilon, value, evaluations]
        for epsilon, (value, evaluations) in sorted(epsilon_sweep.items())
    ]
    table = render_table(
        ["epsilon", "aggregate (Mbps)", "evaluations"],
        rows,
        title=(
            "Ablation 1 — the epsilon stopping rule\n"
            "Paper default 1.05: near-exhaustive quality at lower cost"
        ),
    )
    emit("ablation_epsilon", table)
    exhaustive_value, exhaustive_cost = epsilon_sweep[1.0]
    paper_value, paper_cost = epsilon_sweep[1.05]
    loose_value, _ = epsilon_sweep[1.25]
    # Looser epsilon can only stop earlier, never do better.
    assert loose_value <= paper_value + 1e-6 <= exhaustive_value + 2e-6
    # The paper's 1.05 keeps nearly all of the exhaustive quality.
    assert paper_value >= 0.9 * exhaustive_value
    assert paper_cost <= exhaustive_cost
    benchmark.pedantic(
        lambda: dict(epsilon_sweep), rounds=1, iterations=1
    )


@pytest.fixture(scope="module")
def coupling_results():
    """Joint (ACORN) vs independent (selfish assoc + Algorithm 2)."""
    model = ThroughputModel()
    joint_scenario = topology2()
    joint = Acorn(joint_scenario.network, joint_scenario.plan, model, seed=7)
    joint_total = joint.configure(joint_scenario.client_order).total_mbps

    independent_scenario = topology2()
    network = independent_scenario.network
    acorn = Acorn(network, independent_scenario.plan, model, seed=7)
    acorn.assign_initial_channels()
    graph = acorn.graph
    for client_id in independent_scenario.client_order:
        try:
            ap_id, _ = kauffmann_choose_ap(network, graph, model, client_id)
        except AssociationError:
            continue
        network.associate(client_id, ap_id)
    allocation = acorn.allocate()
    independent_total = model.aggregate_mbps(
        network, acorn.graph, assignment=allocation.assignment
    )
    return joint_total, independent_total


def test_ablation_joint_vs_independent(benchmark, coupling_results, emit):
    joint_total, independent_total = coupling_results
    table = render_table(
        ["configuration pipeline", "total (Mbps)"],
        [
            ["joint (Eq. 4 association + Algorithm 2)", joint_total],
            ["independent (selfish association + Algorithm 2)", independent_total],
        ],
        title=(
            "Ablation 2 — joint vs independent association/allocation\n"
            "The paper's thesis: the two are coupled under CB"
        ),
    )
    emit("ablation_joint", table)
    assert joint_total >= independent_total - 1e-6
    benchmark.pedantic(lambda: coupling_results, rounds=1, iterations=1)


def test_ablation_snr_calibration(benchmark, emit):
    """Remove the estimator's 3 dB width calibration and let it drive
    Algorithm 2's decisions; score the result with the true model.

    Topology 2 is the sensitive case: its poor cells are
    interference-free, so the *only* thing keeping them off 40 MHz is
    the estimator knowing that bonding costs 3 dB of SNR.
    """
    scenario = topology2()
    model = ThroughputModel()
    acorn = Acorn(scenario.network, scenario.plan, model, seed=7)
    acorn.assign_initial_channels()
    acorn.admit_clients(scenario.client_order)
    graph = acorn.graph

    calibrated = allocate_channels(
        scenario.network, graph, scenario.plan, model, rng=2
    )
    uncalibrated = allocate_channels(
        scenario.network,
        graph,
        scenario.plan,
        model,
        rng=2,
        decision_model=UncalibratedModel(),
    )
    table = render_table(
        ["estimator", "true aggregate (Mbps)"],
        [
            ["with 3 dB width calibration", calibrated.aggregate_mbps],
            ["calibration removed", uncalibrated.aggregate_mbps],
        ],
        title=(
            "Ablation 3 — the SNR calibration module\n"
            "Without the 3 dB correction the allocator over-bonds poor cells"
        ),
    )
    emit("ablation_calibration", table)
    # The calibrated estimator must not lose to the broken one, and on
    # this topology (poor cells tempted to bond) it wins outright.
    assert calibrated.aggregate_mbps > uncalibrated.aggregate_mbps
    benchmark.pedantic(
        lambda: allocate_channels(
            scenario.network, graph, scenario.plan, model, rng=2
        ),
        rounds=2,
        iterations=1,
    )
