"""Bit-equivalence suite for the compiled array-backed network core.

The contract under test is stricter than the delta-evaluator tolerance
contract: a :class:`repro.net.CompiledEvaluator` must reproduce the
dict-keyed :class:`repro.net.DeltaEvaluator` *exactly* (float ``==``,
no tolerance) after any sequence of trials, commits, rollbacks, resets
and association moves — on every registered scenario and on a seeded
sweep of random enterprises, under both the binary-conflict model and
the weighted partial-overlap model. The allocators must therefore make
identical decisions on either engine.
"""

import pickle
import random

import pytest

from repro.core.allocation import allocate_channels, random_assignment
from repro.core.refinement import refine_associations
from repro.errors import AllocationError, TopologyError
from repro.net import (
    Channel,
    ChannelPlan,
    CompiledEvaluator,
    CompiledNetwork,
    DeltaEvaluator,
    ThroughputModel,
    UplinkThroughputModel,
    WeightedThroughputModel,
    build_interference_graph,
    network_fingerprint,
    supports_compiled,
)
from repro.net.topology import Network
from repro.sim.scenario import SCENARIOS, random_enterprise

RANDOM_SEEDS = tuple(range(12))
MODELS = ("base", "weighted")


def make_model(kind):
    return ThroughputModel() if kind == "base" else WeightedThroughputModel()


def registered(name):
    """A registered scenario with every client associated."""
    scenario = SCENARIOS[name]()
    network = scenario.network
    for client_id in network.client_ids:
        candidates = network.candidate_aps(client_id)
        if candidates:
            network.associate(client_id, candidates[0])
    return network, build_interference_graph(network), scenario.plan


def random_case(seed, n_aps=5, n_clients=12):
    """A random enterprise with deterministic random associations."""
    scenario = random_enterprise(
        n_aps=n_aps, n_clients=n_clients, area_m=(60.0, 45.0), seed=seed
    )
    network = scenario.network
    rng = random.Random(seed)
    for client_id in network.client_ids:
        candidates = list(network.candidate_aps(client_id, -8.0))
        if candidates:
            network.associate(client_id, rng.choice(candidates))
    return network, build_interference_graph(network), scenario.plan


ALL_CASES = [("scenario", name) for name in SCENARIOS] + [
    ("random", seed) for seed in RANDOM_SEEDS
]


def build_case(kind, key):
    return registered(key) if kind == "scenario" else random_case(key)


def paired_engines(network, graph, plan, model):
    """One delta and one compiled engine over identical state."""
    initial = random_assignment(network.ap_ids, plan, 3)
    delta = DeltaEvaluator(network, graph, model=model, assignment=initial)
    compiled = CompiledNetwork.compile(network, graph, plan)
    fast = CompiledEvaluator(compiled, model=model, assignment=initial)
    return delta, fast


class TestCompiledNetwork:
    @pytest.mark.parametrize(("kind", "key"), ALL_CASES)
    def test_thaw_is_bit_faithful(self, kind, key):
        network, graph, plan = build_case(kind, key)
        compiled = CompiledNetwork.compile(network, graph, plan)
        assert compiled.fingerprint() == network_fingerprint(network)
        thawed = compiled.thaw()
        assert network_fingerprint(thawed) == network_fingerprint(network)
        assert thawed.ap_ids == network.ap_ids
        assert thawed.client_ids == network.client_ids
        assert thawed.associations == network.associations

    @pytest.mark.parametrize(("kind", "key"), ALL_CASES)
    def test_candidate_aps_matches_network(self, kind, key):
        network, graph, plan = build_case(kind, key)
        compiled = CompiledNetwork.compile(network, graph, plan)
        for floor in (-8.0, -5.0, 5.0, 25.0):
            for client_id in network.client_ids:
                assert compiled.candidate_aps(client_id, floor) == tuple(
                    network.candidate_aps(client_id, floor)
                )
        with pytest.raises(TopologyError):
            compiled.candidate_aps("nobody")

    def test_pickle_round_trip(self):
        network, graph, plan = registered("office")
        compiled = CompiledNetwork.compile(network, graph, plan)
        compiled.rate_tables(ThroughputModel())  # populate the local cache
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.fingerprint() == compiled.fingerprint()
        assert clone.ap_ids == compiled.ap_ids
        # Engines over the clone still produce identical values.
        model = ThroughputModel()
        initial = random_assignment(network.ap_ids, plan, 5)
        a = CompiledEvaluator(compiled, model=model, assignment=initial)
        b = CompiledEvaluator(clone, model=model, assignment=initial)
        assert a.aggregate_mbps == b.aggregate_mbps

    def test_fingerprint_sensitive_to_state(self):
        network, graph, plan = registered("office")
        before = network_fingerprint(network)
        ap_id = network.ap_ids[0]
        network.set_channel(ap_id, plan.all_channels()[0])
        assert network_fingerprint(network) != before

    def test_supports_compiled(self):
        assert supports_compiled(ThroughputModel())
        assert supports_compiled(WeightedThroughputModel())
        assert not supports_compiled(UplinkThroughputModel())

        class Ablated(ThroughputModel):
            def medium_share_of(self, graph, ap_id, assignment):
                return 1.0

        assert not supports_compiled(Ablated())
        with pytest.raises(AllocationError):
            CompiledEvaluator(
                CompiledNetwork.compile(network := registered("dense")[0]),
                model=Ablated(),
            )


class TestEvaluatorEquivalence:
    @pytest.mark.parametrize("model_kind", MODELS)
    @pytest.mark.parametrize(("kind", "key"), ALL_CASES)
    def test_random_walk_is_bit_identical(self, kind, key, model_kind):
        network, graph, plan = build_case(kind, key)
        model = make_model(model_kind)
        delta, fast = paired_engines(network, graph, plan, model)
        assert fast.aggregate_mbps == delta.aggregate_mbps
        assert fast.per_ap_mbps() == delta.per_ap_mbps()

        palette = plan.all_channels()
        ap_ids = network.ap_ids
        movable = [c for c in network.client_ids if c in network.associations]
        seed = 104729 + (key if kind == "random" else sum(map(ord, key)))
        rng = random.Random(seed)
        can_rollback = False
        for _ in range(40):
            op = rng.choice(
                ("trial", "commit", "commit", "rollback", "reset", "move")
            )
            if op == "trial":
                ap_id = rng.choice(ap_ids)
                channel = rng.choice(palette)
                assert fast.trial(ap_id, channel) == delta.trial(ap_id, channel)
            elif op == "commit":
                ap_id = rng.choice(ap_ids)
                channel = rng.choice(palette)
                assert fast.commit(ap_id, channel) == delta.commit(
                    ap_id, channel
                )
                can_rollback = True
            elif op == "rollback" and can_rollback:
                assert fast.rollback() == delta.rollback()
                can_rollback = False
            elif op == "reset":
                start = random_assignment(ap_ids, plan, rng.randint(0, 10**6))
                assert fast.reset(start) == delta.reset(start)
                can_rollback = False
            elif op == "move" and movable:
                client_id = rng.choice(movable)
                target = rng.choice(ap_ids)
                try:
                    expected = delta.trial_move(client_id, target)
                except TopologyError:
                    # A linkless target: the compiled engine must refuse
                    # the move with the same error, on both entry points.
                    with pytest.raises(TopologyError):
                        fast.trial_move(client_id, target)
                    with pytest.raises(TopologyError):
                        fast.commit_move(client_id, target)
                else:
                    assert fast.trial_move(client_id, target) == expected
                    if rng.random() < 0.5:
                        assert fast.commit_move(
                            client_id, target
                        ) == delta.commit_move(client_id, target)
                        can_rollback = True
            assert fast.aggregate_mbps == delta.aggregate_mbps
            assert fast.assignment == delta.assignment
            assert fast.associations == delta.associations
        assert fast.per_ap_mbps() == delta.per_ap_mbps()

    @pytest.mark.parametrize("model_kind", MODELS)
    def test_contention_load_oracle_matches(self, model_kind):
        network, graph, plan = registered("office")
        model = make_model(model_kind)
        delta, fast = paired_engines(network, graph, plan, model)
        what_if = random_assignment(network.ap_ids, plan, 17)
        for ap_id in network.ap_ids:
            for channel in plan.all_channels():
                assert fast.contention_load(ap_id, channel) == (
                    delta.contention_load(ap_id, channel)
                )
                assert fast.contention_load(
                    ap_id, channel, assignment=what_if
                ) == delta.contention_load(ap_id, channel, assignment=what_if)


class TestAllocatorEquivalence:
    @pytest.mark.parametrize("model_kind", MODELS)
    @pytest.mark.parametrize(("kind", "key"), ALL_CASES)
    def test_allocate_channels_bit_identical(self, kind, key, model_kind):
        network, graph, plan = build_case(kind, key)
        model = make_model(model_kind)
        kwargs = dict(rng=7, restarts=2)
        ref = allocate_channels(
            network, graph, plan, model, engine_mode="delta", **kwargs
        )
        out = allocate_channels(
            network, graph, plan, model, engine_mode="compiled", **kwargs
        )
        assert out.assignment == ref.assignment
        assert out.aggregate_mbps == ref.aggregate_mbps
        assert out.rounds == ref.rounds
        assert out.evaluations == ref.evaluations
        assert out.total_evaluations == ref.total_evaluations
        assert out.evaluations_per_start == ref.evaluations_per_start
        assert [
            (e.ap_id, e.channel, e.aggregate_mbps, e.round_index)
            for e in out.history
        ] == [
            (e.ap_id, e.channel, e.aggregate_mbps, e.round_index)
            for e in ref.history
        ]

    def test_auto_mode_picks_compiled_only_when_supported(self):
        network, graph, plan = registered("dense")
        result = allocate_channels(
            network, graph, plan, ThroughputModel(), rng=1
        )
        reference = allocate_channels(
            network, graph, plan, ThroughputModel(), rng=1, engine_mode="delta"
        )
        assert result.assignment == reference.assignment
        assert result.aggregate_mbps == reference.aggregate_mbps
        with pytest.raises(AllocationError):
            allocate_channels(
                network, graph, plan, ThroughputModel(), engine_mode="turbo"
            )

    def test_precompiled_network_is_reused(self):
        network, graph, plan = registered("office")
        compiled = CompiledNetwork.compile(network, graph, plan)
        result = allocate_channels(
            network, graph, plan, ThroughputModel(), rng=9, compiled=compiled
        )
        reference = allocate_channels(
            network, graph, plan, ThroughputModel(), rng=9, engine_mode="delta"
        )
        assert result.assignment == reference.assignment
        assert result.aggregate_mbps == reference.aggregate_mbps

    @pytest.mark.parametrize("model_kind", MODELS)
    @pytest.mark.parametrize("seed", RANDOM_SEEDS[:6])
    def test_refinement_bit_identical(self, seed, model_kind):
        model = make_model(model_kind)
        outcomes = []
        for mode in ("delta", "compiled"):
            network, graph, plan = random_case(seed)
            allocation = allocate_channels(
                network, graph, plan, model, rng=5, engine_mode=mode
            )
            for ap_id, channel in allocation.assignment.items():
                network.set_channel(ap_id, channel)
            refined = refine_associations(
                network, graph, model, engine_mode=mode
            )
            outcomes.append(
                (
                    refined.associations,
                    refined.aggregate_mbps,
                    refined.moves,
                    refined.evaluations,
                    dict(network.associations),
                )
            )
        assert outcomes[0] == outcomes[1]


# Link SNR pairs that round to the same 0.001 dB: a rounded cache key
# would let whichever link is looked up first decide for both.
NEAR_TIES = {
    ("ap1", "c1"): 4.9996,
    ("ap1", "c2"): 5.0,
    ("ap1", "c3"): 5.0002,
    ("ap2", "c1"): 12.9996,
    ("ap2", "c2"): 13.0,
    ("ap2", "c3"): 22.5,
}


def near_tie_network(client_order, shift_db=0.0):
    network = Network()
    network.add_ap("ap1")
    network.add_ap("ap2")
    for client_id in client_order:
        network.add_client(client_id)
    for (ap_id, client_id), snr in NEAR_TIES.items():
        network.set_link_snr(ap_id, client_id, snr + shift_db)
    network.set_explicit_conflicts([])
    return network


def tables_by_id(network, model):
    """Every rate-table entry keyed by (width, AP id, client id)."""
    compiled = CompiledNetwork.compile(network)
    tables = compiled.rate_tables(model)
    return {
        (width, ap_id, client_id): (
            tables.delay[width][ap][client],
            tables.factor[width][ap][client],
        )
        for width in range(2)
        for ap, ap_id in enumerate(compiled.ap_ids)
        for client, client_id in enumerate(compiled.client_ids)
    }


class TestRateTablesHistoryIndependence:
    """Rate tables are a pure function of the frozen link SNRs."""

    ORDER = ("c1", "c2", "c3")

    def test_link_order_does_not_matter(self):
        cold = tables_by_id(near_tie_network(self.ORDER), ThroughputModel())
        shuffled = tables_by_id(
            near_tie_network(self.ORDER[::-1]), ThroughputModel()
        )
        assert shuffled == cold

    def test_warmed_model_gives_cold_tables(self):
        cold = tables_by_id(near_tie_network(self.ORDER), ThroughputModel())
        model = ThroughputModel()
        tables_by_id(near_tie_network(self.ORDER, shift_db=0.0003), model)
        assert tables_by_id(near_tie_network(self.ORDER), model) == cold

    def test_tables_match_the_dict_path(self):
        network = near_tie_network(self.ORDER)
        model = ThroughputModel()
        tables = tables_by_id(network, model)
        for (width, ap_id, client_id), (delay, _) in tables.items():
            channel = Channel(36, 40) if width else Channel(36)
            assert delay == ThroughputModel().client_delay(
                network, ap_id, client_id, channel
            )
