"""Tests for the ACORN controller: configure() and opportunistic width."""

import pytest

from repro.core.association import choose_ap
from repro.core.controller import Acorn
from repro.errors import AssociationError
from repro.net.channels import Channel, ChannelPlan
from repro.net.throughput import ThroughputModel
from repro.net.topology import Network
from repro.obs import Tracer, activate
from repro.sim.scenario import random_enterprise


def fresh_two_cell() -> Network:
    network = Network()
    network.add_ap("ap1")
    network.add_ap("ap2")
    links = {
        ("ap1", "poor1"): 1.0,
        ("ap1", "poor2"): 2.0,
        ("ap2", "good1"): 25.0,
        ("ap2", "good2"): 27.0,
    }
    for (ap_id, client_id), snr in links.items():
        network.add_client(client_id)
        network.set_link_snr(ap_id, client_id, snr)
    network.set_explicit_conflicts([])
    return network


class TestConfigure:
    def test_full_pass_produces_working_network(self, model):
        network = fresh_two_cell()
        acorn = Acorn(network, ChannelPlan(), model, seed=1)
        result = acorn.configure(["poor1", "poor2", "good1", "good2"])
        assert result.total_mbps > 0
        assert set(result.report.associations) == {
            "poor1",
            "poor2",
            "good1",
            "good2",
        }
        assert not network.channel_assignment["ap1"].is_bonded
        assert network.channel_assignment["ap2"].is_bonded

    def test_default_order_is_seeded_shuffle(self, model):
        network = fresh_two_cell()
        acorn = Acorn(network, ChannelPlan(), model, seed=5)
        result = acorn.configure()
        assert sorted(result.association_order) == sorted(network.client_ids)

    def test_deterministic_given_seed(self, model):
        results = []
        for _ in range(2):
            network = fresh_two_cell()
            acorn = Acorn(network, ChannelPlan(), model, seed=9)
            results.append(acorn.configure().total_mbps)
        assert results[0] == pytest.approx(results[1])

    def test_unreachable_client_skipped(self, model):
        network = fresh_two_cell()
        network.add_client("deaf")  # no links at all
        acorn = Acorn(network, ChannelPlan(), model, seed=2)
        result = acorn.configure()
        assert "deaf" not in result.report.associations

    def test_admit_client_requires_channels(self, model):
        network = fresh_two_cell()
        acorn = Acorn(network, ChannelPlan(), model)
        with pytest.raises(AssociationError):
            acorn.admit_client("poor1")

    def test_graph_cached_and_invalidated(self, model):
        network = fresh_two_cell()
        acorn = Acorn(network, ChannelPlan(), model)
        first = acorn.graph
        assert acorn.graph is first
        acorn.invalidate_graph()
        assert acorn.graph is not first


class TestOpportunisticWidth:
    def prepared(self, model):
        network = fresh_two_cell()
        acorn = Acorn(network, ChannelPlan(), model, seed=4)
        return network, acorn

    def test_bonded_good_cell_keeps_40(self, model):
        network, acorn = self.prepared(model)
        network.set_channel("ap2", Channel(44, 48))
        network.associate("good1", "ap2")
        network.associate("good2", "ap2")
        assert acorn.opportunistic_width("ap2").is_bonded

    def test_bonded_poor_cell_falls_back_to_primary(self, model):
        network, acorn = self.prepared(model)
        network.set_channel("ap1", Channel(36, 40))
        network.associate("poor1", "ap1")
        network.associate("poor2", "ap1")
        decision = acorn.opportunistic_width("ap1")
        assert not decision.is_bonded
        assert decision.primary == 36  # stays inside the allocation

    def test_basic_channel_unchanged(self, model):
        network, acorn = self.prepared(model)
        network.set_channel("ap1", Channel(36))
        assert acorn.opportunistic_width("ap1") == Channel(36)

    def test_unassigned_ap_rejected(self, model):
        network, acorn = self.prepared(model)
        with pytest.raises(AssociationError):
            acorn.opportunistic_width("ap1")


class TestAtomicInvalidation:
    """Regression: stale compiled state cannot survive a topology edit.

    ``invalidate_graph`` replaces the graph, the compiled snapshot, the
    component decomposition and the per-shard warm-start assignments as
    ONE holder — no interleaving can observe a fresh graph next to a
    stale shard map (see ``Acorn.invalidate_graph``).
    """

    def primed(self, model):
        network = fresh_two_cell()
        acorn = Acorn(network, ChannelPlan(), model, seed=3)
        acorn.configure()
        # Populate every derived cache.
        acorn.graph
        acorn.compiled
        sid = acorn.decomposition.shard_ids[0]
        acorn.allocate(shard=sid, warm_start=True)
        assert acorn.shard_assignment(sid) is not None
        return network, acorn, sid

    def test_invalidate_drops_all_derived_caches_atomically(self, model):
        network, acorn, sid = self.primed(model)
        old_graph = acorn.graph
        old_compiled = acorn.compiled
        old_decomposition = acorn.decomposition
        acorn.invalidate_graph()
        assert acorn.shard_assignment(sid) is None
        assert acorn.graph is not old_graph
        assert acorn.compiled is not old_compiled
        assert acorn.decomposition is not old_decomposition

    def test_topology_edit_is_reflected_after_invalidation(self, model):
        network, acorn, sid = self.primed(model)
        network.add_ap("ap3")
        network.set_explicit_conflicts([("ap1", "ap2"), ("ap2", "ap3")])
        acorn.invalidate_graph()
        assert "ap3" in acorn.graph
        assert "ap3" in acorn.compiled.ap_index
        covered = [
            ap
            for _, members in acorn.decomposition.shards()
            for ap in members
        ]
        assert sorted(covered) == sorted(network.ap_ids)

    def test_stale_shard_ids_do_not_alias_after_invalidation(self, model):
        network, acorn, sid = self.primed(model)
        members_before = acorn.decomposition.members(sid)
        network.add_ap("ap3")
        network.set_explicit_conflicts([("ap1", "ap2"), ("ap2", "ap3")])
        acorn.invalidate_graph()
        # The id space restarts; whatever shard now holds ap1 must be a
        # fresh partition of the NEW topology, never the cached members.
        new_sid = acorn.shard_of("ap1")
        assert set(acorn.decomposition.members(new_sid)) != set(
            members_before
        ) or "ap3" in acorn.decomposition.members(new_sid)



def enterprise(shift_db=0.0):
    """A random enterprise; optionally every link pinned shift_db higher."""
    scenario = random_enterprise(n_aps=4, n_clients=10, seed=7)
    network = scenario.network
    if shift_db:
        for ap_id in network.ap_ids:
            for client_id in network.client_ids:
                snr = network.link_budget(ap_id, client_id).snr20_db
                network.set_link_snr(ap_id, client_id, snr + shift_db)
    return scenario


class TestAdmissionSnapshot:
    def test_admission_round_compiles_once(self):
        """The Eq. 4 scans of one round share one compiled snapshot."""
        scenario = enterprise()
        acorn = Acorn(scenario.network, scenario.plan, ThroughputModel(), seed=3)
        acorn.assign_initial_channels()
        tracer = Tracer()
        with activate(tracer):
            acorn.admit_clients(scenario.client_order)
        counters = tracer.to_payload()["metrics"]["counters"]
        assert counters["controller.compile_builds"] == 1
        assert len(scenario.network.associations) == 10

    def test_snapshot_scan_matches_the_live_scan(self):
        """Same associations as admitting each client on the dict path."""
        scenario = enterprise()
        acorn = Acorn(scenario.network, scenario.plan, ThroughputModel(), seed=3)
        acorn.assign_initial_channels()
        acorn.admit_clients(scenario.client_order)
        live = enterprise()
        reference = Acorn(live.network, live.plan, ThroughputModel(), seed=3)
        reference.assign_initial_channels()
        for client_id in live.client_order:
            ap_id, _ = choose_ap(
                live.network,
                reference.graph,
                reference.model,
                client_id,
                min_snr20_db=reference.min_snr20_db,
            )
            live.network.associate(client_id, ap_id)
            reference.invalidate_graph()
        assert scenario.network.associations == live.network.associations


class TestHistoryIndependence:
    @staticmethod
    def configure(scenario, model):
        acorn = Acorn(scenario.network, scenario.plan, model, seed=3)
        return acorn.configure(client_order=scenario.client_order, refine=True)

    def test_warm_reconfigure_gives_the_cold_plan(self):
        cold = self.configure(enterprise(), ThroughputModel())
        model = ThroughputModel()
        # Warm the cache with links 0.0003 dB away from the real ones.
        self.configure(enterprise(shift_db=0.0003), model)
        warm = self.configure(enterprise(), model)
        assert warm.total_mbps == cold.total_mbps
        assert warm.report.assignment == cold.report.assignment
        assert warm.report.associations == cold.report.associations
