"""Tests for the network throughput evaluator Y(F)."""

import pytest

from repro.errors import AllocationError
from repro.link.adaptation import RateController
from repro.net.channels import Channel, ChannelPlan
from repro.net.interference import build_interference_graph
from repro.net.throughput import ThroughputModel, UdpTraffic
from repro.net.topology import Network
from repro.phy.ofdm import OFDM_20MHZ, OFDM_40MHZ


@pytest.fixture
def graph(two_cell_network):
    return build_interference_graph(two_cell_network)


class TestEvaluate:
    def test_reports_every_ap(self, two_cell_network, graph, model):
        two_cell_network.set_channel("ap1", Channel(36))
        two_cell_network.set_channel("ap2", Channel(44))
        report = model.evaluate(two_cell_network, graph)
        assert set(report.per_ap_mbps) == {"ap1", "ap2"}
        assert report.total_mbps == pytest.approx(
            sum(report.per_ap_mbps.values())
        )

    def test_unassigned_ap_contributes_zero(self, two_cell_network, graph, model):
        two_cell_network.set_channel("ap1", Channel(36))
        report = model.evaluate(two_cell_network, graph)
        assert report.per_ap_mbps["ap2"] == 0.0

    def test_good_cell_prefers_bonding(self, two_cell_network, graph, model):
        narrow = model.aggregate_mbps(
            two_cell_network,
            graph,
            assignment={"ap1": Channel(36), "ap2": Channel(44)},
        )
        wide = model.aggregate_mbps(
            two_cell_network,
            graph,
            assignment={"ap1": Channel(36), "ap2": Channel(44, 48)},
        )
        assert wide > narrow

    def test_poor_cell_prefers_20mhz(self, two_cell_network, graph, model):
        """The central ACORN observation, at the evaluator level."""
        narrow = model.aggregate_mbps(
            two_cell_network,
            graph,
            assignment={"ap1": Channel(36), "ap2": Channel(44, 48)},
        )
        wide = model.aggregate_mbps(
            two_cell_network,
            graph,
            assignment={"ap1": Channel(36, 40), "ap2": Channel(44, 48)},
        )
        assert narrow > wide

    def test_what_if_does_not_mutate(self, two_cell_network, graph, model):
        two_cell_network.set_channel("ap1", Channel(36))
        two_cell_network.set_channel("ap2", Channel(44))
        model.evaluate(
            two_cell_network,
            graph,
            assignment={"ap1": Channel(52, 56)},
            associations={"poor1": "ap1"},
        )
        assert two_cell_network.channel_assignment["ap1"] == Channel(36)
        assert set(two_cell_network.associations) == {
            "poor1",
            "poor2",
            "good1",
            "good2",
        }

    def test_contention_halves_throughput(self, triangle_network, model):
        graph = build_interference_graph(triangle_network)
        isolated = model.aggregate_mbps(
            triangle_network,
            graph,
            assignment={
                "ap1": Channel(36),
                "ap2": Channel(44),
                "ap3": Channel(52),
            },
        )
        # Put ap1 and ap2 on the same channel: each gets M = 1/2.
        shared = model.evaluate(
            triangle_network,
            graph,
            assignment={
                "ap1": Channel(36),
                "ap2": Channel(36),
                "ap3": Channel(52),
            },
        )
        isolated_report = model.evaluate(
            triangle_network,
            graph,
            assignment={
                "ap1": Channel(36),
                "ap2": Channel(44),
                "ap3": Channel(52),
            },
        )
        assert shared.per_ap_mbps["ap1"] == pytest.approx(
            isolated_report.per_ap_mbps["ap1"] / 2
        )
        assert shared.total_mbps < isolated

    def test_missing_channel_in_ap_throughput_rejected(
        self, two_cell_network, graph, model
    ):
        with pytest.raises(AllocationError):
            model.ap_throughput_mbps(two_cell_network, graph, "ap1", {}, {})


class TestPerClientBreakdown:
    def test_per_client_sums_to_cell(self, two_cell_network, graph, model):
        two_cell_network.set_channel("ap1", Channel(36))
        two_cell_network.set_channel("ap2", Channel(44, 48))
        report = model.evaluate(two_cell_network, graph)
        ap2_clients = [
            client
            for client, ap in report.associations.items()
            if ap == "ap2"
        ]
        assert sum(
            report.per_client_mbps[c] for c in ap2_clients
        ) == pytest.approx(report.per_ap_mbps["ap2"])

    def test_dcf_fairness_equal_shares(self, two_cell_network, graph, model):
        """Per-packet fairness: all clients of a cell get equal Mbps."""
        two_cell_network.set_channel("ap2", Channel(44, 48))
        two_cell_network.set_channel("ap1", Channel(36))
        report = model.evaluate(two_cell_network, graph)
        assert report.per_client_mbps["good1"] == pytest.approx(
            report.per_client_mbps["good2"]
        )


class TestIsolatedThroughput:
    def test_isolation_beats_contention(self, triangle_network, model):
        graph = build_interference_graph(triangle_network)
        isolated = model.isolated_ap_throughput_mbps(
            triangle_network, "ap1", Channel(36)
        )
        contended = model.evaluate(
            triangle_network,
            graph,
            assignment={name: Channel(36) for name in ("ap1", "ap2", "ap3")},
        ).per_ap_mbps["ap1"]
        assert isolated > contended

    def test_empty_ap_is_zero(self, model):
        network = Network()
        network.add_ap("lonely")
        assert (
            model.isolated_ap_throughput_mbps(network, "lonely", Channel(36))
            == 0.0
        )

    def test_best_isolated_takes_width_max(self, two_cell_network, model):
        plan = ChannelPlan()
        best = model.best_isolated_throughput_mbps(
            two_cell_network, "ap1", plan.all_channels()
        )
        narrow = model.isolated_ap_throughput_mbps(
            two_cell_network, "ap1", Channel(36)
        )
        wide = model.isolated_ap_throughput_mbps(
            two_cell_network, "ap1", Channel(36, 40)
        )
        assert best == pytest.approx(max(narrow, wide))


class TestDecisionCache:
    def test_cache_hits_are_consistent(self, two_cell_network, model):
        first = model.link_decision(
            two_cell_network, "ap2", "good1", Channel(44, 48)
        )
        second = model.link_decision(
            two_cell_network, "ap2", "good1", Channel(44, 48)
        )
        assert first is second


class TestUdpTraffic:
    def test_factor_always_one(self):
        traffic = UdpTraffic()
        for per in (0.0, 0.3, 1.0):
            assert traffic.goodput_factor(per) == 1.0


class TestRateDecisionCache:
    """The rate-decision cache is a pure function of the exact SNR."""

    def test_nearby_snr_gets_its_own_decision(self):
        # Both SNRs round to 5.0 at three decimals: a rounded key would
        # hand the second link the first link's PER.
        x = 4.9996
        model = ThroughputModel()
        first = model.decision_from_snr(x, OFDM_20MHZ)
        second = model.decision_from_snr(x + 0.0004, OFDM_20MHZ)
        own = ThroughputModel().decision_from_snr(x + 0.0004, OFDM_20MHZ)
        assert first.per != own.per
        assert second.per == own.per

    def test_batch_lookup_matches_scalar_lookup(self):
        snrs = [12.0, -1.0, 12.0, 25.5, 4.9996, 5.0]
        batch = ThroughputModel().decisions_from_snrs(snrs, OFDM_40MHZ)
        scalar = ThroughputModel()
        assert batch == [scalar.decision_from_snr(s, OFDM_40MHZ) for s in snrs]

    def test_batch_misses_are_searched_once(self, monkeypatch):
        calls = []
        original = RateController.decide_from_snrs

        def counting(self, snrs, params):
            calls.append(list(snrs))
            return original(self, snrs, params)

        monkeypatch.setattr(RateController, "decide_from_snrs", counting)
        model = ThroughputModel()
        model.decision_from_snr(8.0, OFDM_20MHZ)
        calls.clear()
        model.decisions_from_snrs([8.0, 9.0, 10.0, 9.0], OFDM_20MHZ)
        assert calls == [[9.0, 10.0]]

    def test_warm_batch_lookup_runs_no_search(self, monkeypatch):
        model = ThroughputModel()
        snrs = [3.0, 14.0, 3.0]
        expected = model.decisions_from_snrs(snrs, OFDM_20MHZ)

        def no_search(self, snrs, params):
            raise AssertionError("a fully cached lookup ran the kernel")

        monkeypatch.setattr(RateController, "decide_from_snrs", no_search)
        assert model.decisions_from_snrs(snrs, OFDM_20MHZ) == expected
