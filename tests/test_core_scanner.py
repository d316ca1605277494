"""Tests for the per-channel scanning extension (§4.2's sketch)."""

import pytest

from repro.core.allocation import allocate_channels
from repro.core.scanner import ChannelScanner, ScanningThroughputModel
from repro.errors import ConfigurationError
from repro.net import Channel, ChannelPlan, ThroughputModel, build_interference_graph
from repro.net.topology import Network


def small_network() -> Network:
    network = Network()
    network.add_ap("ap1")
    network.add_ap("ap2")
    for client_id, ap_id, snr in (
        ("u1", "ap1", 12.0),
        ("u2", "ap1", 14.0),
        ("u3", "ap2", 20.0),
    ):
        network.add_client(client_id)
        network.set_link_snr(ap_id, client_id, snr)
        network.associate(client_id, ap_id)
    network.set_explicit_conflicts([("ap1", "ap2")])
    return network


class TestChannelScanner:
    def test_zero_sigma_matches_budget(self):
        network = small_network()
        scanner = ChannelScanner(variation_sigma_db=0.0)
        channel = Channel(36)
        measured = scanner.link_snr_db(network, "ap1", "u1", channel)
        expected = network.link_budget("ap1", "u1").subcarrier_snr_db(
            channel.params
        )
        assert measured == pytest.approx(expected)

    def test_offsets_deterministic(self):
        network = small_network()
        scanner = ChannelScanner(variation_sigma_db=4.0, seed=1)
        channel = Channel(44)
        first = scanner.link_snr_db(network, "ap1", "u1", channel)
        second = scanner.link_snr_db(network, "ap1", "u1", channel)
        assert first == second

    def test_offsets_differ_across_channels(self):
        network = small_network()
        scanner = ChannelScanner(variation_sigma_db=4.0, seed=1)
        values = {
            scanner.link_snr_db(network, "ap1", "u1", Channel(number))
            for number in (36, 40, 44, 48)
        }
        assert len(values) > 1

    def test_bonded_channel_keyed_by_primary_pair(self):
        """A bonded channel's deviation follows its lower constituent,
        so the 20 MHz fallback sees consistent spectrum."""
        network = small_network()
        scanner = ChannelScanner(variation_sigma_db=4.0, seed=1)
        bonded = scanner.link_snr_db(network, "ap1", "u1", Channel(36, 40))
        primary = scanner.link_snr_db(network, "ap1", "u1", Channel(36))
        budget = network.link_budget("ap1", "u1")
        offset_bonded = bonded - budget.subcarrier_snr_db(Channel(36, 40).params)
        offset_primary = primary - budget.subcarrier_snr_db(Channel(36).params)
        assert offset_bonded == pytest.approx(offset_primary)

    def test_scan_accumulates_time(self):
        network = small_network()
        scanner = ChannelScanner(dwell_s=0.1)
        plan = ChannelPlan().subset(4)
        scanner.scan(network, "ap1", plan)
        assert scanner.scan_time_s == pytest.approx(0.1 * len(plan))
        scanner.scan(network, "ap2", plan)
        assert scanner.scan_time_s == pytest.approx(0.2 * len(plan))

    def test_scan_returns_all_channels_and_clients(self):
        network = small_network()
        scanner = ChannelScanner()
        plan = ChannelPlan().subset(2)
        results = scanner.scan(network, "ap1", plan)
        assert set(results) == set(plan.all_channels())
        for snrs in results.values():
            assert set(snrs) == {"u1", "u2"}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChannelScanner(variation_sigma_db=-1.0)
        with pytest.raises(ConfigurationError):
            ChannelScanner(dwell_s=0.0)


class TestScanningThroughputModel:
    def test_reduces_to_base_model_without_variation(self):
        network = small_network()
        graph = build_interference_graph(network)
        plan = ChannelPlan().subset(4)
        base = ThroughputModel()
        scanning = ScanningThroughputModel(
            scanner=ChannelScanner(variation_sigma_db=0.0)
        )
        assignment = {"ap1": Channel(36), "ap2": Channel(44, 48)}
        assert scanning.aggregate_mbps(
            network, graph, assignment=assignment
        ) == pytest.approx(
            base.aggregate_mbps(network, graph, assignment=assignment)
        )

    def test_scanning_decisions_exploit_channel_differences(self):
        """With real per-channel variation (the truth being the
        scanning model), scan-informed allocation does at least as well
        as the width-only estimator — the benefit side of the paper's
        accuracy/convergence-time trade-off."""
        network = small_network()
        graph = build_interference_graph(network)
        plan = ChannelPlan().subset(6)
        truth = ScanningThroughputModel(
            scanner=ChannelScanner(variation_sigma_db=6.0, seed=3)
        )
        blind = ThroughputModel()
        informed = allocate_channels(
            network, graph, plan, truth, rng=0
        )
        uninformed = allocate_channels(
            network, graph, plan, truth, rng=0, decision_model=blind
        )
        assert informed.aggregate_mbps >= uninformed.aggregate_mbps - 1e-9

    def test_convergence_cost_scales_with_channels(self):
        """The cost side of the trade-off: scanning every AP over the
        full plan takes channels x dwell per AP."""
        network = small_network()
        scanner = ChannelScanner(dwell_s=0.2)
        for n_channels in (2, 4):
            scanner.scan_time_s = 0.0
            plan = ChannelPlan().subset(n_channels)
            for ap_id in network.ap_ids:
                scanner.scan(network, ap_id, plan)
            expected = 0.2 * len(plan) * len(network.ap_ids)
            assert scanner.scan_time_s == pytest.approx(expected)


class TestScanningDecisionCache:
    def test_nearby_links_keep_their_own_decisions(self):
        """Two links 0.0004 dB apart (same 0.001 dB bucket) get the
        decision of their own SNR, whichever is looked up first."""
        network = Network()
        network.add_ap("ap1")
        for client_id, snr in (("u1", 4.9996), ("u2", 5.0)):
            network.add_client(client_id)
            network.set_link_snr("ap1", client_id, snr)
        channel = Channel(36)

        def decisions(order):
            model = ScanningThroughputModel()
            return {
                client_id: model.link_decision(network, "ap1", client_id, channel)
                for client_id in order
            }

        forward = decisions(("u1", "u2"))
        assert forward == decisions(("u2", "u1"))
        assert forward["u1"].per != forward["u2"].per
