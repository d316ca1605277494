"""Tests for link budgets, the ACORN estimator, σ, and rate control."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.link.adaptation import RateController, serviceability_floor_db
from repro.link.budget import LinkBudget
from repro.link.estimator import LinkQualityEstimator
from repro.link.quality import (
    RATE_RATIO_40_TO_20,
    cb_is_beneficial,
    sigma,
    sigma_cap,
    sigma_from_snr,
    transition_snr_db,
)
from repro.mcs.selection import optimal_mcs
from repro.phy.mimo import MimoMode
from repro.phy.modulation import QAM16, QAM64, QPSK
from repro.phy.ofdm import OFDM_20MHZ, OFDM_40MHZ


class TestLinkBudget:
    def test_from_snr20_roundtrip(self):
        budget = LinkBudget.from_snr20(17.5)
        assert budget.snr20_db == pytest.approx(17.5, abs=1e-9)

    def test_width_penalty_about_3db(self):
        budget = LinkBudget.from_snr20(10.0)
        assert budget.snr20_db - budget.snr40_db == pytest.approx(3.09, abs=0.05)

    def test_from_distance_decreases_with_range(self):
        near = LinkBudget.from_distance(5.0)
        far = LinkBudget.from_distance(50.0)
        assert near.snr20_db > far.snr20_db

    def test_with_tx_power(self):
        base = LinkBudget.from_snr20(10.0)
        boosted = base.with_tx_power(base.tx_power_dbm + 6.0)
        assert boosted.snr20_db == pytest.approx(base.snr20_db + 6.0)

    def test_negative_path_loss_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkBudget(path_loss_db=-10.0)

    @given(st.floats(min_value=-10.0, max_value=45.0))
    def test_snr_roundtrip_property(self, snr):
        assert LinkBudget.from_snr20(snr).snr20_db == pytest.approx(snr, abs=1e-6)


class TestEstimator:
    def test_same_width_no_calibration(self):
        estimator = LinkQualityEstimator()
        assert estimator.calibrate_snr(10.0, OFDM_20MHZ, OFDM_20MHZ) == 10.0
        assert estimator.calibrate_snr(10.0, OFDM_40MHZ, OFDM_40MHZ) == 10.0

    def test_widening_subtracts_penalty(self):
        estimator = LinkQualityEstimator()
        calibrated = estimator.calibrate_snr(10.0, OFDM_20MHZ, OFDM_40MHZ)
        assert calibrated == pytest.approx(10.0 - estimator.calibration_db)

    def test_narrowing_adds_penalty(self):
        estimator = LinkQualityEstimator()
        calibrated = estimator.calibrate_snr(10.0, OFDM_40MHZ, OFDM_20MHZ)
        assert calibrated == pytest.approx(10.0 + estimator.calibration_db)

    def test_calibration_is_involutive(self):
        estimator = LinkQualityEstimator()
        there = estimator.calibrate_snr(12.0, OFDM_20MHZ, OFDM_40MHZ)
        back = estimator.calibrate_snr(there, OFDM_40MHZ, OFDM_20MHZ)
        assert back == pytest.approx(12.0)

    def test_estimate_pipeline_consistency(self):
        """estimate() must chain the documented BER->PER steps exactly."""
        from repro.phy.ber import coded_ber
        from repro.phy.per import per_from_ber

        estimator = LinkQualityEstimator(packet_bytes=1000)
        result = estimator.estimate(8.0, OFDM_20MHZ, OFDM_40MHZ, QPSK, 3 / 4)
        expected_ber = coded_ber(QPSK, 3 / 4, result.snr_db)
        assert result.ber == pytest.approx(float(expected_ber))
        assert result.per == pytest.approx(
            float(per_from_ber(expected_ber, 1000))
        )

    def test_good_poor_classification(self):
        estimator = LinkQualityEstimator()
        assert estimator.is_good_link(25.0, QPSK, 1 / 2)
        assert not estimator.is_good_link(0.0, QAM64, 5 / 6)

    def test_ablated_calibration(self):
        estimator = LinkQualityEstimator(calibration_db=0.0)
        assert estimator.calibrate_snr(10.0, OFDM_20MHZ, OFDM_40MHZ) == 10.0

    def test_invalid_packet_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkQualityEstimator(packet_bytes=0)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkQualityEstimator(good_per_threshold=1.5)


class TestSigma:
    def test_equal_pers_give_one(self):
        assert sigma(0.1, 0.1) == pytest.approx(1.0)

    def test_dead_40mhz_gives_infinity(self):
        assert sigma(0.2, 1.0) == float("inf")

    def test_both_dead_gives_one(self):
        assert sigma(1.0, 1.0) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            sigma(-0.1, 0.5)
        with pytest.raises(ConfigurationError):
            sigma(0.5, 1.2)

    def test_cap_for_plotting(self):
        assert sigma_cap(25.0) == 10.0
        assert sigma_cap(3.0) == 3.0

    def test_rate_ratio_slightly_above_two(self):
        assert RATE_RATIO_40_TO_20 == pytest.approx(108 / 52)

    def test_sigma_near_one_at_high_snr(self):
        """Fig 5: both widths deliver everything on robust links."""
        assert sigma_from_snr(30.0, QPSK, 3 / 4) == pytest.approx(1.0, abs=0.01)

    def test_sigma_large_in_transition_window(self):
        """In the crossover window, 20 MHz delivers but 40 MHz does not."""
        boundary = transition_snr_db(QPSK, 3 / 4)
        assert boundary is not None
        assert sigma_from_snr(boundary, QPSK, 3 / 4) >= 2.0

    def test_cb_beneficial_on_strong_links(self):
        assert cb_is_beneficial(30.0, QPSK, 3 / 4)

    def test_cb_harmful_in_window(self):
        boundary = transition_snr_db(QPSK, 3 / 4)
        assert not cb_is_beneficial(boundary, QPSK, 3 / 4)


class TestTransitionTable:
    """The Table 1 shape: boundaries rise with modulation aggressiveness."""

    def test_transitions_ordered(self):
        modcods = [(QPSK, 3 / 4), (QAM16, 3 / 4), (QAM64, 3 / 4), (QAM64, 5 / 6)]
        boundaries = [transition_snr_db(m, r) for m, r in modcods]
        assert all(b is not None for b in boundaries)
        assert boundaries == sorted(boundaries)

    def test_invalid_resolution_rejected(self):
        with pytest.raises(ConfigurationError):
            transition_snr_db(QPSK, 3 / 4, resolution_db=0.0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            transition_snr_db(QPSK, 3 / 4, snr_range_db=(10.0, -10.0))


class TestRateController:
    def test_decide_uses_width_specific_snr(self):
        controller = RateController()
        budget = LinkBudget.from_snr20(20.0)
        d20 = controller.decide(budget, OFDM_20MHZ)
        d40 = controller.decide(budget, OFDM_40MHZ)
        # The bonded decision sees ~3 dB less SNR.
        assert d40.per_stream_index <= d20.per_stream_index

    def test_decide_both_widths_order(self):
        controller = RateController()
        d20, d40 = controller.decide_both_widths(LinkBudget.from_snr20(25.0))
        assert d20.nominal_rate_mbps < d40.nominal_rate_mbps

    def test_modes_restriction(self):
        controller = RateController(modes=(MimoMode.STBC,))
        decision = controller.decide(LinkBudget.from_snr20(35.0), OFDM_20MHZ)
        assert decision.mode is MimoMode.STBC

    def test_empty_modes_rejected(self):
        with pytest.raises(ConfigurationError):
            RateController(modes=())

    def test_invalid_packet_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            RateController(packet_bytes=-1)

    def test_batch_matches_per_link_decisions(self):
        controller = RateController(short_gi=True)
        snrs = [-4.0, 3.3, 17.125, 41.0]
        batch = controller.decide_from_snrs(snrs, OFDM_40MHZ)
        assert batch == [
            controller.decide_from_snr(snr, OFDM_40MHZ) for snr in snrs
        ]


class TestServiceabilityFloor:
    @staticmethod
    def scan_floor(packet_bytes):
        """The per-point search the one-call grid replaced."""
        snr = -8.0
        while snr < 10.0:
            if optimal_mcs(snr, OFDM_20MHZ, packet_bytes=packet_bytes).per < 1.0:
                break
            snr += 0.25
        return snr

    def test_default_floor_is_pinned(self):
        assert serviceability_floor_db() == -1.25

    @pytest.mark.parametrize("packet_bytes", [64, 1500, 9000])
    def test_matches_point_by_point_scan(self, packet_bytes):
        assert serviceability_floor_db(packet_bytes) == self.scan_floor(
            packet_bytes
        )


class TestSnr20FromPathLoss:
    """Regression pin for the shared loss → SNR conversion.

    :func:`repro.link.budget.snr20_from_path_loss` is the single
    function every layer (scenario builders, the mobility trace, the
    compiled-state SNR matrices) uses to turn a path loss into the
    canonical 20 MHz link quality. These exact floats are load-bearing:
    changing them silently re-grades every geometry scenario.
    """

    PINNED_DEFAULTS = {
        60.0: 58.569619513137056,
        80.0: 38.569619513137056,
        95.0: 23.569619513137056,
        110.0: 8.569619513137056,
    }
    PINNED_CUSTOM = {
        60.0: 53.569619513137056,
        80.0: 33.569619513137056,
        95.0: 18.569619513137056,
        110.0: 3.569619513137056,
    }

    def test_pinned_values_defaults(self):
        from repro.link.budget import snr20_from_path_loss

        for loss, expected in self.PINNED_DEFAULTS.items():
            assert snr20_from_path_loss(loss) == expected

    def test_pinned_values_custom_budget(self):
        from repro.link.budget import snr20_from_path_loss

        for loss, expected in self.PINNED_CUSTOM.items():
            assert (
                snr20_from_path_loss(
                    loss, tx_power_dbm=20.0, noise_figure_db=8.0
                )
                == expected
            )

    def test_matches_link_budget_class(self):
        from repro.link.budget import snr20_from_path_loss

        for loss in (55.0, 72.5, 96.25, 120.0):
            budget = LinkBudget(tx_power_dbm=23.0, path_loss_db=loss)
            assert snr20_from_path_loss(loss) == budget.snr20_db

    def test_topology_geometry_routes_through_it(self):
        from repro.link.budget import snr20_from_path_loss
        from repro.net.topology import Network

        network = Network()
        network.add_ap("a", position=(0.0, 0.0), tx_power_dbm=20.0)
        network.add_client("c", position=(30.0, 40.0))
        budget = network.link_budget("a", "c")
        expected = snr20_from_path_loss(
            network.config.path_loss.loss_db(50.0),
            tx_power_dbm=20.0,
            noise_figure_db=network.config.noise_figure_db,
        )
        assert budget.snr20_db == expected
