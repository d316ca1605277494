"""Per-channel scanning — the extension the paper sketches in §4.2.

"ACORN can easily be modified, such that each AP scans (one at a time)
all the available channels and gets more accurate information regarding
the link quality to its clients. However, this would add more
complexity and increase the convergence time of the system."

This module implements that trade-off so it can be measured. A
:class:`ChannelScanner` models per-channel link-quality deviations from
the canonical measurement (zero by default — Fig 8 found same-width
channels equivalent on MIMO hardware; a positive sigma models SISO-like
frequency selectivity). :class:`ScanningThroughputModel` consumes the
scanned values instead of the single calibrated measurement, and the
scanner accounts for the airtime each scan burns.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..mcs.selection import RateDecision
from ..net.channels import Channel, ChannelPlan
from ..net.throughput import ThroughputModel
from ..net.topology import Network

__all__ = ["ChannelScanner", "ScanningThroughputModel"]

# Dwell time to probe the links on one channel: a beacon interval's
# worth of probing per channel is a realistic lower bound.
DEFAULT_DWELL_S = 0.1


def _channel_offset_db(
    ap_id: str, client_id: str, channel: Channel, sigma_db: float, seed: int
) -> float:
    """Deterministic per-(link, channel) quality deviation.

    Hashing keeps the deviation stable across calls and independent of
    evaluation order — the "true" per-channel quality of this link.
    """
    if sigma_db == 0.0:
        return 0.0
    key = f"{seed}:{ap_id}:{client_id}:{min(channel.constituents)}"
    digest = hashlib.sha256(key.encode()).digest()
    # Sum of 12 uniforms (Irwin-Hall) — the classic lightweight
    # standard-normal approximation, here driven by hash bytes.
    total = 0.0
    for index in range(12):
        chunk = digest[index * 2 : index * 2 + 2]
        total += int.from_bytes(chunk, "big") / 65535.0
    gaussian = total - 6.0
    return float(sigma_db * gaussian)


@dataclass
class ChannelScanner:
    """Measures per-channel link SNRs, at an airtime cost.

    Parameters
    ----------
    variation_sigma_db:
        Standard deviation of the per-channel deviation from the
        canonical (width-calibrated) SNR. 0 models the paper's MIMO
        finding (Fig 8); a few dB models single-antenna hardware.
    dwell_s:
        Time spent probing each channel.
    seed:
        Fixes the hidden per-channel truth.
    """

    variation_sigma_db: float = 0.0
    dwell_s: float = DEFAULT_DWELL_S
    seed: int = 0
    scan_time_s: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.variation_sigma_db < 0:
            raise ConfigurationError(
                f"sigma must be non-negative, got {self.variation_sigma_db}"
            )
        if self.dwell_s <= 0:
            raise ConfigurationError(f"dwell must be positive, got {self.dwell_s}")

    def link_snr_db(
        self, network: Network, ap_id: str, client_id: str, channel: Channel
    ) -> float:
        """The link's true per-subcarrier SNR on one specific channel."""
        budget = network.link_budget(ap_id, client_id)
        base = budget.subcarrier_snr_db(channel.params)
        return base + _channel_offset_db(
            ap_id, client_id, channel, self.variation_sigma_db, self.seed
        )

    def scan(
        self, network: Network, ap_id: str, plan: ChannelPlan
    ) -> Dict[Channel, Dict[str, float]]:
        """Probe every channel in the plan; returns per-channel SNR maps.

        Accumulates ``scan_time_s`` — the convergence cost the paper
        warns about.
        """
        results: Dict[Channel, Dict[str, float]] = {}
        for channel in plan.all_channels():
            self.scan_time_s += self.dwell_s
            results[channel] = {
                client_id: self.link_snr_db(network, ap_id, client_id, channel)
                for client_id in network.clients_of(ap_id)
            }
        return results


@dataclass
class ScanningThroughputModel(ThroughputModel):
    """A throughput model fed by scanned per-channel measurements.

    Rate decisions use the exact per-channel SNR instead of the single
    width-calibrated measurement; with ``variation_sigma_db = 0`` it
    reduces to the base model (the MIMO regime), with larger sigma it
    exploits per-channel differences the base model cannot see.
    """

    scanner: ChannelScanner = field(default_factory=ChannelScanner)

    def link_decision(
        self, network: Network, ap_id: str, client_id: str, channel: Channel
    ) -> RateDecision:
        """Rate decision driven by the scanned per-channel SNR."""
        snr = self.scanner.link_snr_db(network, ap_id, client_id, channel)
        key: Tuple[float, str] = (
            snr,
            f"{channel.params.name}:{min(channel.constituents)}",
        )
        decision = self._decision_cache.get(key)
        if decision is None:
            decision = self.controller.decide_from_snr(snr, channel.params)
            self._decision_cache[key] = decision
        return decision
