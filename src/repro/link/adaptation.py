"""Rate control for the simulated testbed cards.

Wraps the exhaustive MCS/mode search (:mod:`repro.mcs.selection`) with
the width-aware SNR handling: a :class:`~repro.link.budget.LinkBudget`
carries the link's geometry, the controller produces the goodput-optimal
decision per channel width, and the MAC layer converts goodput to
airtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..config import DEFAULT_PACKET_SIZE_BYTES
from ..errors import ConfigurationError
from ..phy.mimo import MimoMode
from ..phy.ofdm import OFDM_20MHZ, OFDM_40MHZ, OfdmParams
from ..mcs.selection import RateDecision, optimal_mcs, optimal_mcs_batch
from .budget import LinkBudget

__all__ = ["RateController", "serviceability_floor_db"]

# Cache for the serviceability floor per packet size.
_FLOOR_CACHE: "dict[int, float]" = {}


def serviceability_floor_db(
    packet_bytes: int = DEFAULT_PACKET_SIZE_BYTES,
) -> float:
    """Lowest 20 MHz SNR at which a client can be served at all.

    Below this, even MCS 0 has PER = 1 — an associated client would
    have infinite transmission delay and zero out its entire cell
    (the performance anomaly's degenerate limit). Association logic
    uses this as the admission floor; the value follows from the PHY
    model rather than being hand-tuned: the first point of the
    -8…10 dB, 0.25 dB grid (one kernel call) where the best PER is
    below 1, or 10 dB if there is none.
    """
    cached = _FLOOR_CACHE.get(packet_bytes)
    if cached is not None:
        return cached
    grid = np.arange(-8.0, 10.0, 0.25)
    decisions = optimal_mcs_batch(grid, OFDM_20MHZ, packet_bytes=packet_bytes)
    floor = next(
        (
            float(snr)
            for snr, decision in zip(grid, decisions)
            if decision.per < 1.0
        ),
        10.0,
    )
    _FLOOR_CACHE[packet_bytes] = floor
    return floor


@dataclass(frozen=True)
class RateController:
    """Goodput-optimal rate/mode selection for links.

    Parameters
    ----------
    packet_bytes:
        Packet length for the PER part of the goodput estimate.
    short_gi:
        Use the 400 ns short guard interval rates.
    modes:
        MIMO modes the (simulated) card may choose between; defaults to
        both SDM and STBC as on the paper's 2x3 Ralink cards.
    """

    packet_bytes: int = DEFAULT_PACKET_SIZE_BYTES
    short_gi: bool = False
    modes: "tuple[MimoMode, ...]" = (MimoMode.STBC, MimoMode.SDM)

    def __post_init__(self) -> None:
        if self.packet_bytes <= 0:
            raise ConfigurationError(
                f"packet size must be positive, got {self.packet_bytes}"
            )
        if not self.modes:
            raise ConfigurationError("at least one MIMO mode is required")

    def decide(self, budget: LinkBudget, params: OfdmParams) -> RateDecision:
        """Best MCS/mode for ``budget`` on numerology ``params``.

        The width-specific per-subcarrier SNR (including the bonding
        penalty) comes straight from the budget.
        """
        snr = budget.subcarrier_snr_db(params)
        return optimal_mcs(
            snr,
            params,
            packet_bytes=self.packet_bytes,
            short_gi=self.short_gi,
            modes=self.modes,
        )

    def decide_from_snr(
        self, snr_db: float, params: OfdmParams
    ) -> RateDecision:
        """Best MCS/mode when the width-specific SNR is already known."""
        (decision,) = self.decide_from_snrs((snr_db,), params)
        return decision

    def decide_from_snrs(
        self, snrs_db: "Sequence[float]", params: OfdmParams
    ) -> List[RateDecision]:
        """Best MCS/mode for many width-specific SNRs in one kernel call.

        Element ``i`` equals ``decide_from_snr(snrs_db[i], params)``.
        """
        return optimal_mcs_batch(
            snrs_db,
            params,
            packet_bytes=self.packet_bytes,
            short_gi=self.short_gi,
            modes=self.modes,
        )

    def decide_both_widths(
        self, budget: LinkBudget
    ) -> "tuple[RateDecision, RateDecision]":
        """Decisions for 20 and 40 MHz, in that order."""
        return self.decide(budget, OFDM_20MHZ), self.decide(budget, OFDM_40MHZ)
