"""Optimal MCS/mode selection — the stand-in for the Ralink auto-rate.

The paper's cards run a proprietary algorithm that "not only adjusts the
rates in response to packet successes/failures but also picks the best
mode of operation (SDM or STBC) based on the channel quality", and Fig 6b
finds the *optimal* MCS by exhaustive search. We implement that search
directly: for a link SNR, evaluate every MCS in both MIMO modes and keep
the one maximising expected goodput ``(1 - PER) * R``. The search is one
array kernel, :func:`optimal_mcs_batch`, run over any number of SNRs at
once; the scalar :func:`optimal_mcs` is its one-element case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_PACKET_SIZE_BYTES
from ..errors import ConfigurationError
from ..phy.ber import coded_ber
from ..phy.mimo import MimoMode, effective_snr_db
from ..phy.ofdm import OfdmParams
from ..phy.per import per_from_ber
from .tables import MCS_TABLE, McsEntry

__all__ = [
    "RateDecision",
    "optimal_mcs",
    "optimal_mcs_batch",
    "optimal_mcs_fixed_mode",
]


@dataclass(frozen=True)
class RateDecision:
    """Outcome of rate selection for one link on one channel width."""

    mcs: McsEntry
    mode: MimoMode
    nominal_rate_mbps: float
    per: float
    goodput_mbps: float

    @property
    def per_stream_index(self) -> int:
        """Single-stream ladder position (0-7), the Fig 6b y/x axis."""
        return self.mcs.per_stream_index


def _candidates(modes: Sequence[MimoMode]) -> List[Tuple[MimoMode, McsEntry]]:
    """(mode, MCS) pairs in search order: modes as given, MCS ascending.

    STBC carries a single stream (MCS 0-7); SDM carries two (MCS 8-15).
    """
    return [
        (mode, entry)
        for mode in modes
        for entry in MCS_TABLE.values()
        if entry.n_streams == mode.n_streams
    ]


def optimal_mcs_batch(
    link_snrs_db: "Sequence[float] | np.ndarray",
    params: OfdmParams,
    packet_bytes: int = DEFAULT_PACKET_SIZE_BYTES,
    short_gi: bool = False,
    modes: Optional[Iterable[MimoMode]] = None,
) -> List[RateDecision]:
    """Goodput-optimal MCS and MIMO mode for every SNR of an array.

    Each (mode, MCS) candidate runs the SNR → BER → PER chain once over
    the whole 1-d array; ``argmax`` over the candidate axis keeps the
    first maximum, the same tie rule as a strict ``>`` scan in
    candidate order. An element's floats do not depend on the array's
    length or on its neighbours, so a batch agrees exactly with
    one-element calls — :func:`optimal_mcs` is one.
    """
    if packet_bytes <= 0:
        raise ConfigurationError(f"packet size must be positive, got {packet_bytes}")
    modes = tuple(modes) if modes is not None else (MimoMode.STBC, MimoMode.SDM)
    if not modes:
        raise ConfigurationError("at least one MIMO mode is required")
    snrs = np.asarray(link_snrs_db, dtype=float).reshape(-1)
    candidates = _candidates(modes)
    rates = [entry.rate_mbps(params, short_gi=short_gi) for _, entry in candidates]
    if not snrs.size:
        return []
    pers = np.empty((len(candidates), snrs.size))
    goodputs = np.empty_like(pers)
    for row, (mode, entry) in enumerate(candidates):
        stream_snrs = effective_snr_db(snrs, mode)
        ber = coded_ber(entry.modulation, entry.code_rate, stream_snrs)
        pers[row] = per_from_ber(ber, packet_bytes)
        goodputs[row] = rates[row] * (1.0 - pers[row])
    best = np.argmax(goodputs, axis=0)
    columns = np.arange(snrs.size)
    return [
        RateDecision(
            mcs=candidates[row][1],
            mode=candidates[row][0],
            nominal_rate_mbps=rates[row],
            per=per,
            goodput_mbps=goodput,
        )
        for row, per, goodput in zip(
            best.tolist(),
            pers[best, columns].tolist(),
            goodputs[best, columns].tolist(),
        )
    ]


def optimal_mcs(
    link_snr_db: float,
    params: OfdmParams,
    packet_bytes: int = DEFAULT_PACKET_SIZE_BYTES,
    short_gi: bool = False,
    modes: Optional[Iterable[MimoMode]] = None,
) -> RateDecision:
    """Exhaustive goodput-optimal MCS and MIMO mode for a link.

    ``link_snr_db`` is the per-subcarrier SNR the link would see on
    numerology ``params`` (so callers apply the 3 dB bonding calibration
    *before* calling; :mod:`repro.link.estimator` does this). A
    one-element :func:`optimal_mcs_batch`, so it returns the same floats
    as any rate table built from the batch kernel.
    """
    (decision,) = optimal_mcs_batch(
        (link_snr_db,),
        params,
        packet_bytes=packet_bytes,
        short_gi=short_gi,
        modes=modes,
    )
    return decision


def optimal_mcs_fixed_mode(
    link_snr_db: float,
    params: OfdmParams,
    mode: MimoMode,
    packet_bytes: int = DEFAULT_PACKET_SIZE_BYTES,
    short_gi: bool = False,
) -> RateDecision:
    """Goodput-optimal MCS when the MIMO mode is imposed."""
    return optimal_mcs(
        link_snr_db,
        params,
        packet_bytes=packet_bytes,
        short_gi=short_gi,
        modes=(mode,),
    )
