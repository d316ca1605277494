"""Tests for the MCS tables and goodput-optimal selection."""

import itertools
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mcs.selection import (
    optimal_mcs,
    optimal_mcs_batch,
    optimal_mcs_fixed_mode,
)
from repro.mcs.tables import (
    MCS_TABLE,
    dual_stream_entries,
    mcs_by_index,
    modcod_label,
    single_stream_entries,
)
from repro.phy.ber import coded_ber
from repro.phy.mimo import MimoMode, effective_snr_db
from repro.phy.modulation import BPSK, QAM64
from repro.phy.ofdm import OFDM_20MHZ, OFDM_40MHZ
from repro.phy.per import per_from_ber


class TestTables:
    def test_sixteen_entries(self):
        assert len(MCS_TABLE) == 16

    def test_mcs0_is_bpsk_half(self):
        entry = mcs_by_index(0)
        assert entry.modulation is BPSK
        assert entry.code_rate == pytest.approx(0.5)
        assert entry.n_streams == 1

    def test_mcs15_is_64qam_5_6_dual(self):
        entry = mcs_by_index(15)
        assert entry.modulation is QAM64
        assert entry.code_rate == pytest.approx(5 / 6)
        assert entry.n_streams == 2

    @pytest.mark.parametrize(
        "index,params,expected",
        [
            (0, OFDM_20MHZ, 6.5),
            (7, OFDM_20MHZ, 65.0),
            (7, OFDM_40MHZ, 135.0),
            (15, OFDM_20MHZ, 130.0),
            (15, OFDM_40MHZ, 270.0),
        ],
    )
    def test_standard_rates(self, index, params, expected):
        assert mcs_by_index(index).rate_mbps(params) == pytest.approx(
            expected, rel=0.01
        )

    def test_per_stream_index_wraps(self):
        assert mcs_by_index(9).per_stream_index == 1
        assert mcs_by_index(3).per_stream_index == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            mcs_by_index(16)

    def test_rates_monotone_within_ladder(self):
        """MCS 0-7 rates strictly increase (same for 8-15)."""
        for entries in (single_stream_entries(), dual_stream_entries()):
            rates = [entry.rate_mbps(OFDM_20MHZ) for entry in entries]
            assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_modcod_label(self):
        assert modcod_label(QAM64, 3 / 4) == "64QAM 3/4"
        assert mcs_by_index(15).label == "64QAM 5/6 x2"


class TestSelection:
    def test_high_snr_picks_top_rate(self):
        decision = optimal_mcs(40.0, OFDM_20MHZ)
        assert decision.mcs.index == 15
        assert decision.mode is MimoMode.SDM
        assert decision.per < 1e-6

    def test_very_low_snr_picks_robust(self):
        decision = optimal_mcs(-2.0, OFDM_20MHZ)
        assert decision.mcs.per_stream_index == 0
        assert decision.mode is MimoMode.STBC

    def test_goodput_never_negative(self):
        for snr in (-10.0, 0.0, 10.0, 30.0):
            assert optimal_mcs(snr, OFDM_40MHZ).goodput_mbps >= 0.0

    def test_goodput_monotone_in_snr(self):
        snrs = [-5 + i for i in range(40)]
        goodputs = [optimal_mcs(s, OFDM_20MHZ).goodput_mbps for s in snrs]
        assert all(b >= a - 1e-9 for a, b in zip(goodputs, goodputs[1:]))

    def test_stbc_to_sdm_crossover(self):
        """STBC dominates poor links, SDM dominates strong ones."""
        assert optimal_mcs(2.0, OFDM_20MHZ).mode is MimoMode.STBC
        assert optimal_mcs(35.0, OFDM_20MHZ).mode is MimoMode.SDM

    @pytest.mark.parametrize("mode", [MimoMode.STBC, MimoMode.SDM])
    def test_fig6b_optimal_40mhz_mcs_not_more_aggressive(self, mode):
        """Fig 6b: at equal Tx the 40 MHz optimum uses an MCS no more
        aggressive than the 20 MHz optimum (exact within a mode)."""
        for snr20 in range(-2, 36, 2):
            d20 = optimal_mcs_fixed_mode(float(snr20), OFDM_20MHZ, mode)
            d40 = optimal_mcs_fixed_mode(float(snr20) - 3.1, OFDM_40MHZ, mode)
            assert d40.per_stream_index <= d20.per_stream_index

    def test_fig6b_mixed_mode_almost_always(self):
        """With free mode choice, the per-stream comparison applies when
        both widths land on the same MIMO mode (Fig 6b plots the two
        modes with distinct markers); the SDM/STBC crossover rows are
        the paper's "almost" exceptions."""
        same_mode_points = 0
        for snr20 in range(-2, 36):
            d20 = optimal_mcs(float(snr20), OFDM_20MHZ)
            d40 = optimal_mcs(float(snr20) - 3.1, OFDM_40MHZ)
            if d20.mode is d40.mode:
                same_mode_points += 1
                assert d40.per_stream_index <= d20.per_stream_index
        # The same-mode case must dominate the sweep.
        assert same_mode_points >= 30

    def test_fixed_mode_restricts_candidates(self):
        decision = optimal_mcs_fixed_mode(35.0, OFDM_20MHZ, MimoMode.STBC)
        assert decision.mode is MimoMode.STBC
        assert decision.mcs.n_streams == 1

    def test_invalid_packet_size_rejected(self):
        with pytest.raises(ConfigurationError):
            optimal_mcs(10.0, OFDM_20MHZ, packet_bytes=0)

    def test_no_modes_rejected(self):
        with pytest.raises(ConfigurationError):
            optimal_mcs(10.0, OFDM_20MHZ, modes=())

    def test_short_gi_raises_rate(self):
        long_gi = optimal_mcs(35.0, OFDM_20MHZ, short_gi=False)
        short_gi = optimal_mcs(35.0, OFDM_20MHZ, short_gi=True)
        assert short_gi.nominal_rate_mbps > long_gi.nominal_rate_mbps


# ----------------------------------------------------------------------
# The batch kernel against the scalar search it replaced
# ----------------------------------------------------------------------
def scalar_search(snr_db, params, packet_bytes, short_gi, modes):
    """The pre-kernel per-link search, kept as the oracle.

    Evaluates every (mode, MCS) candidate on a scalar SNR and returns
    ``[(mcs index, mode, per, goodput), ...]`` in search order; the old
    choice is the first candidate with the largest goodput.
    """
    rows = []
    for mode in modes:
        for entry in MCS_TABLE.values():
            if entry.n_streams != mode.n_streams:
                continue
            stream_snr = effective_snr_db(snr_db, mode)
            ber = coded_ber(entry.modulation, entry.code_rate, stream_snr)
            per = per_from_ber(ber, packet_bytes)
            rate = entry.rate_mbps(params, short_gi=short_gi)
            rows.append((entry.index, mode, float(per), float(rate * (1.0 - per))))
    return rows


# -10…60 dB in exact 0.001 dB steps.
GRID_DB = np.arange(-10_000, 60_001) / 1000.0
MODE_SETS = (
    (MimoMode.STBC, MimoMode.SDM),
    (MimoMode.STBC,),
    (MimoMode.SDM,),
)
KERNEL_CASES = list(
    itertools.product(
        (OFDM_20MHZ, OFDM_40MHZ), MODE_SETS, (False, True), (1500, 256)
    )
)


def _key(decision):
    return (
        decision.mcs.index,
        decision.mode,
        decision.per,
        decision.goodput_mbps,
    )


CHUNK_SIZES = (
    1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584,
    4181, 6765,
)


def _chunked(snrs, **kwargs):
    """The kernel over consecutive chunks of Fibonacci lengths."""
    sizes = itertools.cycle(CHUNK_SIZES)
    out, start = [], 0
    while start < snrs.size:
        stop = start + next(sizes)
        out.extend(optimal_mcs_batch(snrs[start:stop], **kwargs))
        start = stop
    return out


def _case_id(case):
    params, modes, short_gi, packet_bytes = case
    mode_ids = "+".join(mode.value for mode in modes)
    return f"{params.name}-{mode_ids}-gi{int(short_gi)}-{packet_bytes}B"


@pytest.mark.parametrize("case", KERNEL_CASES, ids=_case_id)
def test_kernel_matches_one_element_calls_and_oracle(case):
    """The full 0.001 dB grid in one batch, probed where choices flip.

    At every choice boundary of the grid (both sides) and every 2 dB:
    a one-element call equals the batch element float for float, and
    the oracle makes the same choice unless its top two goodputs are
    within 1e-12 relative; PER and goodput agree to 1e-12 relative.
    """
    params, modes, short_gi, packet_bytes = case
    kwargs = dict(
        params=params, packet_bytes=packet_bytes, short_gi=short_gi, modes=modes
    )
    keys = [_key(decision) for decision in optimal_mcs_batch(GRID_DB, **kwargs)]
    choice = np.array([key[0] for key in keys])
    boundaries = np.nonzero(choice[1:] != choice[:-1])[0]
    assert boundaries.size >= 6
    sample = sorted(
        set(boundaries.tolist())
        | set((boundaries + 1).tolist())
        | set(range(0, GRID_DB.size, 2000))
    )
    for i in sample:
        snr = float(GRID_DB[i])
        assert _key(optimal_mcs(snr, **kwargs)) == keys[i], snr
        rows = scalar_search(snr, params, packet_bytes, short_gi, modes)
        best = max(row[3] for row in rows)
        index, mode, per, goodput = keys[i]
        oracle = next(row for row in rows if row[:2] == (index, mode))
        first_best = next(row for row in rows if row[3] == best)
        if first_best[:2] != (index, mode):
            assert math.isclose(oracle[3], best, rel_tol=1e-12), snr
        assert math.isclose(per, oracle[2], rel_tol=1e-12, abs_tol=0.0), snr
        assert math.isclose(goodput, oracle[3], rel_tol=1e-12, abs_tol=0.0), snr


LENGTH_CASES = [
    (OFDM_20MHZ, modes, False, packet_bytes)
    for modes in MODE_SETS
    for packet_bytes in (1500, 256)
]


@pytest.mark.parametrize("case", LENGTH_CASES, ids=_case_id)
def test_kernel_is_length_invariant(case):
    """The full-grid batch equals the grid pushed through in chunks.

    Chunk lengths cycle through 1…6765, so every SNR lands at many
    array positions and lengths; width and guard interval only scale
    the candidate rates, so the mode sets and packet sizes cover the
    kernel's per-element arithmetic.
    """
    params, modes, short_gi, packet_bytes = case
    kwargs = dict(
        params=params, packet_bytes=packet_bytes, short_gi=short_gi, modes=modes
    )
    whole = [_key(decision) for decision in optimal_mcs_batch(GRID_DB, **kwargs)]
    assert [_key(decision) for decision in _chunked(GRID_DB, **kwargs)] == whole


class TestBatchKernel:
    def test_empty_batch(self):
        assert optimal_mcs_batch([], OFDM_20MHZ) == []

    def test_order_and_duplicates_do_not_matter(self):
        snrs = [12.5, -3.0, 12.5, 30.0, 7.25]
        forward = optimal_mcs_batch(snrs, OFDM_40MHZ)
        backward = optimal_mcs_batch(snrs[::-1], OFDM_40MHZ)
        assert forward == backward[::-1]
        assert forward[0] == forward[2]

    def test_returns_python_floats(self):
        (decision,) = optimal_mcs_batch(np.array([18.0]), OFDM_20MHZ)
        assert type(decision.per) is float
        assert type(decision.goodput_mbps) is float

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            optimal_mcs_batch([10.0], OFDM_20MHZ, packet_bytes=0)
        with pytest.raises(ConfigurationError):
            optimal_mcs_batch([10.0], OFDM_20MHZ, modes=())
