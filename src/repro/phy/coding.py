"""The 802.11 convolutional code and its coded-BER union bounds.

802.11a/g/n use the K=7 (133, 171) convolutional code at rate 1/2,
punctured to 2/3, 3/4 and (for 802.11n MCS 7/15) 5/6. The paper's
link-quality estimator needs "coded BER from SNR"; we provide it through
the classic hard-decision union bound over the code's distance spectrum,
which reproduces the steep coded waterfall that separates good links from
poor ones in Figures 5 and 6.

Distance spectra (free distance and the first information-error weights
``c_d``) are the published values for the standard punctured K=7 code
(Haccoun & Begin, IEEE Trans. Comm. 1989).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..units import linear_to_db

__all__ = [
    "ConvolutionalCode",
    "CODE_RATES",
    "code_by_rate",
    "pairwise_error_probability",
]


def pairwise_error_probability(d: int, p: "float | np.ndarray") -> "float | np.ndarray":
    """Probability that hard-decision Viterbi picks a path at distance ``d``.

    ``p`` is the channel (uncoded) bit error probability. Standard
    formula: the decoder errs when more than d/2 of the d differing bits
    flip; ties (even ``d``) count half.
    """
    if d <= 0:
        raise ConfigurationError(f"distance must be positive, got {d}")
    p = np.asarray(p, dtype=float)
    p = np.clip(p, 0.0, 0.5)
    q = 1.0 - p
    result = np.zeros_like(p)
    half = d // 2
    if d % 2:
        for k in range(half + 1, d + 1):
            result += math.comb(d, k) * p**k * q ** (d - k)
    else:
        for k in range(half + 1, d + 1):
            result += math.comb(d, k) * p**k * q ** (d - k)
        result += 0.5 * math.comb(d, half) * p**half * q**half
    return result if np.ndim(result) else float(result)


@dataclass(frozen=True)
class ConvolutionalCode:
    """A punctured K=7 convolutional code described by its distance spectrum.

    Attributes
    ----------
    rate:
        Information bits per coded bit (1/2, 2/3, 3/4, 5/6).
    free_distance:
        Minimum Hamming distance between distinct codewords.
    weights:
        Information-error weights ``c_d`` for d = free_distance,
        free_distance+1, ... (one entry per distance).
    """

    rate: float
    free_distance: int
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0 < self.rate < 1:
            raise ConfigurationError(f"code rate must be in (0, 1), got {self.rate}")
        if self.free_distance <= 0:
            raise ConfigurationError(
                f"free distance must be positive, got {self.free_distance}"
            )

    def coded_ber(self, channel_ber: "float | np.ndarray") -> "float | np.ndarray":
        """Post-Viterbi BER from the raw channel BER (hard decisions).

        Union bound ``Pb <= sum_d c_d * P2(d, p)`` clipped to [0, 0.5].
        The bound is loose near p = 0.5 but tight in the waterfall
        region, which is where link-width decisions are made.
        """
        p = np.clip(np.asarray(channel_ber, dtype=float), 0.0, 0.5)
        total = np.zeros_like(p)
        for offset, c_d in enumerate(self.weights):
            if c_d == 0:
                continue
            d = self.free_distance + offset
            total += c_d * pairwise_error_probability(d, p)
        total = np.minimum(total, 0.5)
        # The union bound can only make things worse than uncoded at very
        # high channel BER; a real Viterbi decoder never exceeds ~0.5.
        result = np.where(p >= 0.5, 0.5, total)
        return result if np.ndim(result) else float(result)

    def coding_gain_db(self) -> float:
        """Asymptotic hard-decision coding gain, 10*log10(R * dfree / 2)."""
        return linear_to_db(self.rate * self.free_distance / 2.0)


# Published distance spectra for the K=7 (133,171) code and its standard
# puncturings. ``weights`` are information-bit error weights c_d starting
# at d = free_distance.
CODE_RATES: Dict[float, ConvolutionalCode] = {
    1 / 2: ConvolutionalCode(
        rate=1 / 2,
        free_distance=10,
        weights=(36.0, 0.0, 211.0, 0.0, 1404.0, 0.0, 11633.0),
    ),
    2 / 3: ConvolutionalCode(
        rate=2 / 3,
        free_distance=6,
        weights=(3.0, 70.0, 285.0, 1276.0, 6160.0, 27128.0),
    ),
    3 / 4: ConvolutionalCode(
        rate=3 / 4,
        free_distance=5,
        weights=(42.0, 201.0, 1492.0, 10469.0, 62935.0),
    ),
    5 / 6: ConvolutionalCode(
        rate=5 / 6,
        free_distance=4,
        weights=(92.0, 528.0, 8694.0, 79453.0),
    ),
}


def code_by_rate(rate: float, tolerance: float = 1e-9) -> ConvolutionalCode:
    """Look up the standard 802.11 code for ``rate`` (1/2, 2/3, 3/4, 5/6)."""
    for known, code in CODE_RATES.items():
        if abs(known - rate) <= tolerance:
            return code
    raise ConfigurationError(
        f"no 802.11 convolutional code with rate {rate}; "
        f"available: {sorted(CODE_RATES)}"
    )
