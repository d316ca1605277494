"""Analysis-level MIMO mode models: SDM vs STBC effective SNR.

802.11n offers two MIMO modes (Section 2): Spatial Division Multiplexing
(SDM — two parallel streams, double rate) and Space-Time Block Coding
(STBC — one stream, diversity). Vendors' auto-rate picks the mode from
link quality. For the network-level simulator we do not run the
sample-level chain per packet; instead each mode maps the link's
wideband SNR to an *effective per-stream SNR*:

* STBC (2x2 Alamouti): receive diversity and array gain make the
  post-combining SNR ~3 dB better than the raw link SNR, at single-stream
  rates.
* SDM: transmit power splits across two streams (−3 dB each) and stream
  separation costs a further margin, but the rate doubles.

This reproduces the empirically observed crossover: STBC wins on poor
links, SDM on strong ones.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..errors import ConfigurationError

__all__ = ["MimoMode", "effective_snr_db", "STBC_GAIN_DB", "SDM_PENALTY_DB"]

# Post-MRC array/diversity gain of 2x2 Alamouti over a 1x1 link.
STBC_GAIN_DB = 3.0

# Per-stream SNR cost of SDM: 3 dB power split + ~2 dB linear-receiver
# stream-separation loss.
SDM_PENALTY_DB = 5.0


class MimoMode(Enum):
    """MIMO operating mode of an 802.11n link."""

    STBC = "stbc"
    SDM = "sdm"

    @property
    def n_streams(self) -> int:
        """Concurrent spatial streams carried in this mode."""
        return 1 if self is MimoMode.STBC else 2


def effective_snr_db(
    link_snr_db: "float | np.ndarray", mode: MimoMode
) -> "float | np.ndarray":
    """Per-stream decodable SNR for ``mode`` given the raw link SNR(s)."""
    if not isinstance(mode, MimoMode):
        raise ConfigurationError(f"expected a MimoMode, got {mode!r}")
    if mode is MimoMode.STBC:
        return link_snr_db + STBC_GAIN_DB
    return link_snr_db - SDM_PENALTY_DB
