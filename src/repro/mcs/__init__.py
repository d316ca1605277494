"""802.11n Modulation and Coding Scheme (MCS) tables and optimal selection."""

from .tables import MCS_TABLE, McsEntry, mcs_by_index, modcod_label
from .selection import (
    RateDecision,
    optimal_mcs,
    optimal_mcs_batch,
    optimal_mcs_fixed_mode,
)

__all__ = [
    "McsEntry",
    "MCS_TABLE",
    "mcs_by_index",
    "modcod_label",
    "RateDecision",
    "optimal_mcs",
    "optimal_mcs_batch",
    "optimal_mcs_fixed_mode",
]
