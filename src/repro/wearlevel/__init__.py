"""Wear-leveling schemes: the paper's baselines and building blocks.

Every scheme implements :class:`~repro.wearlevel.base.WearLeveler`:
``translate(la)`` maps a logical to a physical line address under the current
(dynamic) mapping, and ``record_write(la)`` advances the scheme's counters,
performs any triggered remapping *of the mapping state*, and returns the data
movements the memory controller must execute on the PCM array.
"""

from repro.wearlevel.base import CopyMove, Move, SwapMove, WearLeveler
from repro.wearlevel.multiway_sr import MultiWaySR
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.random_swap import RandomSwapWearLeveling
from repro.wearlevel.rbsg import RegionBasedStartGap
from repro.wearlevel.security_refresh import SecurityRefresh, SRBank
from repro.wearlevel.startgap import StartGap, StartGapBank
from repro.wearlevel.table_based import TableBasedWearLeveling
from repro.wearlevel.two_level_sr import TwoLevelSecurityRefresh

__all__ = [
    "CopyMove",
    "Move",
    "MultiWaySR",
    "NoWearLeveling",
    "RandomSwapWearLeveling",
    "RegionBasedStartGap",
    "SRBank",
    "SecurityRefresh",
    "StartGap",
    "StartGapBank",
    "SwapMove",
    "TableBasedWearLeveling",
    "TwoLevelSecurityRefresh",
]
