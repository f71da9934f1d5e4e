"""Multi-Way Security Refresh (Yu & Du, IEEE TC 2014; paper Section III-E).

The paper characterises the scheme family this way: the memory space is
divided into many sub-regions *by the address sequence* (contiguous LA
ranges) and wear leveling runs independently inside each sub-region.  Our
implementation gives each contiguous LA range its own one-level SR region.

This family inherits the vulnerability discussed in Section III-E: once the
attacker locates a sub-region (free — the split is by address sequence, so
the high LA bits name the sub-region directly), it takes at most
``(2N/R) * log2(R)`` writes to track its remapping, after which the whole
sub-region can be worn out.
"""

from __future__ import annotations

from repro.util.rng import SeedLike
from repro.wearlevel.security_refresh import SecurityRefresh


class MultiWaySR(SecurityRefresh):
    """Independent per-sub-region Security Refresh over contiguous LA ranges."""

    def __init__(
        self,
        n_lines: int,
        n_subregions: int = 512,
        remap_interval: int = 64,
        rng: SeedLike = None,
    ):
        self._init_subregions(n_lines, n_subregions, remap_interval, rng)
