"""Malicious write-stream attacks against PCM wear leveling.

All attacks drive a :class:`~repro.sim.memory_system.MemoryController`
through its public ``write`` / ``write_chunk`` interface and observe nothing
but the returned latencies, one per write — the same threat model as the
paper (compromised OS, caches bypassed, no knowledge of randomizer/remapping
keys).

* :mod:`repro.attacks.raa` — Repeated Address Attack,
* :mod:`repro.attacks.bpa` — Birthday Paradox Attack,
* :mod:`repro.attacks.rta_rbsg` — Remapping Timing Attack on RBSG (§III-B),
* :mod:`repro.attacks.rta_sr` — RTA on one-level Security Refresh (§III-D),
* :mod:`repro.attacks.rta_two_level_sr` — RTA on two-level SR (§III-E).
"""

from repro.attacks.aia import AddressInferenceAttack
from repro.attacks.base import AttackResult
from repro.attacks.bpa import BirthdayParadoxAttack
from repro.attacks.oracle import LatencyOracle
from repro.attacks.raa import RepeatedAddressAttack
from repro.attacks.rta_multiway import MultiWaySRTimingAttack
from repro.attacks.rta_rbsg import RBSGTimingAttack
from repro.attacks.rta_sr import SRTimingAttack
from repro.attacks.rta_two_level_sr import TwoLevelSRTimingAttack

__all__ = [
    "AddressInferenceAttack",
    "AttackResult",
    "BirthdayParadoxAttack",
    "LatencyOracle",
    "MultiWaySRTimingAttack",
    "RBSGTimingAttack",
    "RepeatedAddressAttack",
    "SRTimingAttack",
    "TwoLevelSRTimingAttack",
]
