"""Dynamic Feistel Network (DFN) remapping engine (Section IV-B, Figs. 8-10).

The DFN permutes the ``N``-line logical space with an S-stage Feistel
network whose stage keys are re-randomized every remapping round, so a
timing attacker can never finish recovering a key before it changes.
State (as in the paper):

* ``Gap`` register — the currently-empty slot,
* key arrays ``Kc`` (current round) and ``Kp`` (previous round), realised
  here as two :class:`~repro.core.feistel.FeistelNetwork` instances,
* one ``isRemap`` bit per line,
* one spare slot at index ``N`` used to park data while a permutation cycle
  is walked.

Round protocol.  At a round start the keys rotate (``Kp ← Kc``, fresh
``Kc``), all ``isRemap`` bits clear, and the content of slot 0 is parked in
the spare (``[N] ← [0]``, ``Gap ← 0``).  Each subsequent movement asks
"whose new home is the gap?" (``LOC = DEC_Kc(Gap)``), copies that line's
data from its old home ``ENC_Kp(LOC)`` into the gap, marks
``isRemap[LOC]``, and adopts the vacated old home as the new gap.  The walk
traces one cycle of the slot permutation ``σ = ENC_Kc ∘ DEC_Kp``; it closes
when the wanted data is the parked one, which is then copied out of the
spare (``[Gap] ← [N]``) and the gap returns to ``N``.

**Correctness + endurance corrections (deviations from the paper).**
The paper's Fig. 9 flowchart assumes ``σ`` forms a *single* cycle through
slot 0.  That is false in general — and for the paper's own cubing-Feistel
construction it fails spectacularly: the composition of two independently
keyed networks has *low order*, so ``σ`` decomposes into very many short
cycles (measured here: hundreds at 2^16 lines).  Lines on other cycles
would never be remapped, and the round-end key rotation would silently
corrupt their mapping.  Worse, the obvious fix — walking every cycle
through the spare — writes the spare once per cycle and wears it out
orders of magnitude faster than any data line.  We therefore:

1. walk the **first** cycle (through slot 0) exactly as the paper does,
   parking in the spare — one spare write per round, matching Fig. 9;
2. rotate every **further** cycle as a chain of line *swaps* (one swap per
   remap trigger), the same controller-buffered exchange Security Refresh
   is built on — no spare involvement, two line writes per swap;
3. remap **fixed points** of ``σ`` (``ENC_Kp(la) == ENC_Kc(la)``, which
   the cubing round function makes common) for free: their data already
   sits at its new home, so the trigger sets ``isRemap`` and moves nothing.

Every remap trigger still performs at most one movement (a copy or a
swap), and the paper's Fig. 10 translation rule is preserved, extended by
one register pair: the *displaced* line of an in-progress swap chain reads
from the chain's pivot slot (the analogue of the parked line reading from
the spare).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.feistel import FeistelNetwork
from repro.util.bitops import bit_length_exact
from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.base import CopyMove, Move, SwapMove, sorted_composites


class DynamicFeistelMapper:
    """Key-rotating Feistel permutation with gap-walk / swap-chain remapping.

    Addresses in / slots out are in ``[0, n_lines]`` where slot ``n_lines``
    is the spare.  :meth:`step` performs one remap trigger and returns the
    slot-level movement it requires: a :class:`CopyMove`, a
    :class:`SwapMove`, or ``None`` for a fixed-point remap.

    Parameters
    ----------
    n_lines:
        Logical lines (power of two).
    n_stages:
        Feistel stages ``S`` — the paper's adjustable security level.
    rng:
        Seed / generator for key material.
    """

    def __init__(self, n_lines: int, n_stages: int = 7, rng: SeedLike = None):
        self.n_bits = bit_length_exact(n_lines)
        self.n_lines = n_lines
        self.n_stages = n_stages
        self._rng = as_generator(rng)
        initial = FeistelNetwork.random(self.n_bits, n_stages, self._rng)
        self.feistel_c = initial
        self.feistel_p = initial
        # Boot state: behave as if a round just completed under `initial`.
        self.is_remapped = np.ones(n_lines, dtype=bool)
        self._n_remapped = n_lines
        self.gap = n_lines  # the spare slot
        self.parked_la: Optional[int] = None  # first cycle (spare walk)
        self.displaced_la: Optional[int] = None  # later cycles (swap chain)
        self.displaced_slot: Optional[int] = None
        self.round_count = 0
        self.total_movements = 0
        # The open span's undo log (:meth:`step_span`): per step, the
        # registers it started from and where its marks start in _marks.
        self._log: List[Tuple[Any, ...]] = []
        self._marks: Optional[List[int]] = None  # lines the span's steps marked

    # ------------------------------------------------------------- mapping

    @property
    def spare_slot(self) -> int:
        """Index of the spare (park) slot."""
        return self.n_lines

    def translate(self, la: int) -> int:
        """LA → IA slot under the current remapping state (Fig. 10)."""
        if not 0 <= la < self.n_lines:
            raise ValueError(f"address {la} outside [0, {self.n_lines})")
        if self.is_remapped[la]:
            return int(self.feistel_c.encrypt(la))
        if la == self.parked_la:
            return self.spare_slot
        if la == self.displaced_la:
            return self.displaced_slot
        return int(self.feistel_p.encrypt(la))

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`translate` (bounds are the caller's problem).

        One Feistel pass: each line is encrypted under the key schedule
        its ``isRemap`` bit selects (``Kc`` or ``Kp``).  The parked and
        displaced lines are never marked remapped while their registers
        are live, so the two patches below never collide with that choice.
        """
        las = np.asarray(las, dtype=np.int64)
        keys = np.where(
            self.is_remapped[las],
            self.feistel_c.key_column,
            self.feistel_p.key_column,
        )
        out = self.feistel_c.encrypt_keyed(las, keys).astype(np.int64)
        return self._patched(las, out)

    def select(
        self,
        las: np.ndarray,
        under_c: np.ndarray,
        under_p: np.ndarray,
        epoch: np.ndarray,
    ) -> np.ndarray:
        """:meth:`translate_many` from the lines' encryptions under ``Kc``
        (``under_c``) and ``Kp`` (``under_p``), computed by the caller,
        each line ``las[i]`` as it stood just before step ``epoch[i]`` of
        the open span (:meth:`step_span`; ``len(steps)``: after them all).

        That is the ``isRemap`` bit without the marks of that step and
        later ones, and the parked and displaced registers that step
        started from.
        """
        remapped = self.is_remapped[las]
        log = self._log
        if self._marks:
            marks = np.array(self._marks, dtype=np.int64)
            starts = [entry[-1] for entry in log] + [marks.size]
            step = np.repeat(np.arange(len(log)), np.diff(starts))
            # Write i sees the mark of step s iff epoch[i] > s, so from
            # first_after[s] on (epoch never decreases).  The writes to a
            # marked line before that are a range of the sorted (la, index)
            # composites: clear their bit.
            first_after = np.searchsorted(epoch, np.arange(len(log)), side="right")
            composite, shift = sorted_composites(las)
            line = marks << shift
            lo, hi = np.searchsorted(
                composite, np.stack((line, line + first_after[step]))
            )
            count = hi - lo
            inside = np.repeat(lo - np.cumsum(count) + count, count)
            inside += np.arange(inside.size)
            remapped[composite[inside] & ((1 << shift) - 1)] = False
        out = np.where(remapped, under_c, under_p)
        registers = [entry[1:4] for entry in log]
        registers.append((self.parked_la, self.displaced_la, self.displaced_slot))
        parked, displaced, slot = (
            np.array([-1 if r is None else r for r in column], dtype=np.int64)[epoch]
            for column in zip(*registers)
        )
        out[las == parked] = self.spare_slot
        hit = las == displaced
        out[hit] = slot[hit]
        return out

    def _patched(self, las: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` with the parked and displaced lines' registers applied."""
        if self.parked_la is not None:
            out[las == self.parked_la] = self.spare_slot
        if self.displaced_la is not None:
            out[las == self.displaced_la] = self.displaced_slot
        return out

    def round_complete(self) -> bool:
        """True when every line has been remapped in the current round."""
        return self._n_remapped == self.n_lines

    def advance_rounds(self, rounds: int) -> None:
        """Jump ``rounds`` whole remapping rounds in one step.

        Rotates the key pair ``rounds`` times (one draw of ``rounds`` key
        schedules, stream-identical to ``rounds`` calls of ``_begin_round``;
        only the last two become networks) and lands on the round-boundary
        state: every line remapped under the final ``feistel_c``, gap
        parked at the spare, no line parked or displaced.  The analytic
        fast-forward tier uses this to skip the per-trigger cycle walk;
        ``total_movements`` is the caller's responsibility (it knows how
        many triggers it modelled).
        """
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        if rounds:
            keys = FeistelNetwork.draw_keys(
                self.n_bits, self.n_stages, rounds, self._rng
            )
            if rounds > 1:
                self.feistel_c = FeistelNetwork(self.n_bits, keys[-2])
            self.feistel_p = self.feistel_c
            self.feistel_c = FeistelNetwork(self.n_bits, keys[-1])
            self.is_remapped[:] = True
            self._n_remapped = self.n_lines
            self.gap = self.n_lines
            self.parked_la = None
            self.displaced_la = None
            self.displaced_slot = None
            self.round_count += rounds

    def fixed_point_fraction(self, sample: int = 1 << 16) -> float:
        """Fraction of lines mapped identically by the old and new keys.

        Fixed points of ``σ = ENC_Kc ∘ DEC_Kp`` remap for free (no data
        movement); the cubing-Feistel composition makes them common, so
        the analytic movement-wear model measures the fraction on a
        sample of the current key pair as its per-round representative.
        """
        probe = np.arange(min(self.n_lines, sample), dtype=np.uint64)
        same = np.asarray(self.feistel_c.encrypt(probe)) == np.asarray(
            self.feistel_p.encrypt(probe)
        )
        return float(same.mean())

    # ------------------------------------------------------------ movement

    def step(self) -> Optional[Move]:
        """Perform one remap trigger; return the movement it requires.

        The mapping state visible through :meth:`translate` is updated
        before returning, consistent with the data layout once the caller
        executes the returned movement.
        """
        self.total_movements += 1
        if self.round_complete():
            return self._begin_round()
        if self.parked_la is not None:
            return self._walk_first_cycle()
        if self.displaced_la is not None:
            return self._chain_step()
        return self._begin_cycle(self._lowest_unremapped())

    def step_span(self, count: int, rotate: bool) -> List[Optional[Move]]:
        """Pre-step up to ``count`` remap triggers; return their movements.

        Stops before a trigger whose step would begin a round (rotate the
        keys and draw from the generator) unless it is the first and
        ``rotate`` allows it, so a draw is never rolled back.  Opens a
        span: each step is logged for :meth:`select` and
        :meth:`end_span` with the registers it started from (gap, parked
        line, displaced line and slot, remapped count, total movements)
        and the lines it marked.
        """
        self._log = []
        self._marks = []
        moves: List[Optional[Move]] = []
        for j in range(count):
            if self.round_complete() and (j or not rotate):
                break
            self._log.append(
                (
                    self.gap,
                    self.parked_la,
                    self.displaced_la,
                    self.displaced_slot,
                    self._n_remapped,
                    self.total_movements,
                    len(self._marks),
                )
            )
            moves.append(self.step())
        return moves

    def end_span(self, keep: int) -> None:
        """Close the span: keep its first ``keep`` steps and roll the
        others back, latest first."""
        for entry in reversed(self._log[keep:]):
            (
                self.gap,
                self.parked_la,
                self.displaced_la,
                self.displaced_slot,
                self._n_remapped,
                self.total_movements,
                first,
            ) = entry
            self.is_remapped[self._marks[first:]] = False
            del self._marks[first:]
        self._log = []
        self._marks = None

    # ---- round start + first cycle: the paper's spare-parked gap walk ----

    def _begin_round(self) -> Optional[Move]:
        """Rotate keys, clear isRemap, start with slot 0's resident line."""
        self.feistel_p = self.feistel_c
        self.feistel_c = self.feistel_c.rekeyed(self._rng)
        self.is_remapped[:] = False
        self._n_remapped = 0
        self.round_count += 1
        # Park slot 0's resident line in the spare ([N] <- [0], Gap <- 0),
        # per Fig. 9 — unless slot 0's resident is a fixed point.
        la = int(self.feistel_p.decrypt(0))
        if int(self.feistel_c.encrypt(la)) == 0:
            self._mark(la)
            return None
        self.parked_la = la
        self.gap = 0
        return CopyMove(src=0, dst=self.spare_slot)

    def _walk_first_cycle(self) -> Move:
        loc = int(self.feistel_c.decrypt(self.gap))
        dst = self.gap
        if loc == self.parked_la:
            # Cycle closes: the wanted data sits in the spare.
            src = self.spare_slot
            self.gap = self.spare_slot
            self.parked_la = None
        else:
            src = int(self.feistel_p.encrypt(loc))
            self.gap = src
        self._mark(loc)
        return CopyMove(src=src, dst=dst)

    # ---- further cycles: swap-chain rotation, no spare involvement -------

    def _begin_cycle(self, la: int) -> Optional[Move]:
        """Start remapping the cycle containing line ``la``."""
        old_home = int(self.feistel_p.encrypt(la))
        new_home = int(self.feistel_c.encrypt(la))
        if new_home == old_home:
            # Fixed point: already home under the new keys; no movement.
            self._mark(la)
            return None
        return self._swap_from_pivot(pivot=old_home, la=la, target=new_home)

    def _chain_step(self) -> Move:
        la = self.displaced_la
        target = int(self.feistel_c.encrypt(la))
        return self._swap_from_pivot(
            pivot=self.displaced_slot, la=la, target=target
        )

    def _swap_from_pivot(self, pivot: int, la: int, target: int) -> Move:
        """Swap the pivot slot (holding ``la``'s data) with ``la``'s new home.

        After the swap ``la`` is remapped; the line whose data the pivot
        received becomes the displaced line — unless the pivot happens to
        *be* its new home, which closes the cycle.
        """
        self._mark(la)
        displaced = int(self.feistel_p.decrypt(target))
        if int(self.feistel_c.encrypt(displaced)) == pivot:
            # The incoming data lands exactly at its own new home.
            self._mark(displaced)
            self.displaced_la = None
            self.displaced_slot = None
        else:
            self.displaced_la = displaced
            self.displaced_slot = pivot
        return SwapMove(pa_a=pivot, pa_b=target)

    def _mark(self, la: int) -> None:
        self.is_remapped[la] = True
        self._n_remapped += 1
        if self._marks is not None:
            self._marks.append(la)

    def _lowest_unremapped(self) -> int:
        return int(np.argmin(self.is_remapped))

    # -------------------------------------------------------------- oracle

    def mapping_snapshot(self) -> List[int]:
        """Full LA → slot table (tests / small domains)."""
        return [self.translate(la) for la in range(self.n_lines)]
