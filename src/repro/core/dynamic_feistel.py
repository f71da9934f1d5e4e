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

from typing import Any, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.feistel import FeistelNetwork
from repro.util.bitops import bit_length_exact
from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.base import CopyMove, Move, SwapMove, sorted_composites


class SpanSteps(NamedTuple):
    """The triggers :meth:`DynamicFeistelMapper.step_span` pre-stepped.

    ``taken`` steps ran.  Each movement among them has one entry in
    ``index`` (its step, increasing), ``swap`` (a swap, or a copy) and the
    columns of ``slots``, a ``(2, moves)`` array: a copy's source and
    destination, or the two slots a swap exchanges.  A fixed point moves
    nothing and has no entry.
    """

    taken: int
    index: np.ndarray
    swap: np.ndarray
    slots: np.ndarray


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
        _, moves = self._walk(1, True, None)
        if not moves:
            return None  # a fixed point: remapped where it stands
        _, swap, a, b = moves
        return SwapMove(pa_a=a, pa_b=b) if swap else CopyMove(src=a, dst=b)

    def step_span(self, count: int, rotate: bool) -> SpanSteps:
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
        taken, moves = self._walk(count, rotate, self._log)
        table = np.array(moves, dtype=np.int64).reshape(-1, 4)
        return SpanSteps(taken, table[:, 0], table[:, 1] == 1, table[:, 2:].T)

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

    def _walk(
        self, count: int, rotate: bool, log: Optional[List[Tuple[Any, ...]]]
    ) -> Tuple[int, List[int]]:
        """Take up to ``count`` remap triggers, as :meth:`step_span` says,
        appending each step's starting registers to ``log`` if one is given.

        Returns the number of steps taken and, flat, ``(step, swap, a, b)``
        per movement: a swap of slots ``a`` and ``b``, or a copy from
        ``a`` to ``b``.  Every kind of step runs in this one loop, on the
        registers held in locals and the networks' round tables
        (:meth:`FeistelNetwork.scalar_ops`).
        """
        n = self.n_lines
        remapped = self.is_remapped
        marks: List[int] = [] if self._marks is None else self._marks
        gap, parked = self.gap, self.parked_la
        displaced, slot = self.displaced_la, self.displaced_slot
        done, total = self._n_remapped, self.total_movements
        enc_c, dec_c = self.feistel_c.scalar_ops()
        enc_p, dec_p = self.feistel_p.scalar_ops()
        # A swap chain keeps its pivot slot, and its next target
        # ENC_Kc(displaced) is the close check of the step before.
        target = pivot = -1
        if displaced is not None and slot is not None:
            target, pivot = enc_c(displaced), slot
        low = 0  # every line below it is marked (no mark is undone here)
        moves: List[int] = []
        for taken in range(count):
            if done == n and (taken or not rotate):
                break
            if log is not None:
                log.append((gap, parked, displaced, slot, done, total, len(marks)))
            total += 1
            if done == n:  # a round begins
                self._begin_round()
                gap, parked, done = self.gap, self.parked_la, self._n_remapped
                enc_c, dec_c = self.feistel_c.scalar_ops()
                enc_p, dec_p = self.feistel_p.scalar_ops()
                if parked is not None:  # [N] <- [0]
                    moves += (taken, False, 0, n)
                continue
            if parked is not None:
                # The first cycle: the line whose new home is the gap moves
                # in from its old home, which becomes the gap.  The cycle
                # closes when that line is the parked one, in the spare.
                la, dst = dec_c(gap), gap
                if la == parked:
                    gap, parked = n, None
                else:
                    gap = enc_p(la)
                moves += (taken, False, gap, dst)
            else:
                if displaced is None:  # a further cycle, from its lowest line
                    la = low = low + int(remapped[low:].argmin())
                    pivot, target = enc_p(la), enc_c(la)
                else:
                    la = displaced
                if target != pivot:  # not a fixed point, which stays put
                    # Swap the pivot slot, which holds la's data, with la's
                    # new home.  The line whose data the pivot receives is
                    # displaced, unless the pivot is its new home.
                    moves += (taken, True, pivot, target)
                    remapped[la] = True
                    done += 1
                    marks.append(la)
                    la = dec_p(target)
                    target = enc_c(la)
                    if target != pivot:
                        displaced, slot = la, pivot
                        continue
                    displaced = slot = None
            remapped[la] = True
            done += 1
            marks.append(la)
        else:
            taken = count
        self.gap, self.parked_la = gap, parked
        self.displaced_la, self.displaced_slot = displaced, slot
        self._n_remapped, self.total_movements = done, total
        return taken, moves

    def _begin_round(self) -> None:
        """Rotate keys, clear isRemap, start with slot 0's resident line:
        park it in the spare (``[N] <- [0]``, ``Gap <- 0``, per Fig. 9),
        or mark it if it is a fixed point."""
        self.feistel_p = self.feistel_c
        self.feistel_c = self.feistel_c.rekeyed(self._rng)
        self.is_remapped[:] = False
        self.round_count += 1
        la = self.feistel_p.scalar_ops()[1](0)
        if self.feistel_c.scalar_ops()[0](la) == 0:
            self.is_remapped[la] = True
            self._n_remapped = 1
            if self._marks is not None:
                self._marks.append(la)
        else:
            self._n_remapped = 0
            self.parked_la = la
            self.gap = 0

    # -------------------------------------------------------------- oracle

    def mapping_snapshot(self) -> List[int]:
        """Full LA → slot table (tests / small domains)."""
        return [self.translate(la) for la in range(self.n_lines)]
