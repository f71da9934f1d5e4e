"""Ordered event lists: user writes and remap movements as line writes.

The chunk engine hands the array a *window* of the trace: ``n`` user writes
plus the remap movements their scheme triggered, in the order the scalar
controller would execute them (:data:`~repro.wearlevel.base.Moves`:
movement ``m`` runs just before user write ``at[m]``).

A movement is its reads plus line writes whose data is the source line's
content *at the movement's position* in the list: a copy is one line write
``b <- a``, a swap two, ``a <- b`` then ``b <- a``, both reading the state
before the swap.  :class:`EventPlan` resolves that data once per movement,
through the last earlier write to the source line (a user write, found
for every movement at once by searching its read among the user writes'
``(line, index)`` composites, sorted once, or an earlier movement), else
the array's stored content.  Movements read each other's writes, so that
last step is a loop over the movements.

Wear counts and the latency sum do not depend on the order of the writes
(latencies are integer-valued ns, so the float sum is exact in any order),
and stored data only needs each line's last write.  So a window that cannot
fail is applied without ever interleaving the two lists.  When a failure is
possible, or differential writes make latency depend on the data each
write overwrites, :meth:`EventPlan.lines` flattens the list into its line
writes in execution order: the old data of each comes from the previous
write to its line, and a running count per line finds the first line write
that reaches its endurance (:meth:`EventPlan.first_failure`).  Asked for
each user write's latency, the plan adds every line write's latency, a
movement's reads included, to the user write it belongs to
(:meth:`EventPlan.charge_moves`, :meth:`EventPlan.charge_lines`).

:class:`~repro.pcm.array.OrderedWrites` applies a plan to either array.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.wearlevel.base import (
    Moves,
    grouped_cumcount,
    sorted_composites,
    stable_order,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.array import OrderedWrites

#: The scalar call that replays one event: ``(kind, x, y)``.
Event = Tuple[str, int, int]


class EventPlan:
    """An event list with its movement data resolved.

    ``move_dst``/``move_value`` hold the movements' line writes in order
    (destination line and the data it receives), ``final`` the movement
    writes that are their line's last write in the list.  Reads the array
    but changes nothing.
    """

    def __init__(
        self, array: "OrderedWrites", pas: np.ndarray, datas: np.ndarray, moves: Moves
    ) -> None:
        self.array = array
        self.pas, self.datas, self.moves = pas, datas, moves
        self.move_dst = np.empty(0, dtype=np.int64)
        self.move_value = np.empty(0, dtype=np.int8)
        self.final: Tuple[np.ndarray, np.ndarray] = (self.move_dst, self.move_value)
        if moves[0].size:
            self._resolve()

    def _resolve(self) -> None:
        at, swap, a, b = self.moves
        n = int(self.pas.size)
        # Each movement's line writes in order, as (destination, source):
        # a swap writes a <- b then b <- a, a copy b <- a.
        width = 1 + swap
        owner = np.repeat(np.arange(at.size), width)
        dst, src, pos = b[owner], a[owner], at[owner]
        lead = (np.cumsum(width) - width)[swap]  # a swap's first write
        dst[lead], src[lead] = a[swap], b[swap]
        # The lines the movements touch, and the last user write to a line
        # before every read and before the end: among the user writes'
        # sorted (line, index) composites, the one just below (line,
        # position), or (line, n), when it holds the same line.
        touched = np.sort(np.concatenate((a, b)))
        lines = touched[np.concatenate(([True], touched[1:] != touched[:-1]))]
        composite, shift = sorted_composites(self.pas)
        reads = np.concatenate((src, lines))
        ends = np.concatenate((pos, np.full(lines.size, n)))
        found = np.searchsorted(composite, (reads << shift) + ends) - 1
        last = composite[np.maximum(found, 0)]
        user = last & ((1 << shift) - 1)
        user[(found < 0) | (last >> shift != reads)] = -1
        src_slot = np.searchsorted(lines, src)
        stored = self.array._data_of(lines)
        read = user[: src.size]
        value = np.where(read >= 0, self.datas[read], stored[src_slot]).tolist()
        # Movements read each other's writes: a source's last movement
        # write wins over its last user write when it comes later (a
        # movement runs just before the user write at its position).
        moved_data = [0] * lines.size
        moved_at = [-1] * lines.size
        sources, before, positions = src_slot.tolist(), read.tolist(), pos.tolist()
        targets = np.searchsorted(lines, dst).tolist()
        k = 0
        for w in width.tolist():
            for r in range(k, k + w):  # a swap reads both lines first
                if moved_at[sources[r]] > before[r]:
                    value[r] = moved_data[sources[r]]
            for r in range(k, k + w):
                moved_data[targets[r]] = value[r]
                moved_at[targets[r]] = positions[r]
            k += w
        self.move_dst = dst
        self.move_value = np.array(value, dtype=np.int8)
        last_at = np.array(moved_at, dtype=np.int64)
        final = last_at > user[src.size :]
        self.final = (lines[final], np.array(moved_data, dtype=np.int8)[final])

    def wear_pas(self) -> np.ndarray:
        """Every line write's destination, in no particular order."""
        if not self.move_dst.size:
            return self.pas
        return np.concatenate((self.pas, self.move_dst))

    def charge_moves(self, out: np.ndarray) -> None:
        """Add each movement's latency, reads included, to ``out`` at the
        user write it runs before."""
        if not self.move_dst.size:
            return
        timing = self.array.timing
        cost = timing.latency_table[self.move_value] + timing.read_latency()
        owner = np.repeat(self.moves[0], 1 + self.moves[1])
        out += np.bincount(owner, weights=cost, minlength=out.size)

    # ------------------------------------------------- flattened in order

    def lines(self) -> None:
        """Flatten the list into its line writes in execution order.

        Sets ``size`` (line writes ``K``), ``dst``/``value``/``latency``,
        ``moved`` (a movement's write) and ``wears`` (``None``: every write
        wears) per line write, and the line-write index of each user write
        and movement.
        """
        array = self.array
        timing = array.timing
        at, swap = self.moves[0], self.moves[1]
        n = int(self.pas.size)
        widths = np.concatenate(([0], np.cumsum(1 + swap)))
        before = np.cumsum(np.bincount(at, minlength=n)[:n])  # movements at <= i
        self.user_line = np.arange(n) + widths[before]
        self.move_line = at + widths[:-1]
        self.size = n + int(widths[-1])
        self.dst = np.empty(self.size, dtype=np.int64)
        self.value = np.empty(self.size, dtype=np.int8)
        self.dst[self.user_line] = self.pas
        self.value[self.user_line] = self.datas
        self.moved = moved = np.ones(self.size, dtype=bool)
        moved[self.user_line] = False
        self.dst[moved] = self.move_dst
        self.value[moved] = self.move_value
        if array.config.differential_writes:
            old = self._old_data()
            self.latency = timing.transition_latency_table[old, self.value]
            self.wears: Optional[np.ndarray] = timing.transition_wears_table[
                old, self.value
            ]
        else:
            self.latency = timing.latency_table[self.value]
            self.wears = None

    def _old_data(self) -> np.ndarray:
        """Content each line write overwrites, honouring earlier writes."""
        order = stable_order(self.dst)
        sorted_dst = self.dst[order]
        first = np.ones(self.size, dtype=bool)
        first[1:] = sorted_dst[1:] != sorted_dst[:-1]
        old_sorted = np.empty(self.size, dtype=np.int8)
        old_sorted[first] = self.array._data_of(sorted_dst[first])
        repeats = np.flatnonzero(~first)
        old_sorted[repeats] = self.value[order[repeats - 1]]
        old = np.empty(self.size, dtype=np.int8)
        old[order] = old_sorted
        return old

    def charge_lines(self, out: np.ndarray, lo: int, hi: int) -> None:
        """Add the latency of line writes ``[lo, hi)``, a movement's read
        included, to ``out`` at the user write each belongs to.  Needs
        :meth:`lines`."""
        users = ~self.moved[:hi]
        owner = (np.cumsum(users) - users)[lo:]  # user writes before each
        cost = self.latency[lo:hi] + self.array.timing.read_latency() * self.moved[lo:hi]
        out += np.bincount(owner, weights=cost, minlength=out.size)

    def reads_between(self, lo: int, hi: int) -> int:
        """Line reads of the movements whose writes start in ``[lo, hi)``:
        one per copy, two per swap.  Needs :meth:`lines`."""
        first, last = np.searchsorted(self.move_line, (lo, hi))
        return int(last - first) + int(np.count_nonzero(self.moves[1][first:last]))

    def first_failure(self) -> Optional[Tuple[int, int, Event, int]]:
        """The event holding the first line write that wears its line out.

        Returns ``(lo, hi, event, owner)``: its line writes ``[lo, hi)``,
        the scalar call that replays it, and the user write it belongs to.
        ``None`` when the list completes.  Needs :meth:`lines`.
        """
        array = self.array
        wearing = (
            np.arange(self.size) if self.wears is None else np.flatnonzero(self.wears)
        )
        lines = self.dst[wearing]
        count = array._wear_of(lines) + grouped_cumcount(lines) + 1
        reached = count >= array._limit_of(lines)
        if not reached.any():
            return None
        k = int(wearing[int(np.argmax(reached))])
        owner = int(np.searchsorted(self.user_line, k))
        if owner < self.pas.size and int(self.user_line[owner]) == k:
            event = ("write", int(self.pas[owner]), int(self.datas[owner]))
            return k, k + 1, event, owner
        at, swap, a, b = self.moves
        m = int(np.searchsorted(self.move_line, k, side="right")) - 1
        lo = int(self.move_line[m])
        kind = "swap" if swap[m] else "copy"
        return lo, lo + 1 + int(swap[m]), (kind, int(a[m]), int(b[m])), int(at[m])
