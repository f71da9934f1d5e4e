"""Common interface for wear-leveling schemes.

The split of responsibilities mirrors a real memory controller:

* the *scheme* owns the address mapping and its registers/counters;
* the *controller* (:class:`repro.sim.memory_system.MemoryController`) owns
  the PCM array and executes the data movements the scheme requests,
  accounting wear and — crucially for the Remapping Timing Attack — latency.

``record_write`` returns the movements triggered by one logical write.  The
scheme's mapping state is already updated when the movements are returned,
so the caller must execute them (in order) before translating the write.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.fastforward import TraceSpec
    from repro.wearlevel.security_refresh import SRBank
    from repro.wearlevel.startgap import StartGapBank


def grouped_cumcount(groups: np.ndarray) -> np.ndarray:
    """Occurrence number (0-based) of each element within its group.

    ``grouped_cumcount([3, 1, 3, 3, 1]) == [0, 0, 1, 2, 1]``.  This is the
    primitive the region-partitioned schemes use to find the writes of a
    window that reach a region's remap trigger: element ``i`` is its
    region's ``occ[i]``-th write in the window.
    """
    n = int(groups.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    positions = np.arange(n, dtype=np.int64)
    group_start = positions.copy()
    group_start[1:] = np.where(
        sorted_groups[1:] != sorted_groups[:-1], positions[1:], 0
    )
    np.maximum.accumulate(group_start, out=group_start)
    occ = np.empty(n, dtype=np.int64)
    occ[order] = positions - group_start
    return occ


def walk_windows(
    bank: Union["StartGapBank", "SRBank"],
    las: np.ndarray,
    locate: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    translate: Callable[[np.ndarray, np.ndarray], np.ndarray],
    outer_remaining: Optional[Callable[[], int]] = None,
) -> Iterator[Tuple[np.ndarray, int]]:
    """:meth:`WearLeveler.chunk_runs` for a scheme built on ``bank``.

    The chunk walk every region-partitioned scheme shares.  A *window* is
    the stretch of writes before the scheme's next outer trigger (the
    write ``outer_remaining()`` writes ahead), or the rest of the chunk
    when the scheme has no outer level.  Inside a window the map from a
    write to its region is static: an inner movement changes the slot of
    one or two lines, never the region a write counts in (§IV).  So each
    window is located once (``locate``: writes to ``(regions, locals)``;
    region ``-1`` marks a write no region counts, Security RBSG's outer
    spare slot) and :func:`grouped_cumcount`-ed once, and write ``i`` fires
    its region's inner movement iff ``(write_count[r] + occ[i] + 1) %
    remap_interval == 0`` — every trigger of the window, not just the
    first.

    Yields the remap-free runs between those boundary writes.  A run's
    writes are added to ``bank.write_count`` just before its yield and
    translated then (``translate``), with the bank's current registers,
    so a run sees the movements earlier boundary writes made.  The last
    run of a window ending before its outer trigger is followed by that
    trigger write.
    """
    size = int(las.size)
    interval = bank.remap_interval
    n_regions = bank.write_count.size
    pos = 0
    while pos < size:
        end = size
        if outer_remaining is not None:
            end = min(size, pos + outer_remaining() - 1)
        regions, locals_ = locate(las[pos:end])
        counted = regions >= 0
        counts = bank.write_count[regions] + grouped_cumcount(regions) + 1
        fires = counted & (counts % interval == 0)
        start = 0
        for stop in np.flatnonzero(fires).tolist() + [end - pos]:
            run = slice(start, stop)
            bank.write_count += np.bincount(
                regions[run][counted[run]], minlength=n_regions
            )
            yield translate(regions[run], locals_[run]), stop - start
            start = stop + 1
        pos = end + 1


def spread_even(totals: np.ndarray, width: int) -> np.ndarray:
    """Each of ``totals`` spread over its own ``width`` consecutive slots.

    Region-major concatenation of ``spread_exact(np.full(width, t / width),
    t)`` for every ``t``: ``t // width`` per slot, plus one on the first
    ``t % width`` slots (equal fractions break ties by lower index).
    """
    totals = np.asarray(totals, dtype=np.int64)
    laps, rem = np.divmod(totals, width)
    extra = np.arange(width) < rem[:, None]
    return (laps[:, None] + extra).ravel()


@dataclass(frozen=True)
class CopyMove:
    """Copy the content of physical line ``src`` to physical line ``dst``.

    Cost model (Fig. 4a): one read of ``src`` plus one write of ``dst`` with
    ``src``'s data — 250 ns for ALL-0 content, 1125 ns otherwise.
    """

    src: int
    dst: int


@dataclass(frozen=True)
class SwapMove:
    """Exchange the contents of two physical lines (Security Refresh).

    Cost model (Fig. 4b): two reads plus two writes — 500/1375/2250 ns
    depending on the two contents.
    """

    pa_a: int
    pa_b: int


Move = Union[CopyMove, SwapMove]


def spread_exact(expected: np.ndarray, total: int) -> np.ndarray:
    """Integer wear counts summing to ``total`` that round ``expected``.

    Floor each slot's expected count, then hand the remaining units to the
    slots with the largest fractional parts (ties broken by lower index).
    This is the "two-pass-exact" discretization the deterministic trace
    kinds (sequential, RAA) use: the aggregate is exact and no slot is off
    by more than one write.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    floors = np.floor(expected).astype(np.int64)
    short = total - int(floors.sum())
    if short < 0:
        raise ValueError("expected counts sum above total")
    if short > 0:
        frac = expected - floors
        top = np.argsort(-frac, kind="stable")[:short]
        floors[top] += 1
    return floors


@dataclass(frozen=True)
class RoundProfile:
    """Closed-form wear increment for a run of remap rounds.

    Produced by :meth:`WearLeveler.round_wear_profile` and committed by
    :meth:`WearLeveler.apply_round`.  The profile describes what ``writes``
    logical writes of a known trace distribution do to the device while the
    scheme's mapping evolves through zero or more remap rounds:

    ``wear_counts``
        Dense per-PA *exact* wear (``int64``, length ``n_physical``) — the
        deterministic part: remap movement wear and deterministic trace
        kinds (sequential sweeps, RAA).  ``None`` means all-zero.
    ``wear_rates``
        Dense per-PA *expected* wear (``float64``) for the stochastic part
        of the round; the driver draws ``Poisson(wear_rates)`` so per-line
        wear keeps its natural balls-into-bins fluctuations.  ``None``
        means the profile is fully deterministic (``exact`` is then True).
    ``elapsed_ns``
        Expected simulated time for the round: user-write latency plus
        remap movement latency, computed from the controller's timing
        model.  Returned again by ``apply_round`` so callers account it.
    ``meta``
        Scheme-private advance payload (movement counts, completed rounds)
        carried from profile construction to :meth:`apply_round`.
    """

    writes: int
    elapsed_ns: float
    wear_counts: Optional[np.ndarray] = None
    wear_rates: Optional[np.ndarray] = None
    exact: bool = False
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.writes <= 0:
            raise ValueError(f"profile writes must be > 0, got {self.writes}")
        if self.wear_counts is None and self.wear_rates is None:
            raise ValueError("profile needs wear_counts and/or wear_rates")


class WearLeveler(abc.ABC):
    """Base class for all wear-leveling schemes.

    Attributes
    ----------
    n_lines:
        Number of logical lines the scheme exposes.
    n_physical:
        Number of physical lines the scheme requires (logical lines plus
        any gap/spare lines).
    """

    n_lines: int
    n_physical: int

    @abc.abstractmethod
    def translate(self, la: int) -> int:
        """Map logical address ``la`` to its current physical address."""

    @abc.abstractmethod
    def record_write(self, la: int) -> List[Move]:
        """Account one logical write to ``la``; return triggered movements.

        The returned movements reflect remappings whose effect is *already*
        visible through :meth:`translate`.
        """

    # ------------------------------------------------------- batched API
    #
    # The fast simulation engine exploits the schemes' shared structure:
    # between remap triggers the LA→PA mapping is *static*, so a chunk of
    # writes can be translated and accounted as numpy array operations.
    # The contract has three parts; `chunk_runs` composes them and is
    # what the controller actually drives.

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`translate` of in-range addresses.

        The default loops the scalar method (correct for any scheme);
        every shipped scheme overrides it with array arithmetic.  Bounds
        are the caller's responsibility (the controller validates whole
        chunks at once).
        """
        return np.fromiter(
            (self.translate(int(la)) for la in las),
            dtype=np.int64,
            count=int(las.size),
        )

    def writes_until_next_remap(self) -> int:
        """``k``: the ``k``-th next write *may* trigger a remap.

        The first ``k - 1`` writes are guaranteed remap-free regardless of
        their addresses.  The base class returns 1 — "the very next write
        may remap" — the *conservative fallback*: always safe, and it makes
        the chunk engine degrade transparently to the scalar path one write
        at a time.  Schemes with countable triggers return their real
        counter distance; region-partitioned schemes keep this default and
        override :meth:`chunk_runs` with their exact per-address walk.

        The analytic fast-forward tier mirrors exactly this contract one
        level up: :meth:`round_wear_profile` returning ``None`` is the
        round-granular analogue of returning 1 here — "I cannot promise
        anything about whole rounds; drive me through the chunk (and
        ultimately scalar) path instead."  A scheme that overrides neither
        method still simulates correctly, just without the speedups.
        """
        return 1

    # -------------------------------------------------- fast-forward API
    #
    # One more rung up the same ladder: between remap *events* the mapping
    # is static (the chunk contract above), and across a whole remap
    # *round* the wear deposited by a known trace distribution has a
    # closed form.  `round_wear_profile` returns that closed form as a
    # dense per-PA increment (exact counts, expected rates, or both) and
    # `apply_round` commits the matching mapping-state jump.  See
    # repro.sim.fastforward for the driver and docs/performance.md for
    # the error-bound model.

    def round_wear_profile(
        self,
        spec: "TraceSpec",
        writes: int,
        timing: "TimingModel",
    ) -> Optional[RoundProfile]:
        """Closed-form wear profile for ``writes`` writes of ``spec``.

        Returns ``None`` — the conservative fallback mirroring the base
        :meth:`writes_until_next_remap` contract — when the scheme cannot
        (or chooses not to) describe the requested trace analytically; the
        fast-forward driver then drops back to the chunk-exact engine,
        which is always correct.  Schemes that do return a profile may
        clip ``profile.writes`` below the requested ``writes`` (e.g. to a
        key-rotation boundary); the driver honors the clip.
        """
        return None

    def apply_round(self, profile: RoundProfile) -> float:
        """Commit the mapping-state jump described by ``profile``.

        Called by the fast-forward driver *after* the wear increment was
        accepted by :meth:`repro.pcm.array.PCMArray.apply_wear_bulk`.
        Returns the round's ``elapsed_ns`` — simulated latency the caller
        must account, exactly like the scalar/batched write paths.  The
        base class raises: a scheme that never returns a profile from
        :meth:`round_wear_profile` is never asked to apply one.
        """
        raise NotImplementedError(
            f"{type(self).__name__} returned no round profile; "
            "apply_round must not be called"
        )

    def record_writes_many(self, las: np.ndarray) -> None:
        """Account a run of writes *known* to trigger no remap.

        Only valid for the remap-free runs established by
        :meth:`writes_until_next_remap` / :meth:`chunk_runs`.  The
        default loops :meth:`record_write` and insists nothing fires.
        """
        for la in las:
            if self.record_write(int(la)):
                raise RuntimeError(
                    "record_writes_many crossed a remap trigger; "
                    "writes_until_next_remap over-promised"
                )

    def chunk_runs(self, las: np.ndarray) -> Iterator[Tuple[np.ndarray, int]]:
        """Walk a chunk of writes as remap-free runs and boundary writes.

        Yields ``(pas, n)`` for the next ``n >= 0`` writes of ``las``:
        their physical addresses, with their counters already advanced.
        After each run except one that reaches the end of ``las``, the
        caller issues the next write through the scalar
        :meth:`record_write`/:meth:`translate` path (executing its
        movements), then resumes the generator.  The generator changes
        state only just before a yield, so every movement and RNG draw
        happens in scalar order and an abandoned walk (a line failure
        mid-chunk) leaves the scalar path's mapping.

        Each run is translated against the state at its yield, which
        equals the per-write state because no remap fires inside it — the
        static-mapping invariant the fast engine is built on.
        """
        pos, size = 0, int(las.size)
        while pos < size:
            n = max(0, min(size - pos, self.writes_until_next_remap() - 1))
            pas = np.empty(0, dtype=np.int64)
            if n:
                run = las[pos : pos + n]
                pas = self.translate_many(run)
                self.record_writes_many(run)
            yield pas, n
            pos += n + 1

    def consume_chunk(self, las: np.ndarray) -> Tuple[np.ndarray, int]:
        """The first run of :meth:`chunk_runs`: ``(pas, n)`` for the longest
        remap-free prefix of ``las``, whose counters are now advanced.

        ``n == 0`` means the very next write may remap.
        """
        return next(self.chunk_runs(las), (np.empty(0, dtype=np.int64), 0))

    # ------------------------------------------------------------- helpers

    def _check_la(self, la: int) -> None:
        if not 0 <= la < self.n_lines:
            raise ValueError(f"logical address {la} outside [0, {self.n_lines})")

    def mapping_snapshot(self) -> List[int]:
        """Full LA→PA table under the current state (tests / small configs)."""
        return [self.translate(la) for la in range(self.n_lines)]
