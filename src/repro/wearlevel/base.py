"""Common interface for wear-leveling schemes.

The split of responsibilities mirrors a real memory controller:

* the *scheme* owns the address mapping and its registers/counters;
* the *controller* (:class:`repro.sim.memory_system.MemoryController`) owns
  the PCM array and executes the data movements the scheme requests,
  accounting wear and — crucially for the Remapping Timing Attack — latency.

``record_write`` returns the movements triggered by one logical write.  The
scheme's mapping state is already updated when the movements are returned,
so the caller must execute them (in order) before translating the write.

``chunk_runs`` is the batched twin: it walks a chunk of writes as
:class:`Window` s, each a list of user writes with the movements between
them (:data:`Moves`) that the array applies in one call
(:meth:`repro.pcm.array.PCMArray.write_events`).  The
region-partitioned schemes share one closed-form walk,
:func:`walk_windows`.
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
    NamedTuple,
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


#: Keys from which :func:`sorted_composites` sorts the composites
#: themselves: below about 512 keys numpy's stable argsort is faster.
SORT_MIN = 512


def sorted_composites(keys: np.ndarray) -> Tuple[np.ndarray, int]:
    """The composites ``(keys[i] << shift) + i`` of ``n`` integer keys,
    sorted, and ``shift``, the bit length of ``n``.

    No two are equal, and composite ``c`` holds key ``c >> shift`` at index
    ``c & ((1 << shift) - 1)`` (negative keys such as region ``-1`` decode
    too): in sorted order the indices are ``np.argsort(keys,
    kind="stable")``, and the occurrences of key ``k`` before index
    ``i <= n`` are the composites in ``[(k << shift), (k << shift) + i)``,
    so one ``searchsorted`` answers such a query for all of them.  The
    composites stay below 2^63 while ``max |keys| << shift`` does: about
    2^37 for the line addresses of a 2^23-line device in 8192-write
    chunks.  A shift and a mask decode them several times faster than a
    division by ``n``.
    """
    n = int(keys.size)
    shift = n.bit_length()
    if n < SORT_MIN:
        order = np.argsort(keys, kind="stable")
        return (keys[order] << shift) + order, shift
    composite = (keys << shift) + np.arange(n)
    composite.sort()  # distinct by the index term: no ties to order
    return composite, shift


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, from :func:`sorted_composites`."""
    composite, shift = sorted_composites(keys)
    return composite & ((1 << shift) - 1)


def grouped_cumcount(groups: np.ndarray) -> np.ndarray:
    """Occurrence number (0-based) of each element within its group.

    ``grouped_cumcount([3, 1, 3, 3, 1]) == [0, 0, 1, 2, 1]``: element ``i``
    is its group's ``occ[i]``-th occurrence in array order.  The region
    banks find a window's remap triggers with it, and the array the
    running wear count of each line.
    """
    n = int(groups.size)
    composite, shift = sorted_composites(groups)
    sorted_groups = composite >> shift
    # Each element's sorted position minus its group's first position; the
    # groups' bounds are where adjacent sorted groups differ.
    bound = np.ones(n + 1, dtype=bool)
    np.not_equal(sorted_groups[1:], sorted_groups[:-1], out=bound[1:n])
    bounds = bound.nonzero()[0]
    first = np.repeat(bounds[:-1], bounds[1:] - bounds[:-1])
    occ = np.empty(n, dtype=np.int64)
    occ[composite & ((1 << shift) - 1)] = np.arange(n) - first
    return occ


def counts_before(
    regions: np.ndarray, fired: np.ndarray, rs: np.ndarray, ps: np.ndarray
) -> np.ndarray:
    """How many of the writes ``fired`` (positions into ``regions``,
    ascending) belong to region ``rs[j]`` and come before position
    ``ps[j]``, for every ``j``: one ``searchsorted`` over the fired writes'
    ``(region, position)`` keys."""
    stride = int(regions.size) + 1
    keys = np.sort(regions[fired] * stride + fired)  # distinct: no ties to order
    base = rs * stride
    found = np.searchsorted(keys, np.concatenate((base + ps, base)))
    return found[: rs.size] - found[rs.size :]


#: ``(at, swap, a, b)``: remap movements as arrays, in execution order.
#: Movement ``m`` runs just before user write ``at[m]``: a swap of lines
#: ``a[m]`` and ``b[m]`` when ``swap[m]``, else a copy of ``a[m]`` to ``b[m]``.
Moves = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
NO_MOVES: Moves = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=bool),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
)


class Window(NamedTuple):
    """One window of a chunk walk (:meth:`WearLeveler.chunk_runs`).

    ``pas`` holds the physical address of each of the window's user
    writes, under the registers current at that write.  ``moves`` holds
    the remap movements between them as ``(at, swap, a, b)`` arrays, in
    execution order (:mod:`repro.pcm.events`).  ``commit(k)`` advances
    the scheme over the window's first ``k`` writes, the ones the array
    performed; the caller calls it before resuming the walk.
    """

    pas: np.ndarray
    moves: Moves
    commit: Callable[[int], None]


class Span(NamedTuple):
    """An outer level pre-stepped over the writes of a chunk from one
    position on, for :func:`walk_windows`.

    ``regions``/``locals_`` locate each write of the span under the outer
    mapping of its own epoch, the steps before it taken and none after
    (region ``-1``: counted by no region).  Outer movement ``m`` runs just
    before write ``at[m]``, ahead of that write's inner movement: a swap
    of its two ends when ``swap[m]``, else a copy from the first end to
    the second.  ``ends`` locates the first ends of all movements, then
    their second ends, as ``(regions, locals_)``; region ``-1`` is the
    outer spare line.  ``commit(k)`` keeps the steps of the span's first
    ``k`` writes and rolls back the rest.
    """

    regions: np.ndarray
    locals_: np.ndarray
    at: np.ndarray
    swap: np.ndarray
    ends: Tuple[np.ndarray, np.ndarray]
    commit: Callable[[int], None]


class BankWindow(NamedTuple):
    """A region bank's closed-form window (``StartGapBank.window``,
    ``SRBank.window``).

    The window holds the first ``len(pas)`` writes it was given: ``pas``
    their physical addresses, ``moves`` the inner movements between them.
    ``commit(k)`` advances the bank over the first ``k``.
    ``slots_before(regions, locals_, at)`` is the bank slot of each
    ``(regions[j], locals_[j])`` just before write ``at[j]`` runs, its own
    movement not yet made.
    """

    pas: np.ndarray
    moves: Moves
    commit: Callable[[int], None]
    slots_before: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _commit_nothing(k: int) -> None:
    """Commit of a window whose writes were already recorded."""


#: A window of one write that goes through the scalar ``controller.write``
#: (``record_write``, its movements, ``translate``): the base walk's write
#: after each remap-free run.
SCALAR_WRITE = Window(None, NO_MOVES, _commit_nothing)  # type: ignore[arg-type]


def static_span(regions: np.ndarray, locals_: np.ndarray) -> Callable[[int], Span]:
    """The spans of a scheme without an outer level: the located chunk
    from the given write on, with no outer movement."""
    none = np.empty(0, dtype=np.int64)
    return lambda lo: Span(
        regions[lo:], locals_[lo:], none, NO_MOVES[1], (none, none), _commit_nothing
    )


def walk_windows(
    bank: Union["StartGapBank", "SRBank"],
    size: int,
    span: Callable[[int], Span],
    lead: bool = False,
    spare_pa: int = -1,
) -> Iterator[Window]:
    """:meth:`WearLeveler.chunk_runs` for a scheme built on ``bank``.

    The chunk walk every region-partitioned scheme shares, over a chunk of
    ``size`` writes.  ``span(lo)`` pre-steps the scheme's outer level over
    the writes from ``lo`` on, as far as it goes (:class:`Span`): to the
    chunk's end, or to a key rotation.  A scheme without an outer level
    gives the located chunk (:func:`static_span`).  With ``lead`` (the
    chunk opens on an outer trigger) the walk first yields an empty
    window, so a walk abandoned there has changed nothing.  Per span:

    * the bank computes the inner movements and every write's physical
      address in closed form from its registers (``bank.window``).  Inside
      a span a write's region only changes at an outer step: an inner
      movement changes the slot of one or two lines, never the region a
      write counts in (§IV).  Region ``-1`` marks a write no region counts
      (Security RBSG's outer spare slot, physical line ``spare_pa``).  An
      SR bank ends the window right after a trigger that completes a key
      round, so its key draw happens at commit, in scalar order;
    * each outer movement the window reaches goes through the inner
      mapping as it stands at its position (``slots_before``), and runs
      ahead of the inner movement of its write;
    * ``commit(k)`` keeps the outer steps of the ``k`` writes the array
      performed, rolls back the others, then advances the bank.  Outer
      first: on the same write the outer level draws its key before the
      inner one, as on the scalar path.
    """
    if lead and size:
        yield Window(np.empty(0, dtype=np.int64), NO_MOVES, _commit_nothing)
    pos = 0
    while pos < size:
        outer = span(pos)
        inner = bank.window(outer.regions, outer.locals_)
        pas, moves = inner.pas, inner.moves
        n = int(pas.size)
        if spare_pa >= 0:
            pas[outer.regions[:n] < 0] = spare_pa
        reached = outer.at < n
        if reached.any():
            at = outer.at[reached]
            both = np.concatenate((reached, reached))
            regions, locals_ = outer.ends[0][both], outer.ends[1][both]
            ends = inner.slots_before(regions, locals_, np.concatenate((at, at)))
            ends[regions < 0] = spare_pa
            columns = (at, outer.swap[reached], ends[: at.size], ends[at.size :])
            merged = [np.concatenate(pair) for pair in zip(columns, moves)]
            order = np.argsort(merged[0], kind="stable")  # outer first on a tie
            moves = tuple(column[order] for column in merged)  # type: ignore[assignment]

        def commit(
            k: int,
            keep: Callable[[int], None] = outer.commit,
            advance: Callable[[int], None] = inner.commit,
        ) -> None:
            keep(k)
            advance(k)

        yield Window(pas, moves, commit)
        pos += n


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
    # The base contract has three parts; the base `chunk_runs` composes
    # them, and the region schemes replace it with `walk_windows`.  It is
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

    def chunk_runs(self, las: np.ndarray) -> Iterator[Window]:
        """Walk a chunk of writes as windows of ordered events.

        Yields one :class:`Window` at a time: the physical addresses of
        its user writes, the remap movements between them, and the
        ``commit(k)`` the caller calls with the number of writes the array
        performed before it resumes the walk.  Every movement and RNG draw
        happens in scalar order, and a walk abandoned at a line failure
        leaves the scalar path's state once the failing write is
        committed.

        The base default is conservative: it alternates remap-free runs
        (``writes_until_next_remap`` → ``translate_many``, committed with
        ``record_writes_many``) with :data:`SCALAR_WRITE`, which hands the
        write after each run, one that may remap, to the scalar
        ``controller.write`` path.  Region-partitioned schemes override
        this with :func:`walk_windows`.
        """
        pos, size = 0, int(las.size)
        while pos < size:
            n = max(0, min(size - pos, self.writes_until_next_remap() - 1))
            if n:
                run = las[pos : pos + n]
                yield Window(
                    self.translate_many(run),
                    NO_MOVES,
                    lambda k, run=run: self.record_writes_many(run[:k]),
                )
                pos += n
            if pos < size:
                yield SCALAR_WRITE
                pos += 1

    def consume_chunk(self, las: np.ndarray) -> Tuple[np.ndarray, int]:
        """``(pas, n)`` for the writes of ``las`` before the first remap
        movement of :meth:`chunk_runs`' first window, now counted.

        ``n == 0`` means the very next write may move data.
        """
        window = next(self.chunk_runs(las), None)
        if window is None or window is SCALAR_WRITE:
            return np.empty(0, dtype=np.int64), 0
        at = window.moves[0]
        n = int(at[0]) if at.size else int(window.pas.size)
        window.commit(n)
        return window.pas[:n], n

    # ------------------------------------------------------------- helpers

    def _check_la(self, la: int) -> None:
        if not 0 <= la < self.n_lines:
            raise ValueError(f"logical address {la} outside [0, {self.n_lines})")

    def mapping_snapshot(self) -> List[int]:
        """Full LA→PA table under the current state (tests / small configs)."""
        return [self.translate(la) for la in range(self.n_lines)]
