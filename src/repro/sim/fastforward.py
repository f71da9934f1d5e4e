"""Analytic remap-round fast-forward — the third engine tier.

The chunk engine (:func:`repro.sim.engine.run_trace_fast`) already exploits
the static-mapping invariant *between remap events*; this module exploits it
one level up: across whole remap **rounds** the wear a known trace
distribution deposits has a closed form.  A :class:`TraceSpec` names that
distribution (instead of materialising its writes), the scheme turns
"``W`` writes of this spec" into a dense per-line wear increment
(:meth:`repro.wearlevel.base.WearLeveler.round_wear_profile`), and
:func:`run_fast_forward` commits increments of geometrically shrinking size
until the remaining endurance headroom is too small to jump safely — then
drops back to the chunk-exact engine (and through it the scalar one) so the
failing write is attributed exactly.

Error model (see docs/performance.md for the full derivation): exact counts
for deterministic trace kinds, Poisson-sampled expected rates for the
stochastic ones, so per-line wear keeps its natural balls-into-bins
fluctuations; the resulting lifetime error is O(sqrt(ln N / E)) relative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.pcm.timing import ALL1, LineData
from repro.sim.trace import TraceChunk, TraceEntry, ZipfSampler
from repro.util.rng import SeedLike, as_generator, derive_seed
from repro.wearlevel.base import WearLeveler

TRACE_KINDS = ("uniform", "zipf", "sequential", "raa")

#: Auto policy: engage the analytic tier only at scales where the chunk
#: engine is the bottleneck AND the statistical error bound is tight.
FF_AUTO_MIN_LINES = 1 << 18
FF_AUTO_MIN_ENDURANCE = 100_000

#: Target at most this fraction of the endurance headroom per round, so a
#: Poisson overshoot (refused by apply_wear_bulk) stays improbable.
HEADROOM_FRACTION = 0.5


@dataclass
class TraceSpec:
    """A synthetic trace *by distribution*, not by materialised writes.

    Stateful: :meth:`chunks` draws the same random stream as the matching
    generator in :mod:`repro.sim.trace` (same seed, same batch), advancing
    :attr:`pos`; the analytic driver instead *skips* writes with
    :meth:`skip`, so a chunk-exact tail resumes exactly where the analytic
    prefix left the trace position.

    Every engine tier accepts a spec: the scalar and chunk engines expand
    it through :meth:`chunks`/:meth:`entries`, the fast-forward driver
    hands it to the scheme whole.
    """

    kind: str
    n_lines: int
    n_writes: Optional[int] = None
    data: LineData = ALL1
    alpha: float = 1.2
    target: int = 0
    seed: SeedLike = None
    batch: int = 8192
    pos: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ValueError(
                f"unknown trace kind {self.kind!r}; expected one of {TRACE_KINDS}"
            )
        if self.n_lines < 1:
            raise ValueError("n_lines must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.kind == "zipf" and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.kind == "raa" and not 0 <= self.target < self.n_lines:
            raise ValueError(f"raa target {self.target} outside [0, {self.n_lines})")
        self._gen: Optional[np.random.Generator] = None
        self._zipf: Optional[ZipfSampler] = None

    # ------------------------------------------------------------ queries

    def remaining(self) -> Optional[int]:
        """Writes left in the stream (None = unbounded)."""
        if self.n_writes is None:
            return None
        return max(self.n_writes - self.pos, 0)

    def weights(self) -> Optional[np.ndarray]:
        """Per-LA write probabilities (zipf only; None = uniform/other)."""
        if self.kind != "zipf":
            return None
        return self._sampler().weights

    def _sampler(self) -> ZipfSampler:
        if self._zipf is None:
            self._zipf = ZipfSampler(self.n_lines, self.alpha)
        return self._zipf

    # ----------------------------------------------------------- consume

    def skip(self, n: int) -> None:
        """Advance the trace position by ``n`` writes without drawing them.

        Used by the analytic driver: the skipped writes' random draws are
        never made (their aggregate effect was applied in closed form), so
        a subsequent :meth:`chunks` tail continues the generator stream
        from wherever it stood — sequential phase stays exact.
        """
        if n < 0:
            raise ValueError("cannot skip a negative number of writes")
        self.pos += n

    def chunks(self) -> Iterator[TraceChunk]:
        """Chunked ``(las, datas)`` stream from the current position.

        At ``pos == 0`` this draws the identical stream as the matching
        generator in :mod:`repro.sim.trace` for the same seed and batch —
        which is what makes the small-scale equivalence suite's
        bit-identity comparisons meaningful.
        """
        if self._gen is None:
            self._gen = as_generator(self.seed)
        gen = self._gen
        datas_of = lambda size: np.full(size, int(self.data), dtype=np.int8)
        while self.n_writes is None or self.pos < self.n_writes:
            size = (
                self.batch
                if self.n_writes is None
                else min(self.batch, self.n_writes - self.pos)
            )
            if self.kind == "uniform":
                las = np.asarray(
                    gen.integers(0, self.n_lines, size=size), dtype=np.int64
                )
            elif self.kind == "zipf":
                las = self._sampler().draw(gen, size)
            elif self.kind == "sequential":
                las = (
                    np.arange(self.pos, self.pos + size, dtype=np.int64)
                    % self.n_lines
                )
            else:  # raa
                las = np.full(size, self.target, dtype=np.int64)
            self.pos += size
            yield las, datas_of(size)

    def entries(self) -> Iterator[TraceEntry]:
        """Scalar :class:`TraceEntry` stream (for the scalar engine)."""
        for las, _ in self.chunks():
            for la in las.tolist():
                yield TraceEntry(la=la, data=self.data)


# --------------------------------------------------------------- policy


def scheme_supports_fast_forward(scheme: WearLeveler) -> bool:
    """Does the scheme override the analytic round API at all?"""
    return (
        type(scheme).round_wear_profile is not WearLeveler.round_wear_profile
    )


def fast_forward_engaged(controller, trace, mode: str) -> bool:
    """Decide whether the analytic tier runs for this (controller, trace).

    ``mode`` is the ``fast_forward=`` argument: ``"off"`` never engages;
    ``"analytic"`` engages whenever it is *possible* (scheme has the API,
    no fault injection, no differential writes, trace is a spec);
    ``"auto"`` additionally requires paper-like scale
    (``n_lines >= 2**18`` and ``endurance >= 1e5``) — below that the chunk
    engine is fast enough and the equivalence suite's bit-identity
    guarantee holds because auto falls through to it.
    """
    if mode not in ("off", "auto", "analytic"):
        raise ValueError(f"fast_forward must be off/auto/analytic, got {mode!r}")
    if mode == "off" or not isinstance(trace, TraceSpec):
        return False
    if not scheme_supports_fast_forward(controller.scheme):
        return False
    config = controller.config
    if config.fault_injection_enabled or config.differential_writes:
        return False
    if mode == "analytic":
        return True
    return (
        controller.scheme.n_lines >= FF_AUTO_MIN_LINES
        and config.endurance >= FF_AUTO_MIN_ENDURANCE
    )


# --------------------------------------------------------------- driver


def run_fast_forward(
    controller,
    spec: TraceSpec,
    max_writes: Optional[int] = None,
    *,
    batch: Optional[int] = None,
):
    """Drive ``controller`` with ``spec`` through the analytic tier.

    Loop: pick a round size ``W`` targeting half the remaining endurance
    headroom, ask the scheme for the closed-form wear profile, draw the
    stochastic part as Poisson counts, and commit through
    ``apply_wear_bulk`` — which refuses (mutating nothing) if any line
    would cross its limit, in which case ``W`` halves and the round is
    redrawn.  When ``W`` falls below a floor (``max(8 * batch, n_lines //
    8)``) the remaining trace runs through the chunk-exact engine, which
    attributes the failing write exactly, so end-of-life behaviour is
    genuine, not modelled.  The Poisson draws come from their own stream,
    derived from the spec's seed when it is an int.

    Returns a :class:`repro.sim.engine.SimulationResult`; ``total_writes``
    and ``elapsed_ns`` are read from the controller, which both tiers
    advance cumulatively.
    """
    from repro.sim.engine import SimulationResult, run_trace_fast

    array = controller.array
    scheme = controller.scheme
    timing = array.timing
    if spec.n_lines != scheme.n_lines:
        raise ValueError(
            f"spec covers {spec.n_lines} lines but scheme exposes "
            f"{scheme.n_lines}"
        )
    if batch is None:
        batch = spec.batch
    floor = max(8 * batch, scheme.n_lines // 8)
    # Independent of the trace stream, reproducible from the spec seed.
    rng = derive_seed(spec.seed, "fast-forward") if isinstance(spec.seed, int) else None
    gen = as_generator(rng)

    if array.endurance_map is None:
        limit_min = float(controller.config.endurance)
    else:
        limit_min = float(array.endurance_map.min())

    n_scheme = scheme.n_physical
    user_writes = 0
    shrink = 1.0
    filled = False

    while not array.failed:
        budget: Optional[int] = spec.remaining()
        if max_writes is not None:
            left = max_writes - user_writes
            budget = left if budget is None else min(budget, left)
        if budget is not None and budget <= floor:
            break
        headroom = limit_min - array.max_wear
        if headroom <= 1:
            break
        # Optimistic initial guess: perfectly even spread over all lines,
        # filling HEADROOM_FRACTION of the headroom; the refinement loop
        # below corrects it against the profile's actual worst line.
        guess = int(headroom * HEADROOM_FRACTION * scheme.n_lines * shrink)
        if budget is not None:
            guess = min(guess, budget)
        profile = None
        for _ in range(8):
            if guess <= floor:
                profile = None
                break
            profile = scheme.round_wear_profile(spec, guess, timing)
            if profile is None:
                break
            worst = 0.0
            if profile.wear_counts is not None:
                worst += float(profile.wear_counts.max())
            if profile.wear_rates is not None:
                worst += float(profile.wear_rates.max())
            if worst <= HEADROOM_FRACTION * headroom:
                break
            # Damped correction: aim 10% under the target so the iteration
            # lands strictly inside it instead of converging onto the
            # boundary from above (the movement-wear constant in ``worst``
            # makes the undamped update a boundary fixed point, which
            # would abandon the analytic tier with headroom still worth
            # millions of chunk-engine writes).
            guess = max(
                int(
                    profile.writes
                    * 0.9
                    * HEADROOM_FRACTION
                    * headroom
                    / worst
                ),
                1,
            )
            profile = None
        if profile is None or guess <= floor:
            break
        counts = np.zeros(array.n_physical, dtype=np.int64)
        if profile.wear_counts is not None:
            counts[:n_scheme] += profile.wear_counts
        if profile.wear_rates is not None:
            counts[:n_scheme] += gen.poisson(profile.wear_rates)
        if not filled:
            # Steady-state data model: from here on every scheme-visible
            # line holds the trace's write data (docs/performance.md).
            array.fill_data(spec.data, n_scheme)
            filled = True
        if not array.apply_wear_bulk(counts, profile.elapsed_ns):
            # A line would cross its limit: halve the next attempt; once
            # the attempts shrink under the floor, the loop exits to the
            # chunk-exact tail, which finds the failing write for real.
            shrink *= 0.5
            if guess * shrink <= floor:
                break
            continue
        shrink = min(1.0, shrink * 2.0)
        # reprolint: disable=REP002 apply_wear_bulk already counted the round's time
        scheme.apply_round(profile)
        spec.skip(profile.writes)
        user_writes += profile.writes

    tail_budget = None if max_writes is None else max_writes - user_writes
    if (tail_budget is not None and tail_budget <= 0) or spec.remaining() == 0:
        return SimulationResult(
            user_writes=user_writes,
            total_writes=controller.total_writes,
            elapsed_ns=controller.elapsed_ns,
            failed=array.failed,
            failed_pa=array.first_failure.pa if array.failed else None,
        )
    tail = run_trace_fast(
        controller, spec.chunks(), max_writes=tail_budget, batch=batch
    )
    return SimulationResult(
        user_writes=user_writes + tail.user_writes,
        total_writes=tail.total_writes,
        elapsed_ns=tail.elapsed_ns,
        failed=tail.failed,
        failed_pa=tail.failed_pa,
    )
