"""Serial AMR simulation driver.

Orchestrates the cycle the paper's simulations ran:

1. fill ghost cells (exchange + physical BC);
2. advance every block by one time step (midpoint two-stage for
   second order, with a ghost refresh between stages so block-boundary
   fluxes stay consistent) — with one global CFL-limited dt, or, when
   subcycling, level by level with each level's own dt;
3. every ``adapt_interval`` steps, evaluate the refinement criterion,
   adapt the forest (cascading refinement, vetoed coarsening), and
   refresh connectivity — the blocks-adapt-less-frequently advantage is
   exactly this interval.

Phase timings are accumulated in a :class:`repro.util.timing.PhaseTimer`
so the benchmarks can attribute cost to compute / exchange / adaptation.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.amr.config import SimulationConfig
from repro.analysis.poison import quiet_poison
from repro.core.block_id import BlockID
from repro.core.forest import AdaptSummary, BlockForest
from repro.core.ghost import BoundaryHandler, fill_ghosts, ghost_plan
from repro.core.refine_criteria import RefinementCriterion, compute_flags
from repro.obs.metrics import METRICS
from repro.solvers.scheme import FVScheme
from repro.solvers.sweep import PoolSweep, tile_rows
from repro.solvers.timestep import stable_dt_batched
from repro.util.timing import PhaseTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.block import Block
    from repro.obs.recorder import RunRecorder
    from repro.resilience.scrub import Scrubber

__all__ = ["Simulation", "StepRecord", "level_divisors"]

#: Hook called once per step after the hyperbolic update:
#: ``hook(sim, dt)``.  Used for inner-boundary resets (solar wind body),
#: driven perturbations (CME launch), and mass-loading sources (comet).
StepHook = Callable[["Simulation", float], None]


def level_divisors(levels: List[int]) -> Dict[int, int]:
    """Substep divisor per *present* level (sparse-level aware).

    The coarsest present level takes one substep per coarse step; each
    next finer present level takes ``2^delta`` substeps of its
    predecessor's, where ``delta`` is the (possibly > 1) level gap.
    """
    divisor = {lvl: 1 for lvl in levels}
    for prev, cur in zip(levels, levels[1:]):
        divisor[cur] = divisor[prev] * (1 << (cur - prev))
    return divisor


def _substeps(
    groups: List[int], t0: float, dt: float
) -> Iterator[Tuple[int, float, float]]:
    """``(group, t0, dt)`` of every substep of one advance, in the order
    they run: ``groups[0]`` steps by ``dt``, then after each substep of a
    group the next finer group takes ``2^delta`` substeps within it."""
    yield groups[0], t0, dt
    if len(groups) > 1:
        n_sub = 1 << (groups[1] - groups[0])
        sub_dt = dt / n_sub
        for j in range(n_sub):
            yield from _substeps(groups[1:], t0 + j * sub_dt, sub_dt)


@dataclass
class StepRecord:
    """Diagnostics of one completed step."""

    step: int
    time: float
    dt: float
    n_blocks: int
    n_cells: int
    adapted: Optional[AdaptSummary] = None
    #: wall-clock seconds the step took (None for synthetic records)
    wall_time: Optional[float] = None
    #: wall-clock seconds spent recovering from faults before this step
    #: completed (None when no recovery machinery ran; see
    #: :func:`repro.resilience.recovery.run_with_recovery`)
    recovery_time: Optional[float] = None


class Simulation:
    """Serial block-AMR simulation.

    Parameters
    ----------
    forest:
        The block forest holding the state (nvar must match the scheme).
    scheme:
        Finite-volume scheme advancing each block.
    bc:
        Physical boundary handler (None for fully periodic domains).
    criterion:
        Refinement criterion; None disables adaptation.
    adapt_interval:
        Steps between criterion checks (>= 1).
    buffer_band:
        Neighbor rings added around refine flags (>= 0).
    hook:
        Optional per-step source hook (see :data:`StepHook`).
    reflux:
        Correct coarse–fine fluxes after every step
        (:mod:`repro.core.reflux`); needs ``max_level_jump == 1``.
    safe_mode:
        When True, every step is health-checked (NaN/Inf, negative
        density/pressure) and rolled back + retried with a halved dt on
        failure; exhausted retries raise
        :class:`repro.resilience.safestep.UnrecoverableStep` carrying a
        structured :class:`~repro.resilience.safestep.StepFailure`.
    max_step_retries:
        Bounded dt-halving retries per step in safe mode.
    engine:
        Rows per kernel call.  Every block is a row of the arena pool
        and every stage is :class:`~repro.solvers.sweep.PoolSweep` over
        it; ``"batched"`` (default) sweeps a tile of
        :func:`~repro.solvers.sweep.tile_rows` rows per call,
        ``"blocked"`` one row per call — the same sweep paying numpy's
        dispatch once per block, kept as the reference the benchmarks
        divide by.  Bit-for-bit identical.
    subcycle:
        When True, step with level-local time steps (Berger–Colella
        subcycling) instead of one global CFL-limited dt: the blocks of
        each present level form their own group in :meth:`advance`, so
        each ``stable_dt``/``advance`` pair takes one *coarsest-level*
        step while finer levels take ``2^delta`` substeps, their ghost
        fills reading coarser levels interpolated in time.  Composes
        with ``reflux=True`` via per-substep time-weighted flux
        accumulation.
    sanitize:
        When True, run under the ghost-poison sanitizer
        (:class:`repro.analysis.poison.GhostSanitizer`): every ghost
        layer is poisoned at construction, after every adapt, and
        before every exchange; after each exchange the stencil read
        slabs are verified poison-free, and after each step the
        interiors are verified finite.  A violation raises
        :class:`repro.analysis.poison.PoisonError`.  On a correct code
        path this is behavior-neutral (the exchange overwrites every
        poisoned cell the kernels consume) — only slower.
    """

    def __init__(
        self,
        forest: BlockForest,
        scheme: FVScheme,
        *,
        bc: Optional[BoundaryHandler] = None,
        criterion: Optional[RefinementCriterion] = None,
        adapt_interval: int = 4,
        buffer_band: int = 1,
        hook: Optional[StepHook] = None,
        reflux: bool = False,
        engine: str = "batched",
        subcycle: bool = False,
        safe_mode: bool = False,
        max_step_retries: int = 4,
        sanitize: bool = False,
    ) -> None:
        if forest.n_ghost < scheme.required_ghost:
            raise ValueError(
                f"scheme needs {scheme.required_ghost} ghost layers, forest "
                f"has {forest.n_ghost}"
            )
        if engine not in ("blocked", "batched"):
            raise ValueError(
                f"engine must be 'blocked' or 'batched', got {engine!r}"
            )
        self.forest = forest
        self.scheme = scheme
        self.engine = engine
        self.subcycle = subcycle
        #: per-level substep counts of the last subcycled advance
        #: (level -> substeps); None before the first subcycled step
        self._last_substeps: Optional[Dict[int, int]] = None
        self.bc = bc
        self.criterion = criterion
        self.adapt_interval = adapt_interval
        self.buffer_band = buffer_band
        self.hook = hook
        self.reflux = reflux
        self._register = None
        if reflux:
            self._flux_register()  # rejects a forest it cannot correct
        if adapt_interval < 1:
            raise ValueError("adapt_interval must be >= 1")
        if buffer_band < 0:
            raise ValueError("buffer_band must be >= 0")
        if max_step_retries < 0:
            raise ValueError("max_step_retries must be >= 0")
        self.safe_mode = safe_mode
        self.max_step_retries = max_step_retries
        self.sanitizer = None
        if sanitize:
            from repro.analysis.poison import GhostSanitizer, poison_forest

            self.sanitizer = GhostSanitizer(depth=scheme.required_ghost)
            poison_forest(forest)
        self.time = 0.0
        self.step_count = 0
        self.timer = PhaseTimer()
        self.history: list[StepRecord] = []
        #: optional JSONL event stream (see :mod:`repro.obs.recorder`);
        #: attach one and every step/adapt is emitted as a structured
        #: event.  Pure observer — never touches simulation state.
        self.recorder: Optional["RunRecorder"] = None
        #: optional integrity scrubber (see :mod:`repro.resilience.scrub`);
        #: attach via :meth:`attach_scrubber` and every step boundary is
        #: CRC-verified before any phase reads the state.
        self.scrubber: Optional["Scrubber"] = None
        self._block_steps: Optional[Dict[BlockID, int]] = None

    def close(self) -> None:
        """Nothing to release; kept for callers that close what they
        build (the context-manager protocol, ``benchmarks/e2e``)."""

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def enable_block_profile(self) -> None:
        """Count the steps each block is resident, for the hottest-blocks
        report (blocks advance in stacked tiles, so per-block time is
        not separable).  Observation only — numerics are untouched."""
        self._block_steps = {}

    def block_profile(self) -> list:
        """Per-block entries for the profile event: ``id``, ``level``,
        ``steps`` present."""
        return [
            {"id": str(bid), "level": bid.level, "steps": steps}
            for bid, steps in (self._block_steps or {}).items()
        ]

    def sweep_tile(self) -> int:
        """Rows per kernel call (see ``engine``): one, or the tile the
        rank workers use for the same rows."""
        if self.engine == "blocked":
            return 1
        return tile_rows(self.forest.arena.pool[:1].nbytes)

    def _flux_register(self):
        """The coarse–fine flux register, rebuilt on topology changes."""
        from repro.core.reflux import FluxRegister

        if self._register is None or self._register.revision != self.forest.revision:
            self._register = FluxRegister(self.forest)
        return self._register

    # ------------------------------------------------------------------

    def fill_ghosts(self, dest: Optional[FrozenSet[BlockID]] = None) -> None:
        """Exchange ghost cells and apply physical BCs.

        ``dest`` names the blocks whose ghosts the caller reads next
        (None: every block); the ghosts of the others may be left stale
        (see :func:`repro.core.ghost.fill_ghosts`).

        Under the sanitizer every ghost cell is re-poisoned first, so
        each exchange must prove afresh that it fills everything the
        stencil kernels of the ``dest`` blocks will read, and every
        ghost cell it read on the way."""
        if self.sanitizer is not None:
            self.sanitizer.before_exchange(self.forest)
        with self.timer.phase("ghost_exchange"):
            fill_ghosts(self.forest, self.bc, dest=dest)
        if METRICS.enabled:
            METRICS.inc("ghost.exchanges")
        if self.sanitizer is not None:
            blocks = self.forest.blocks
            self.sanitizer.after_exchange(
                self.forest if dest is None else [blocks[bid] for bid in dest],
                reads=ghost_plan(self.forest, dest).ghost_reads(),
            )

    def _groups(self) -> Tuple[List[Block], List[int], Dict[int, int]]:
        """The blocks group-major, Morton within a group; each block's
        group key; and each group's substep divisor.

        One group (key 0) under global stepping, one per present level
        under subcycling.  Compacted in this order every group is one
        contiguous run of pool rows, and with one group the order is
        plain Morton order.  The sort is stable and every caller
        reproduces it, so the compaction only moves rows when the
        topology actually changed."""
        forest = self.forest
        blocks = [forest.blocks[bid] for bid in forest.sorted_ids()]
        if self.subcycle:
            blocks.sort(key=attrgetter("level"))
            keys = [b.level for b in blocks]
        else:
            keys = [0] * len(blocks)
        return blocks, keys, level_divisors(sorted(set(keys)))

    def stable_dt(self) -> float:
        """Largest step of the coarsest group such that every group's
        substeps satisfy their own CFL limit (one tiled pool reduction
        in the advance's arena layout; the divisor weights are exact
        powers of two, so scaling by them adds no rounding)."""
        with self.timer.phase("cfl"):
            blocks, keys, divisor = self._groups()
            return stable_dt_batched(
                self.forest, self.scheme, tile=self.sweep_tile(), blocks=blocks,
                weights=np.array([float(divisor[k]) for k in keys]),
            )

    def advance(self, dt: float) -> None:
        """Advance the whole forest by ``dt``: the coarsest group steps
        first, then each finer group takes ``2^delta`` substeps of its
        predecessor's, recursively (one group under global stepping).

        The arena is compacted group-major, so every group is a
        contiguous run of pool rows and
        :class:`~repro.solvers.sweep.PoolSweep` advances a tile of
        blocks per numpy call.  Every substep fills its group's ghosts
        before each stage.  The only sources of such a fill that are
        not at the fill time are the blocks of coarser groups, which
        have already stepped past it: their interiors are set to the
        linear interpolant between the saved and the current state for
        the exchange, then restored.  Finer groups have not yet stepped
        to the fill time: the first-order lag of subcycling, confined
        to the interface ring.
        """
        forest, scheme = self.forest, self.scheme
        blocks, keys, divisor = self._groups()
        groups = sorted(divisor)
        pool = forest.arena.ensure_compact(blocks)
        register = self._flux_register() if self.reflux else None
        if register is not None:
            register.start_step()
        rows = {k: (bisect_left(keys, k), bisect_right(keys, k)) for k in groups}
        # What each group's fill names: nothing (every block) when there
        # is one group, else the group's own blocks.
        dest: Dict[int, tuple] = {groups[0]: ()}
        if len(groups) > 1:
            dest = {
                k: (frozenset(b.id for b in blocks[s:e]),)
                for k, (s, e) in rows.items()
            }
        self.fill_ghosts(*dest[groups[0]])
        # Built after the fill: the first one compiles the ghost plan,
        # and the scratch pools then reuse what its temporaries freed.
        # Under subcycling the rate rows double as each coarser source's
        # stash during a fill (below), so every row needs one; one group
        # needs only a tile.
        tile = self.sweep_tile()
        save = forest.arena.save_pool()
        rate_pool = forest.arena.rate_pool(
            None if len(groups) > 1 else min(tile, forest.arena.capacity)
        )
        sweep = PoolSweep(
            scheme, pool, enumerate(blocks), forest.n_ghost,
            save=save, rate=rate_pool, tile=tile,
        )
        # The sources of each group's fill that sit in coarser groups
        # (looked up once the rows have settled: the plan holds views).
        coarser = {
            k: [b for b in ghost_plan(forest, *dest[k]).sources if keys[b.arena_row] < k]
            for k in groups[1:]
        }
        #: the ``(t0, t1)`` of each group's current substep
        span: Dict[int, Tuple[float, float]] = {}
        substeps = {k: 0 for k in groups}
        # The mode picks how the final stage hands the register its
        # fluxes: recorded and scaled by dt once, or accumulated
        # weighted by each substep's length.
        accumulate = self.subcycle

        def fill(k: int, t: float) -> None:
            """Fill group ``k``'s ghosts at time ``t``."""
            swapped = []
            for block in coarser.get(k, ()):
                row = block.arena_row
                t0, t1 = span[keys[row]]
                theta = (t - t0) / (t1 - t0)
                current = rate_pool[row]
                current[...] = block.interior
                block.interior[...] = (1.0 - theta) * save[row] + theta * current
                swapped.append((block, current))
            self.fill_ghosts(*dest[k])
            for block, current in swapped:
                block.interior[...] = current

        for k, t0, h in _substeps(groups, self.time, dt):
            if span:  # the coarsest group's one fill ran before the sweep
                fill(k, t0)
            substeps[k] += 1
            span[k] = (t0, t0 + h)
            with self.timer.phase("compute"):
                sweep.snapshot(rows[k])
                # The final stage feeds the register its coarse–fine fluxes.
                if scheme.n_stages == 1:
                    sweep.forward(h, rows[k], register=register, accumulate=accumulate)
                else:
                    sweep.forward(0.5 * h, rows[k])
            if scheme.n_stages > 1:
                fill(k, t0 + 0.5 * h)
                with self.timer.phase("compute"):
                    sweep.correct(h, rows[k], register=register, accumulate=accumulate)
            if self.sanitizer is not None:
                self.sanitizer.after_stage(forest)
        if self.subcycle:
            self._last_substeps = substeps
            if METRICS.enabled:
                METRICS.inc("subcycle.coarse_steps")
                METRICS.inc("subcycle.substeps", sum(substeps.values()))
                METRICS.inc("subcycle.block_updates", sum(divisor[k] for k in keys))
                METRICS.gauge("subcycle.levels", len(groups))
        self._finish_advance(dt, register, 1.0 if accumulate else dt)

    def updates_per_step(self) -> int:
        """Block updates one ``advance`` performs: each block once per
        substep of its group (every block once under global stepping) —
        the work metric the subcycling ablation compares."""
        _, keys, divisor = self._groups()
        return sum(divisor[k] for k in keys)

    def _finish_advance(self, dt: float, register, flux_scale: float) -> None:
        """Epilogue of ``advance``: apply the reflux correction (the
        register scales its fluxes by ``flux_scale``), run the
        sanitizer's post-stage check, commit the clock."""
        if register is not None:
            with self.timer.phase("reflux"):
                register.apply(flux_scale)
        if self.sanitizer is not None:
            self.sanitizer.after_stage(self.forest)
        self.time += dt

    def attach_scrubber(self, scrubber: "Scrubber") -> "Scrubber":
        """Attach a memory scrubber, tagging the current state as the
        trusted baseline.

        Scrubbing only reads state: a scrub-enabled run is bit-for-bit
        identical to baseline.
        """
        self.scrubber = scrubber
        self.scrub_retag()
        return scrubber

    def scrub_retag(self) -> None:
        """Re-baseline every block's integrity tag (write boundaries:
        post-step and post-adapt)."""
        if self.scrubber is not None:
            self.scrubber.retag_blocks(
                {bid: self.forest.blocks[bid] for bid in self.forest.sorted_ids()}
            )

    def _scrub_check(self) -> None:
        """Verify the forest against the integrity tags (step boundary)."""
        if self.scrubber is None or not self.scrubber.due(self.step_count):
            return
        from repro.resilience.scrub import CorruptionError

        with self.timer.phase("scrub"):
            entries = self.scrubber.scrub_blocks(
                {bid: self.forest.blocks[bid] for bid in self.forest.sorted_ids()}
            )
        if entries:
            raise CorruptionError(self.step_count, entries)

    def maybe_adapt(self) -> Optional[AdaptSummary]:
        """Run the refinement criterion if this step is a check step."""
        if self.criterion is None:
            return None
        if self.step_count % self.adapt_interval != 0:
            return None
        self.fill_ghosts()
        with self.timer.phase("criteria"):
            refine, coarsen = compute_flags(
                self.forest, self.criterion, buffer_band=self.buffer_band
            )
        with self.timer.phase("adapt"):
            summary = self.forest.adapt(refine, coarsen)
        if self.sanitizer is not None:
            # Adaptation allocates blocks with unexchanged ghosts:
            # poison them so a kernel cannot consume them unnoticed.
            from repro.analysis.poison import poison_forest

            poison_forest(self.forest)
        return summary

    def _advance_safely(self, dt: float) -> float:
        """Advance with health checks, rollback, and bounded dt retries.

        Returns the dt that actually succeeded (<= the requested dt).
        """
        from repro.resilience.safestep import (
            StepFailure,
            UnrecoverableStep,
            scan_forest_health,
        )

        t0 = self.time
        # One snapshot of the full padded arrays (interior is a view
        # into data, so this covers both state and ghosts).
        snapshot = {
            bid: blk.data.copy() for bid, blk in self.forest.blocks.items()
        }
        attempts: list[float] = []
        dt_try = dt
        issue = None
        for _ in range(self.max_step_retries + 1):
            attempts.append(dt_try)
            self.advance(dt_try)
            issue = scan_forest_health(self.forest, self.scheme)
            if issue is None:
                return dt_try
            # Roll back the state and the clock before retrying.
            for bid, blk in self.forest.blocks.items():
                blk.data[...] = snapshot[bid]
            self.time = t0
            dt_try *= 0.5
        raise UnrecoverableStep(
            StepFailure(
                step=self.step_count,
                time=t0,
                dt_attempts=tuple(attempts),
                issue=issue,
            )
        )

    def step(
        self, dt: Optional[float] = None, *, dt_max: float = 1e30
    ) -> StepRecord:
        """One full cycle: (adapt) → dt → advance → hook.

        Without ``dt`` the step takes the stable dt of the forest as
        adapted, capped at ``dt_max``; an explicit ``dt`` is taken as
        given.  In safe mode the advance is health-checked and retried
        with a halved dt on failure; the record's ``dt`` is the one that
        actually succeeded."""
        wall_start = _time.perf_counter()
        self._scrub_check()
        adapted = self.maybe_adapt()
        if adapted is not None:
            # Adaptation allocated/released arena rows: freshly created
            # blocks need a baseline tag before anything mutates them.
            self.scrub_retag()
        if dt is None:
            dt = min(self.stable_dt(), dt_max)
        with quiet_poison(self.sanitizer is not None):
            if self.safe_mode:
                dt = self._advance_safely(dt)
            else:
                self.advance(dt)
        if self.hook is not None:
            with self.timer.phase("hook"):
                self.hook(self, dt)
        self.step_count += 1
        # Post-step write boundary: the committed state becomes the new
        # trusted baseline for the next scrub.
        self.scrub_retag()
        rec = StepRecord(
            step=self.step_count,
            time=self.time,
            dt=dt,
            n_blocks=self.forest.n_blocks,
            n_cells=self.forest.n_cells,
            adapted=adapted,
            wall_time=_time.perf_counter() - wall_start,
        )
        self.history.append(rec)
        if self._block_steps is not None:
            for bid in self.forest.blocks:
                self._block_steps[bid] = self._block_steps.get(bid, 0) + 1
        if METRICS.enabled:
            METRICS.inc("step.count")
            METRICS.observe("step.dt", dt)
            METRICS.observe("step.wall_time", rec.wall_time or 0.0)
        if self.recorder is not None:
            if adapted is not None:
                self.recorder.emit(
                    "adapt",
                    step=self.step_count,
                    refined=adapted.refined,
                    coarsened=adapted.coarsened,
                    n_blocks=rec.n_blocks,
                )
            extras: Dict[str, object] = {}
            if self.subcycle:
                extras["subcycle"] = True
                extras["substeps"] = {
                    str(lvl): n
                    for lvl, n in (self._last_substeps or {}).items()
                }
                extras["updates"] = self.updates_per_step()
            self.recorder.emit(
                "step",
                step=rec.step,
                t_sim=rec.time,
                dt=rec.dt,
                n_blocks=rec.n_blocks,
                n_cells=rec.n_cells,
                wall_time=rec.wall_time,
                engine=self.engine,
                **extras,
            )
        return rec

    def run(
        self,
        *,
        t_end: Optional[float] = None,
        n_steps: Optional[int] = None,
        dt_max: float = 1e30,
    ) -> StepRecord:
        """Run until a time or step count is reached (whichever first).

        Each step's dt is the stable dt after that step's adaptation,
        capped at ``dt_max`` and at the time left to ``t_end``."""
        if t_end is None and n_steps is None:
            raise ValueError("give t_end and/or n_steps")
        start_step = self.step_count
        while True:
            if n_steps is not None and self.step_count - start_step >= n_steps:
                break
            if t_end is not None and self.time >= t_end - 1e-14:
                break
            self.step(
                dt_max=dt_max if t_end is None else min(dt_max, t_end - self.time)
            )
        if self.history:
            return self.history[-1]
        return StepRecord(
            self.step_count, self.time, 0.0, self.forest.n_blocks, self.forest.n_cells
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def total(self, var: int = 0) -> float:
        """Volume-weighted total of one conserved variable (conservation
        diagnostic)."""
        total = 0.0
        for block in self.forest:
            cell_vol = 1.0
            for w in block.dx:
                cell_vol *= w
            total += float(block.interior[var].sum()) * cell_vol
        return total

    def error_vs(self, exact: Callable[..., np.ndarray], var: int = 0) -> float:
        """Volume-weighted L1 error of one variable against
        ``exact(*meshgrid)``."""
        err = 0.0
        vol = 0.0
        for block in self.forest:
            grids = block.meshgrid()
            cell_vol = 1.0
            for w in block.dx:
                cell_vol *= w
            err += float(np.abs(block.interior[var] - exact(*grids)).sum()) * cell_vol
            vol += cell_vol * block.n_cells
        return err / vol
