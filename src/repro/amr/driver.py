"""Serial AMR simulation driver.

Orchestrates the cycle the paper's simulations ran:

1. fill ghost cells (exchange + physical BC);
2. advance every block by one time step (global CFL-limited dt,
   midpoint two-stage for second order, with a ghost refresh between
   stages so block-boundary fluxes stay consistent);
3. every ``adapt_interval`` steps, evaluate the refinement criterion,
   adapt the forest (cascading refinement, vetoed coarsening), and
   refresh connectivity — the blocks-adapt-less-frequently advantage is
   exactly this interval.

Phase timings are accumulated in a :class:`repro.util.timing.PhaseTimer`
so the benchmarks can attribute cost to compute / exchange / adaptation.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Optional

import numpy as np

from repro.amr.config import SimulationConfig
from repro.core.block_id import BlockID
from repro.core.forest import AdaptSummary, BlockForest
from repro.core.ghost import BoundaryHandler, fill_ghosts, ghost_plan
from repro.core.refine_criteria import RefinementCriterion, compute_flags
from repro.obs.metrics import METRICS
from repro.solvers.scheme import FVScheme
from repro.solvers.sweep import PoolSweep, tile_rows
from repro.solvers.timestep import stable_dt_batched
from repro.solvers.workspace import Workspace
from repro.util.timing import PhaseTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import RunRecorder
    from repro.resilience.scrub import Scrubber

__all__ = ["Simulation", "StepRecord"]

#: Hook called once per step after the hyperbolic update:
#: ``hook(sim, dt)``.  Used for inner-boundary resets (solar wind body),
#: driven perturbations (CME launch), and mass-loading sources (comet).
StepHook = Callable[["Simulation", float], None]


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
        Steps between criterion checks.
    buffer_band:
        Neighbor rings added around refine flags.
    hook:
        Optional per-step source hook (see :data:`StepHook`).
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
        subcycling, :mod:`repro.amr.subcycle`) instead of one global
        CFL-limited dt: each ``stable_dt``/``advance`` pair takes one
        *coarsest-level* step while finer levels take ``2^delta``
        substeps with time-interpolated ghost fills.  Composes with
        ``reflux=True`` via per-substep time-weighted flux accumulation.
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

    def stable_dt(self) -> float:
        with self.timer.phase("cfl"):
            if self.subcycle:
                from repro.amr.subcycle import stable_dt_subcycled

                return stable_dt_subcycled(self)
            return stable_dt_batched(
                self.forest, self.scheme, tile=self.sweep_tile()
            )

    def advance(self, dt: float) -> None:
        """Advance the whole forest by ``dt`` (ghosts refreshed between
        stages for the two-stage scheme).  Under subcycling ``dt`` is
        the coarsest level's step; finer levels substep within it.

        The arena is compacted to a Morton-ordered contiguous prefix, so
        the ``(B, nvar, *padded)`` pool prefix *is* the forest state and
        :class:`~repro.solvers.sweep.PoolSweep` advances a tile of
        blocks per numpy call.
        """
        if self.subcycle:
            from repro.amr.subcycle import advance_subcycled

            return advance_subcycled(self, dt)
        forest, scheme = self.forest, self.scheme
        register = self._flux_register() if self.reflux else None
        if register is not None:
            register.start_step()
        blocks = [forest.blocks[bid] for bid in forest.sorted_ids()]
        pool = forest.arena.ensure_compact(blocks)
        self.fill_ghosts()
        # Built after the fill: the first one compiles the ghost plan,
        # and the scratch pools then reuse what its temporaries freed.
        sweep = PoolSweep(
            scheme, pool, enumerate(blocks), forest.n_ghost,
            save=forest.arena.save_pool(), rate=forest.arena.rate_pool(),
            tile=self.sweep_tile(),
        )
        if scheme.n_stages == 1:
            with self.timer.phase("compute"):
                self._capture_fluxes(register, blocks, sweep.work)
                sweep.forward(dt)
        else:
            with self.timer.phase("compute"):
                sweep.snapshot()
                sweep.forward(0.5 * dt)
            self.fill_ghosts()
            with self.timer.phase("compute"):
                self._capture_fluxes(register, blocks, sweep.work)
                sweep.correct(dt)
        self._finish_advance(dt, register)

    def _capture_fluxes(
        self, register, blocks, work: Optional[Workspace], weight: Optional[float] = None
    ) -> None:
        """Feed ``register`` the boundary-face fluxes of the final stage.

        Blocks on coarse-fine interfaces rerun a per-block flux
        evaluation with face capture (the recomputed rate is identical
        to the swept one and discarded) — *before* the sweep's interior
        update, so it sees the state the swept rate is computed from —
        in the sweep's workspace ``work``.  ``weight`` None records the
        fluxes (global stepping); a substep length accumulates them
        time-weighted (subcycling).
        """
        if register is None:
            return
        scheme, g = self.scheme, self.forest.n_ghost
        for block in blocks:
            faces = register.needed_faces.get(block.id)
            if faces:
                capture: Dict[int, np.ndarray] = {}
                scheme.flux_divergence(
                    block.data, block.dx, g,
                    face_flux_out=capture, faces=faces, work=work,
                )
                if weight is None:
                    register.record(block.id, capture)
                else:
                    register.accumulate(block.id, capture, weight)

    def updates_per_step(self) -> int:
        """Block updates one ``advance`` performs: every block once
        under global stepping; under subcycling each block steps with
        its level's substep divisor — the work metric the subcycling
        ablation compares."""
        if not self.subcycle:
            return self.forest.n_blocks
        from repro.amr.subcycle import level_divisors

        levels = sorted({b.level for b in self.forest.blocks.values()})
        divisor = level_divisors(levels)
        return sum(divisor[b.level] for b in self.forest)

    def _finish_advance(
        self, dt: float, register, *, flux_scale: Optional[float] = None
    ) -> None:
        """Common epilogue of every ``advance``: apply the accumulated
        reflux correction, run the sanitizer's post-stage check, commit
        the clock.  ``flux_scale`` overrides the dt the register scales
        recorded fluxes by (the subcycled path passes 1.0 — its fluxes
        already carry their substep-length weights)."""
        if register is not None:
            with self.timer.phase("reflux"):
                register.apply(dt if flux_scale is None else flux_scale)
        if self.sanitizer is not None:
            self.sanitizer.after_stage(self.forest)
        self.time += dt

    def attach_scrubber(self, scrubber: "Scrubber") -> "Scrubber":
        """Attach a memory scrubber, tagging the current state as the
        trusted baseline.

        Tags live in the forest arena's
        :class:`~repro.core.integrity.RowLedger`, so they follow rows
        through compaction and pool growth by construction.  Scrubbing
        only reads state: a scrub-enabled run is bit-for-bit identical
        to baseline.
        """
        scrubber.attach_arena(self.forest.arena)
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

    def step(self, dt: Optional[float] = None) -> StepRecord:
        """One full cycle: (adapt) → dt → advance → hook.

        In safe mode the advance is health-checked and retried with a
        halved dt on failure; the record's ``dt`` is the one that
        actually succeeded."""
        wall_start = _time.perf_counter()
        self._scrub_check()
        adapted = self.maybe_adapt()
        if adapted is not None:
            # Adaptation allocated/released arena rows: freshly created
            # blocks need a baseline tag before anything mutates them.
            self.scrub_retag()
        if dt is None:
            dt = self.stable_dt()
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
        """Run until a time or step count is reached (whichever first)."""
        if t_end is None and n_steps is None:
            raise ValueError("give t_end and/or n_steps")
        start_step = self.step_count
        while True:
            if n_steps is not None and self.step_count - start_step >= n_steps:
                break
            if t_end is not None and self.time >= t_end - 1e-14:
                break
            dt = min(self.stable_dt(), dt_max)
            if t_end is not None:
                dt = min(dt, t_end - self.time)
            self.step(dt)
        return self.history[-1] if self.history else StepRecord(0, 0.0, 0.0, self.forest.n_blocks, self.forest.n_cells)

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
