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

import os
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Optional

import numpy as np

from repro.amr.config import SimulationConfig
from repro.core.block_id import BlockID
from repro.core.forest import AdaptSummary, BlockForest
from repro.core.ghost import BoundaryHandler, fill_ghosts, ghost_plan
from repro.kernels import get_backend
from repro.core.refine_criteria import RefinementCriterion, compute_flags
from repro.obs.metrics import METRICS
from repro.solvers.scheme import FVScheme
from repro.solvers.sweep import BATCH_TILE_BYTES, PoolSweep, tile_rows
from repro.solvers.timestep import stable_dt, stable_dt_batched
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
        Execution engine for the hot loop.  ``"blocked"`` (default) is
        the per-block path: one scheme call per block, optionally
        threaded.  ``"batched"`` compacts the arena to a Morton-ordered
        contiguous prefix and sweeps *all* blocks per scheme call —
        stacked kernels, one pooled CFL reduction, flat gather/scatter
        same-level ghost copies.  The two engines are bit-for-bit
        identical; blocks needing reflux face-flux capture fall back to
        a per-block flux evaluation within the batched step.
    batch_tile:
        Blocks per kernel call in the batched engine (None = automatic,
        see :func:`repro.solvers.sweep.tile_rows`).  Any value gives
        bit-identical results.
    batch_tile_bytes:
        Target bytes of pool rows per automatic kernel tile (None =
        the ``REPRO_BATCH_TILE_BYTES`` env var when set, else the
        :attr:`BATCH_TILE_BYTES` default).  Must be >= 4096.  Any value
        gives bit-identical results.
    kernel_backend:
        Kernel backend name for the hot per-tile ops (see
        :mod:`repro.kernels`): ``"numpy"`` (reference) or ``"numba"``
        (fused JIT, bit-for-bit, auto-falls back to numpy when numba is
        missing).  None keeps the scheme's current backend.  The backend
        is attached to the *scheme* (``scheme.kernels``), so it also
        serves the blocked engine and per-block fallback paths.
    subcycle:
        When True, step with level-local time steps (Berger–Colella
        subcycling, :mod:`repro.amr.subcycle`) instead of one global
        CFL-limited dt: each ``stable_dt``/``advance`` pair takes one
        *coarsest-level* step while finer levels take ``2^delta``
        substeps with time-interpolated ghost fills.  Works on either
        engine (bit-for-bit across the two, like global stepping) and
        composes with ``reflux=True`` via per-substep time-weighted
        flux accumulation.  The ``threads`` pool is not used by the
        subcycled blocked path (per-level block counts are too small to
        amortize it).
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
        threads: Optional[int] = None,
        engine: str = "blocked",
        batch_tile: Optional[int] = None,
        batch_tile_bytes: Optional[int] = None,
        kernel_backend: Optional[str] = None,
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
        if batch_tile is not None and batch_tile < 1:
            raise ValueError("batch_tile must be >= 1")
        if kernel_backend is not None:
            scheme.kernels = get_backend(kernel_backend)
        if batch_tile_bytes is None:
            env = os.environ.get("REPRO_BATCH_TILE_BYTES")
            if env:
                try:
                    batch_tile_bytes = int(env)
                except ValueError:
                    raise ValueError(
                        "REPRO_BATCH_TILE_BYTES must be an integer, "
                        f"got {env!r}"
                    ) from None
        if batch_tile_bytes is None:
            batch_tile_bytes = self.BATCH_TILE_BYTES
        if batch_tile_bytes < 4096:
            raise ValueError(
                f"batch tile size must be >= 4096 bytes, got {batch_tile_bytes}"
            )
        self.forest = forest
        self.scheme = scheme
        self.engine = engine
        self.subcycle = subcycle
        #: per-level substep counts of the last subcycled advance
        #: (level -> substeps); None before the first subcycled step
        self._last_substeps: Optional[Dict[int, int]] = None
        self.batch_tile = batch_tile
        self.batch_tile_bytes = int(batch_tile_bytes)
        self.bc = bc
        self.criterion = criterion
        self.adapt_interval = adapt_interval
        self.buffer_band = buffer_band
        self.hook = hook
        self.reflux = reflux
        self._register = None
        #: optional shared-memory parallelism: per-block updates are
        #: independent (each reads only its own padded array), and the
        #: numpy kernels release the GIL, so a thread pool gives genuine
        #: speedup on multi-core hosts for large blocks.
        self.threads = threads
        self._executor = None
        if threads is not None:
            if threads < 1:
                raise ValueError("threads must be >= 1")
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(max_workers=threads)
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
        self._block_times: Optional[Dict[BlockID, float]] = None
        self._block_steps: Optional[Dict[BlockID, int]] = None

    def close(self) -> None:
        """Release owned resources (the worker thread pool).  Idempotent;
        the simulation remains usable for serial stepping afterwards."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def enable_block_profile(self) -> None:
        """Track per-block cost for the hottest-blocks report.

        In the blocked engine every kernel call is timed per block; in
        the batched engine (where blocks advance in stacked tiles and
        per-block time is not separable) per-block residency steps are
        counted instead.  Observation only — numerics are untouched.
        """
        self._block_times = {}
        self._block_steps = {}

    def block_profile(self) -> list:
        """Per-block cost entries for the profile event: ``id``,
        ``level``, ``steps`` present, and (blocked engine) ``time_s``."""
        if self._block_steps is None:
            return []
        times = self._block_times or {}
        entries = []
        for bid, steps in self._block_steps.items():
            entry: Dict[str, object] = {
                "id": str(bid),
                "level": bid.level,
                "steps": steps,
            }
            if bid in times:
                entry["time_s"] = round(times[bid], 6)
            entries.append(entry)
        return entries

    def _map_blocks(self, fn) -> None:
        """Apply ``fn(block)`` to every block, threaded when enabled."""
        times = self._block_times
        if times is not None:
            inner = fn

            def fn(block):
                t0 = _time.perf_counter()
                inner(block)
                dt = _time.perf_counter() - t0
                times[block.id] = times.get(block.id, 0.0) + dt

        if self._executor is None:
            for block in self.forest:
                fn(block)
        else:
            # Consume the iterator so worker exceptions propagate.
            list(self._executor.map(fn, list(self.forest)))

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
            fill_ghosts(
                self.forest,
                self.bc,
                dest=dest,
                batched_copies=self.engine == "batched",
                kernels=self.scheme.kernels if self.engine == "batched" else None,
            )
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
            if self.engine == "batched":
                row_bytes = self.forest.arena.pool[:1].nbytes
                return stable_dt_batched(
                    self.forest, self.scheme, tile=self._tile_rows(row_bytes)
                )
            return stable_dt(self.forest, self.scheme)

    def advance(self, dt: float) -> None:
        """Advance the whole forest by ``dt`` (ghosts refreshed between
        stages for the two-stage scheme).  Under subcycling ``dt`` is
        the coarsest level's step; finer levels substep within it."""
        if self.subcycle:
            from repro.amr.subcycle import advance_subcycled

            advance_subcycled(self, dt)
        elif self.engine == "batched":
            self._advance_batched(dt)
        else:
            self._advance_blocked(dt)

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

    def _advance_blocked(self, dt: float) -> None:
        """Per-block engine: one scheme call per block (threadable)."""
        forest, scheme = self.forest, self.scheme
        g = forest.n_ghost
        register = self._flux_register() if self.reflux else None
        if register is not None:
            register.start_step()

        def final_rate(block):
            # Flux divergence of the final stage, capturing boundary-face
            # fluxes for blocks on coarse-fine interfaces.
            if register is not None:
                faces = register.needed_faces.get(block.id)
                if faces:
                    capture: Dict[int, np.ndarray] = {}
                    rate = scheme.flux_divergence(
                        block.data, block.dx, g,
                        face_flux_out=capture, faces=faces,
                    )
                    register.record(block.id, capture)
                    return rate
            return scheme.flux_divergence(block.data, block.dx, g)

        self.fill_ghosts()
        if scheme.n_stages == 1:
            def single(block):
                block.interior[...] += dt * final_rate(block)
                scheme.apply_floors(block.interior)

            with self.timer.phase("compute"):
                self._map_blocks(single)
        else:
            # Predictor saves reuse the arena's preallocated scratch pool
            # (one interior-shaped row per block) instead of allocating a
            # fresh copy per block per step.
            save = forest.arena.save_pool()

            def predictor(block):
                save[block.arena_row][...] = block.interior
                scheme.step(block.data, block.dx, 0.5 * dt, g)

            def corrector(block):
                # block.data holds the half-time state everywhere
                # (interior from the predictor, ghosts just refreshed):
                # u_new = u_old + dt * L(u_half).
                block.interior[...] = save[block.arena_row] + dt * final_rate(block)
                scheme.apply_floors(block.interior)

            with self.timer.phase("compute"):
                self._map_blocks(predictor)
            self.fill_ghosts()
            with self.timer.phase("compute"):
                self._map_blocks(corrector)
        self._finish_advance(dt, register)

    #: default bytes of pool rows per kernel tile; per-instance override
    #: via the ``batch_tile_bytes=`` parameter or the
    #: ``REPRO_BATCH_TILE_BYTES`` env var, both validated >= 4096.
    BATCH_TILE_BYTES = BATCH_TILE_BYTES

    def _tile_rows(self, row_bytes: int) -> int:
        """Rows per kernel tile for the batched engine: ``batch_tile``
        when given, else :func:`repro.solvers.sweep.tile_rows` (which
        has the rationale).  Results are bit-for-bit independent of the
        tile size: every kernel treats the batch axis elementwise."""
        if self.batch_tile is not None:
            return self.batch_tile
        return tile_rows(row_bytes, self.batch_tile_bytes)

    def _advance_batched(self, dt: float) -> None:
        """Batched engine: every scheme call sweeps a tile of blocks.

        The arena is compacted to a Morton-ordered contiguous prefix, so
        the ``(B, nvar, *padded)`` pool prefix *is* the forest state and
        :class:`~repro.solvers.sweep.PoolSweep` advances a whole tile of
        blocks per numpy call.  Bit-for-bit identical to the per-block
        engine: same IEEE elementwise kernels, same per-block cell
        widths, same update expressions — only the loop structure
        changes.
        """
        forest, scheme = self.forest, self.scheme
        g = forest.n_ghost
        register = self._flux_register() if self.reflux else None
        if register is not None:
            register.start_step()
        blocks = [forest.blocks[bid] for bid in forest.sorted_ids()]
        pool = forest.arena.ensure_compact(blocks)

        def capture_fluxes():
            # Reflux fallback: blocks on coarse-fine interfaces rerun a
            # per-block flux evaluation to capture boundary-face fluxes.
            # Runs *before* the batched interior update so it sees the
            # same (current-stage) state the batched rate is computed
            # from; the recomputed rate is identical and discarded.
            if register is None:
                return
            for block in blocks:
                faces = register.needed_faces.get(block.id)
                if faces:
                    capture: Dict[int, np.ndarray] = {}
                    scheme.flux_divergence(
                        block.data, block.dx, g,
                        face_flux_out=capture, faces=faces,
                    )
                    register.record(block.id, capture)

        self.fill_ghosts()
        # Built after the fill: the first one compiles the ghost plan,
        # and the scratch pools then reuse what its temporaries freed.
        sweep = PoolSweep(
            scheme, pool, enumerate(blocks), g,
            save=forest.arena.save_pool(), rate=forest.arena.rate_pool(),
            tile=self._tile_rows(pool[:1].nbytes),
        )
        if scheme.n_stages == 1:
            with self.timer.phase("compute"):
                capture_fluxes()
                sweep.forward(dt)
        else:
            with self.timer.phase("compute"):
                sweep.snapshot()
                sweep.forward(0.5 * dt)
            self.fill_ghosts()
            with self.timer.phase("compute"):
                capture_fluxes()
                sweep.correct(dt)
        self._finish_advance(dt, register)

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
        through compaction (batched engine) and pool growth by
        construction.  Scrubbing only reads state: a scrub-enabled run
        is bit-for-bit identical to baseline.
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
