"""Time-step subcycling (local time stepping across refinement levels).

With global time stepping — what the paper's code used — every block
advances with the *finest* level's CFL-limited dt, so a coarse block
performs 2^(L_max - L) times more updates per unit physical time than
its own stability limit requires.  Subcycling (Berger–Colella style,
adopted by the paper's descendants) advances each level with its own
dt: the coarse level steps first, then each finer level takes two
half-steps, recursively, with coarse ghost data *interpolated in time*
for the intermediate fine steps.

Because adaptive-block leaves never overlap (unlike patch-based AMR)
no post-step synchronization of overlapping regions is needed; the only
couplings are the time-interpolated ghosts handled here and the
coarse–fine flux mismatch, corrected by per-substep flux accumulation:
every level feeds its final-stage face fluxes, weighted by its own
substep length, into the :class:`~repro.core.reflux.FluxRegister`
(:meth:`~repro.core.reflux.FluxRegister.accumulate`), and the
time-integrated correction is applied once per coarse step — subcycled
runs with ``reflux=True`` conserve to round-off exactly like global
stepping.

Subcycling is a first-class driver mode: construct
``Simulation(..., subcycle=True)`` (or via ``SimulationConfig`` /
``problem.build`` / the CLI ``--subcycle`` flag).  The arena is kept
compacted in *level-major* order — every level is a contiguous run of
pool rows — and :class:`~repro.solvers.sweep.PoolSweep` advances each
level's row range a tile per kernel call, as in global stepping.

Accuracy note: the coarse level's mid-stage ghost fill sees fine
neighbors still at the old time level (their substeps run after), a
first-order lag confined to the interface ring — the standard trade-off
of subcycled AMR.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from repro.amr.driver import Simulation
from repro.core.block_id import BlockID
from repro.core.ghost import ghost_plan
from repro.obs.metrics import METRICS
from repro.solvers.sweep import PoolSweep
from repro.solvers.timestep import stable_dt_batched

__all__ = [
    "advance_subcycled",
    "interval_spans",
    "level_divisors",
    "stable_dt_subcycled",
]

#: Tolerance, as a fraction of the step interval, deciding whether a
#: block's last step still extends beyond a fill time (and its interior
#: must therefore be interpolated for the exchange).  Relative to the
#: interval length, so classification is invariant under rescaling the
#: time step — an absolute epsilon would misclassify spanning intervals
#: once dt shrinks toward it.
SPAN_RTOL = 1e-9


def level_divisors(levels: List[int]) -> Dict[int, int]:
    """Substep divisor per *present* level (sparse-level aware).

    The coarsest present level takes one substep per coarse step; each
    next finer present level takes ``2^delta`` substeps of its
    predecessor's, where ``delta`` is the (possibly > 1) level gap.
    Shared by :func:`stable_dt_subcycled`,
    :meth:`~repro.amr.driver.Simulation.updates_per_step`, and the
    work-accounting metrics.
    """
    divisor = {lvl: 1 for lvl in levels}
    for prev, cur in zip(levels, levels[1:]):
        divisor[cur] = divisor[prev] * (1 << (cur - prev))
    return divisor


def interval_spans(t: float, t0: float, t1: float) -> bool:
    """True when the step interval ``[t0, t1]`` extends strictly beyond
    ``t`` — i.e. the block is mid-step at ``t`` and its interior must be
    time-interpolated for an exchange at ``t``.  The tolerance is
    dt-relative (:data:`SPAN_RTOL`)."""
    return t1 > t0 and t1 - t > SPAN_RTOL * (t1 - t0)


def _level_major(forest) -> List:
    """The forest's blocks level-major, Morton within level: compacted
    in this order every level is one contiguous run of pool rows, so a
    substep sweeps a plain row range in tiles.  The sort is stable and
    the order is reproduced by every caller, so the compaction only
    moves rows (and invalidates the ghost plan) when the topology
    actually changed."""
    blocks = [forest.blocks[bid] for bid in forest.sorted_ids()]
    blocks.sort(key=lambda b: b.level)
    return blocks


def stable_dt_subcycled(sim: Simulation) -> float:
    """Largest *coarse-level* step such that every level's substep
    satisfies its own CFL limit (level L substeps are dt / 2^(L -
    L_min)).

    The per-block signal speeds come from the tiled pool reduction
    (same kernels as global stepping) over the subcycled sweep's
    level-major arena layout, so the CFL pass never thrashes the
    compaction the advance relies on; the divisor weights are exact
    powers of two, so scaling by them adds no rounding.
    """
    forest = sim.forest
    levels = sorted({b.level for b in forest.blocks.values()})
    divisor = level_divisors(levels)
    blocks = _level_major(forest)
    return stable_dt_batched(
        forest,
        sim.scheme,
        tile=sim.sweep_tile(),
        blocks=blocks,
        weights=np.array([float(divisor[b.level]) for b in blocks]),
    )


class _SubcycleSweep:
    """Per-coarse-step state of one subcycled advance.

    Everything here — the old-state snapshots backing the time
    interpolation, the per-block step intervals, the level-major pool
    layout — lives for exactly one coarse step and is dropped in
    :meth:`clear`, so no stale :class:`BlockID` keys can survive an
    adaptation into the next step.
    """

    def __init__(
        self, sim: Simulation, levels: List[int], register
    ) -> None:
        self.sim = sim
        self.forest = forest = sim.forest
        self.scheme = sim.scheme
        self.register = register
        self.levels = levels
        #: interior snapshot (save-pool row view) of each block's
        #: current/last substep, keyed by block id
        self.u_old: Dict[BlockID, np.ndarray] = {}
        #: time interval of each block's current/last substep
        self.t_old: Dict[BlockID, float] = {}
        self.t_new: Dict[BlockID, float] = {}
        #: substeps each level took this coarse step (recorder payload)
        self.substeps: Dict[int, int] = {lvl: 0 for lvl in levels}
        self.save = forest.arena.save_pool()
        #: kernel-rate scratch, one interior-shaped row per block; idle
        #: during an exchange, when it holds the current state of the
        #: sources whose interiors are swapped for the time interpolant
        self.rate_pool = forest.arena.rate_pool()
        #: the blocks of each level: what a substep's ghost fill names
        ids: Dict[int, List[BlockID]] = {lvl: [] for lvl in levels}
        for bid in forest.blocks:
            ids[bid.level].append(bid)
        self.level_ids: Dict[int, FrozenSet[BlockID]] = {
            lvl: frozenset(of_level) for lvl, of_level in ids.items()
        }
        self.blocks = blocks = _level_major(forest)
        pool = forest.arena.ensure_compact(blocks)
        self.sweep = PoolSweep(
            self.scheme, pool, enumerate(blocks), forest.n_ghost,
            save=self.save, rate=self.rate_pool, tile=sim.sweep_tile(),
        )
        #: level -> [start, end) row range of the compacted pool
        self.ranges: Dict[int, Tuple[int, int]] = {}
        for i, b in enumerate(blocks):
            s, _ = self.ranges.get(b.level, (i, i))
            self.ranges[b.level] = (s, i + 1)
        #: the blocks each level's fill reads — the only ones whose
        #: interiors need interpolating to the fill time (looked up once
        #: the rows have settled: the plan holds views into them)
        self.fill_sources = {
            lvl: ghost_plan(forest, ids).sources
            for lvl, ids in self.level_ids.items()
        }

    def clear(self) -> None:
        """Drop all per-step state (snapshots and step intervals)."""
        self.u_old.clear()
        self.t_old.clear()
        self.t_new.clear()

    # ------------------------------------------------------------------

    def advance_level(self, idx: int, t0: float, dt: float) -> None:
        """Advance level ``levels[idx]`` by ``dt`` from ``t0``, then the
        finer levels by ``2^delta`` substeps each (recursively)."""
        level = self.levels[idx]
        self.substeps[level] += 1
        self._step_level(level, t0, dt)
        if self.sim.sanitizer is not None:
            # Every substep is a stage boundary: verify interiors finite
            # (behavior-neutral — checks only).
            self.sim.sanitizer.after_stage(self.forest)
        if idx + 1 < len(self.levels):
            # The next finer *present* level may be more than one level
            # down (levels can be sparse far from interfaces): it takes
            # 2^delta substeps of dt / 2^delta.
            delta = self.levels[idx + 1] - level
            n_sub = 1 << delta
            sub_dt = dt / n_sub
            for k in range(n_sub):
                self.advance_level(idx + 1, t0 + k * sub_dt, sub_dt)

    def interp_fill(self, t: float, level: int) -> None:
        """Ghost exchange for the blocks of ``level``, with every source
        interpolated to time ``t``.

        Only that level's ghosts are filled (plus the coarser ghosts its
        prolongations read): a level substep reads no others, and every
        level refills its own before each of its stages.  Source blocks
        whose current step spans ``t`` are temporarily set to the linear
        interpolant between their old and new states, the exchange
        runs, then their arrays are restored.
        """
        swapped: List = []
        for block in self.fill_sources[level]:
            bid = block.id
            u0 = self.u_old.get(bid)
            if u0 is None:
                continue
            t0, t1 = self.t_old[bid], self.t_new[bid]
            if not interval_spans(t, t0, t1):
                continue
            theta = (t - t0) / (t1 - t0)
            current = self.rate_pool[block.arena_row]
            current[...] = block.interior
            block.interior[...] = (1.0 - theta) * u0 + theta * current
            swapped.append((block, current))
        self.sim.fill_ghosts(self.level_ids[level])
        for block, current in swapped:
            block.interior[...] = current

    def _step_level(self, level: int, t0: float, dt: float) -> None:
        """One substep of one level: tiled kernel sweeps over the
        level's contiguous pool row range."""
        sim, sweep = self.sim, self.sweep
        rows = s, e = self.ranges[level]
        mine = self.blocks[s:e]
        sweep.snapshot(rows)
        for i, block in enumerate(mine):
            self.u_old[block.id] = self.save[s + i]
            self.t_old[block.id] = t0
            self.t_new[block.id] = t0 + dt
        self.interp_fill(t0, level)
        if self.scheme.n_stages == 1:
            with sim.timer.phase("compute"):
                sim._capture_fluxes(self.register, mine, sweep.work, dt)
                sweep.forward(dt, rows)
        else:
            with sim.timer.phase("compute"):
                sweep.forward(0.5 * dt, rows)
            # The mid-stage exchange happens at t0 + dt/2; shrinking the
            # recorded interval keeps this level's own (half-time)
            # interiors out of the interpolation set for that fill.
            for block in mine:
                self.t_new[block.id] = t0 + 0.5 * dt
            self.interp_fill(t0 + 0.5 * dt, level)
            for block in mine:
                self.t_new[block.id] = t0 + dt
            with sim.timer.phase("compute"):
                sim._capture_fluxes(self.register, mine, sweep.work, dt)
                sweep.correct(dt, rows)


def advance_subcycled(sim: Simulation, dt: float) -> None:
    """One coarse step: recursive level-by-level subcycled advance.

    Routed through :meth:`Simulation._finish_advance` like the global
    step, so the accumulated reflux correction is applied (with unit
    scale — the fluxes carry their substep weights already) and the
    ghost sanitizer's post-stage check runs under subcycling too.
    """
    forest = sim.forest
    levels = sorted({b.level for b in forest.blocks.values()})
    register = sim._flux_register() if sim.reflux else None
    if register is not None:
        register.start_step()
    sweep = _SubcycleSweep(sim, levels, register)
    try:
        if levels:
            sweep.advance_level(0, sim.time, dt)
        sim._last_substeps = dict(sweep.substeps)
    finally:
        sweep.clear()
    if METRICS.enabled:
        divisor = level_divisors(levels)
        METRICS.inc("subcycle.coarse_steps")
        METRICS.inc("subcycle.substeps", sum(sweep.substeps.values()))
        METRICS.inc(
            "subcycle.block_updates",
            sum(divisor[b.level] for b in forest),
        )
        METRICS.gauge("subcycle.levels", len(levels))
    sim._finish_advance(dt, register, flux_scale=1.0)
