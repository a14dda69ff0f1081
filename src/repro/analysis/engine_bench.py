"""One-row-vs-tiled sweep benchmark (the Fig-5-style workload).

The paper's Figure 5 plots MHD time-per-cell against block size: small
blocks pay fixed per-block overhead per cell (loop startup on the T3D,
numpy dispatch here), large blocks fall off cache.  This module measures
the same time-per-cell metric for the stage sweep at one pool row per
kernel call (``engine="blocked"``) and at a tile of rows per call
(``"batched"``) on uniform periodic 3-D/2-D MHD forests across block
sizes, giving the speedup curve of tiling — large in the dispatch-bound
small-block regime, shrinking as blocks grow compute-bound.

Shared by the ``repro bench`` CLI subcommand, the
``benchmarks/test_batched_speedup.py`` benchmark, and CI's perf-smoke
job, so they all agree on what the workload is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.config import SimulationConfig
from repro.amr.driver import Simulation
from repro.solvers.mhd import MHDScheme
from repro.util.geometry import Box
from repro.util.timing import measure

__all__ = [
    "BenchCase",
    "DEFAULT_CASES",
    "QUICK_CASES",
    "build_uniform_mhd",
    "build_deep_pulse",
    "run_case",
    "run_cases",
    "run_subcycle_case",
    "check_equivalence",
    "check_subcycle_equivalence",
]


@dataclass(frozen=True)
class BenchCase:
    """One operating point of the speedup benchmark."""

    ndim: int
    m: int          #: cells per block edge
    n_root: int     #: root blocks per axis (B = n_root ** ndim)
    steps: int      #: timed steps (after warmup)

    @property
    def label(self) -> str:
        return f"{self.ndim}D {self.m}^{self.ndim} B={self.n_root ** self.ndim}"


#: Fig-5-style sweep: fixed total cells per dimension, block size varying
#: from the dispatch-bound regime (4^d) to the paper's production sizes
#: (16x16 in 2-D, 8^3 in 3-D).
DEFAULT_CASES: Tuple[BenchCase, ...] = (
    BenchCase(2, 4, 32, 6),
    BenchCase(2, 8, 16, 6),
    BenchCase(2, 16, 8, 6),
    BenchCase(3, 4, 8, 4),
    BenchCase(3, 8, 4, 4),
)

#: Reduced sweep for CI smoke runs.
QUICK_CASES: Tuple[BenchCase, ...] = (
    BenchCase(2, 4, 16, 4),
    BenchCase(2, 16, 4, 4),
)


def build_uniform_mhd(
    ndim: int,
    m: int,
    n_root: int,
    engine: str,
    *,
    seed: int = 42,
) -> Simulation:
    """Uniform periodic MHD forest with smooth random-ish initial data."""
    cfg = SimulationConfig(
        domain=Box((0.0,) * ndim, (1.0,) * ndim),
        n_root=(n_root,) * ndim,
        m=(m,) * ndim,
        periodic=(True,) * ndim,
        max_level=0,
    )
    forest = cfg.make_forest(8)
    scheme = MHDScheme(ndim)
    rng = np.random.default_rng(seed)
    for block in forest:
        w = np.empty((8,) + block.m)
        w[0] = 1.0 + 0.1 * rng.random(block.m)
        w[1:4] = 0.1
        w[4] = 1.0
        w[5:8] = 0.2
        block.interior[...] = scheme.prim_to_cons(w)
    return Simulation(forest, scheme, engine=engine)


def _time_engine(case: BenchCase, engine: str, warmup: int) -> Dict[str, Any]:
    with build_uniform_mhd(case.ndim, case.m, case.n_root, engine) as sim:
        for _ in range(max(warmup, 1)):
            sim.step()
        sim.timer = type(sim.timer)()  # drop warmup from phase totals
        n_cells = sim.forest.n_cells
        t0 = time.perf_counter()
        for _ in range(case.steps):
            sim.step()
        elapsed = time.perf_counter() - t0
        cell_steps = n_cells * case.steps
        return {
            "cells_per_s": cell_steps / elapsed,
            "us_per_cell": elapsed / cell_steps * 1e6,
            "wall_s": elapsed,
            "phases_s": {k: round(v, 6) for k, v in sim.timer.totals.items()},
            "tile_rows": sim.sweep_tile(),
        }


def run_case(case: BenchCase, *, warmup: int = 2) -> Dict[str, Any]:
    """Measure one-row and tiled sweeps on one case; returns a result
    record."""
    blocked = _time_engine(case, "blocked", warmup)
    batched = _time_engine(case, "batched", warmup)
    return {
        "label": case.label,
        "ndim": case.ndim,
        "m": case.m,
        "n_blocks": case.n_root ** case.ndim,
        "steps": case.steps,
        "blocked": blocked,
        "batched": batched,
        "speedup": batched["cells_per_s"] / blocked["cells_per_s"],
    }


def run_cases(
    cases: Sequence[BenchCase] = DEFAULT_CASES, *, warmup: int = 2
) -> List[Dict[str, Any]]:
    """Measure every case (see :func:`run_case`)."""
    return [run_case(c, warmup=warmup) for c in cases]


# ----------------------------------------------------------------------
# deep-hierarchy subcycling case
# ----------------------------------------------------------------------

#: deep-pulse workload: advection velocity, pulse center, pulse width
_PULSE_V = (1.0, 0.5)
_PULSE_C = (0.1, 0.1)
_PULSE_SIGMA = 0.05


def _deep_pulse_exact(t: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Exact advected-Gaussian profile at time ``t`` (periodic unit
    square), as an ``exact(x, y)`` callable for ``error_vs``."""

    def profile(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        dx = ((x - _PULSE_C[0] - _PULSE_V[0] * t + 0.5) % 1.0) - 0.5
        dy = ((y - _PULSE_C[1] - _PULSE_V[1] * t + 0.5) % 1.0) - 0.5
        return np.exp(-(dx * dx + dy * dy) / (2.0 * _PULSE_SIGMA**2))

    return profile


def build_deep_pulse(
    levels: int = 3,
    *,
    engine: str = "batched",
    subcycle: bool = False,
    n_root: int = 4,
    m: int = 8,
) -> Simulation:
    """Advected Gaussian on a deep *static* hierarchy: ``levels`` nested
    refinements piled on one corner root block (plus whatever the 2:1
    cascade drags along), most of the domain staying coarse — the
    workload where level-local time stepping pays the most.
    """
    from repro.core.block_id import BlockID
    from repro.solvers.advection import AdvectionScheme

    cfg = SimulationConfig(
        domain=Box((0.0, 0.0), (1.0, 1.0)),
        n_root=(n_root, n_root),
        m=(m, m),
        periodic=(True, True),
        max_level=levels,
    )
    forest = cfg.make_forest(1)
    for lvl in range(levels):
        forest.adapt([BlockID(lvl, (0, 0))])
    profile = _deep_pulse_exact(0.0)
    for block in forest:
        block.interior[0] = profile(*block.meshgrid())
    return Simulation(
        forest,
        AdvectionScheme(_PULSE_V, order=2),
        engine=engine,
        subcycle=subcycle,
    )


#: fresh runs per side of :func:`run_subcycle_case`; the wall reported is
#: the fastest (system noise only ever adds time)
SUBCYCLE_REPEATS = 3


def _best_wall(
    build: Callable[[], Simulation], advance: Callable[[Simulation], int]
) -> Tuple[float, int, Simulation]:
    """Min-of-:data:`SUBCYCLE_REPEATS` wall seconds of ``advance`` on a
    fresh simulation each time (construction untimed; the first step's
    ghost-plan compile is part of every repeat), the block updates it
    returned, and the last simulation advanced (closed)."""
    sims = [build() for _ in range(SUBCYCLE_REPEATS)]
    fresh = iter(sims)
    updates: List[int] = []
    try:
        timing = measure(
            lambda: updates.append(advance(next(fresh))),
            repeats=SUBCYCLE_REPEATS,
            warmup=0,
        )
    finally:
        for sim in sims:
            sim.close()
    return timing.best, updates[-1], sims[-1]


def run_subcycle_case(
    *,
    levels: int = 3,
    coarse_steps: int = 6,
    engine: str = "batched",
) -> Dict[str, Any]:
    """Subcycled vs global-dt stepping on the deep hierarchy.

    The subcycled run takes ``coarse_steps`` coarse steps; the global
    run integrates to the same physical time.  Two verdicts, both at
    matched solution error: ``beats_global`` — block updates per unit
    physical time fall by at least the ablation-predicted factor
    ``n_blocks * 2^depth / sum_b 2^(level_b - level_min)`` (exact when
    both runs step at their CFL limits) — and ``wins_wall`` — the
    subcycled run is faster in wall seconds, which the update count
    alone does not promise: every substep pays for its own ghost fill.
    """
    from repro.amr.subcycle import level_divisors

    def build(subcycle: bool) -> Simulation:
        return build_deep_pulse(levels, engine=engine, subcycle=subcycle)

    def subcycled(sim: Simulation) -> int:
        updates = 0
        for _ in range(coarse_steps):
            sim.advance(sim.stable_dt())
            updates += sim.updates_per_step()
        return updates

    wall_s, updates_s, sim_s = _best_wall(lambda: build(True), subcycled)
    t_end = sim_s.time
    err_s = sim_s.error_vs(_deep_pulse_exact(t_end))
    substeps = dict(sim_s._last_substeps or {})
    hist = sim_s.forest.level_histogram()
    present = sorted(hist)
    divisor = level_divisors(present)
    n_blocks = sum(hist.values())
    depth = present[-1] - present[0]
    predicted = n_blocks * (1 << depth) / sum(
        n * divisor[lvl] for lvl, n in hist.items()
    )

    def global_dt(sim: Simulation) -> int:
        updates = 0
        while sim.time < t_end - 1e-12:
            sim.advance(min(sim.stable_dt(), t_end - sim.time))
            updates += sim.updates_per_step()
        return updates

    wall_g, updates_g, sim_g = _best_wall(lambda: build(False), global_dt)
    err_g = sim_g.error_vs(_deep_pulse_exact(sim_g.time))
    measured = updates_g / updates_s
    return {
        "label": f"deep pulse L{levels}",
        "levels": len(present),
        "depth": depth,
        "n_blocks": n_blocks,
        "engine": engine,
        "coarse_steps": coarse_steps,
        "t_end": t_end,
        "substeps_per_coarse_step": {str(k): v for k, v in substeps.items()},
        "subcycled": {
            "updates": updates_s,
            "updates_per_time": updates_s / t_end,
            "wall_s": round(wall_s, 6),
            "error": err_s,
        },
        "global": {
            "updates": updates_g,
            "updates_per_time": updates_g / t_end,
            "wall_s": round(wall_g, 6),
            "error": err_g,
        },
        "wall_repeats": SUBCYCLE_REPEATS,
        "predicted_factor": predicted,
        "measured_factor": measured,
        "beats_global": bool(measured >= predicted * (1.0 - 1e-9)),
        "wins_wall": bool(wall_s < wall_g),
        "matched_error": bool(err_s <= 3.0 * err_g + 1e-4),
    }


def check_subcycle_equivalence(*, levels: int = 3, steps: int = 3) -> bool:
    """True iff the subcycled driver is bit-identical at one row and at
    a tile of rows per kernel call on the deep hierarchy (final state
    and dt history)."""
    runs = []
    for engine in ("blocked", "batched"):
        with build_deep_pulse(levels, engine=engine, subcycle=True) as sim:
            dts = []
            for _ in range(steps):
                dt = sim.stable_dt()
                dts.append(dt)
                sim.advance(dt)
            runs.append((dts, _final_state(sim)))
    (dts_a, a), (dts_b, b) = runs
    return (
        dts_a == dts_b
        and a.keys() == b.keys()
        and all(np.array_equal(a[k], b[k]) for k in a)
    )


def _final_state(sim: Simulation) -> Dict[Any, np.ndarray]:
    return {
        bid: sim.forest.blocks[bid].interior.copy() for bid in sim.forest.blocks
    }


def check_equivalence(
    case: BenchCase,
    *,
    steps: Optional[int] = None,
) -> bool:
    """True iff one-row and tiled sweeps produce bit-identical state on
    ``case``."""
    n_steps = case.steps if steps is None else steps
    sims = {}
    for engine in ("blocked", "batched"):
        with build_uniform_mhd(case.ndim, case.m, case.n_root, engine) as sim:
            for _ in range(n_steps):
                sim.step()
            sims[engine] = sim
    a, b = sims["blocked"], sims["batched"]
    if sorted(a.forest.blocks) != sorted(b.forest.blocks):
        return False
    if [r.dt for r in a.history] != [r.dt for r in b.history]:
        return False
    return all(
        np.array_equal(a.forest.blocks[bid].interior, b.forest.blocks[bid].interior)
        for bid in a.forest.blocks
    )
