"""The four benchmark workloads.

Each workload is one stated problem advanced to a fixed physical end
time; ``wall_s`` is the time to that solution.  They are four different
programs as far as the layers are concerned (shares of wall measured by
the traced run, see README.md), which is why each exists:

* ``uniform_mhd3d`` — solver kernels do most of the work;
* ``amr_pulse2d`` — topology changes, so ghost plans and arena rows churn;
* ``deep_subcycle2d`` — per-level time-interpolated fills in substeps;
* ``proc_pulse2d_r2`` — the only one that runs ``parallel/``.

``--seed`` moves the pulse centre / wave phase.  The move is a whole
number of cells or root blocks on the periodic domain plus a jitter far
below a cell, so every seed is a different input (different bits, a
different set of refined blocks) of the *same* problem: a seed that
changed the block count would make ``wall_s`` measure the seed.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.config import SimulationConfig
from repro.amr.driver import Simulation
from repro.amr.problems import Problem, advecting_pulse
from repro.analysis.engine_bench import build_deep_pulse
from repro.core import BlockForest, BlockID
from repro.core.integrity import crc_bytes
from repro.core.reflux import FluxRegister
from repro.parallel import ProcConfig, ProcessMachine
from repro.parallel.shared_arena import SEGMENT_PREFIX, leaked_segments
from repro.resilience.validate import validate_forest
from repro.solvers import AdvectionScheme, MHDScheme
from repro.util.geometry import Box

from spans import SpanRecorder

__all__ = [
    "WORKLOADS", "Workload", "SerialCase", "ProcCase", "state_crc", "sweep_own_segments",
]

#: Seeded sub-cell offset of the pulse centre / wave phase (domain units;
#: the finest cell of any workload is 1/256).
JITTER = 1e-5
#: Relative mass drift allowed on the workloads that reflux.
MASS_DRIFT_MAX = 1e-12

Exact = Callable[[float], Callable[..., np.ndarray]]


def _gaussian(center: Sequence[float], velocity: Sequence[float], sigma: float) -> Exact:
    """Exact advected Gaussian on the periodic unit square."""

    def exact(t: float) -> Callable[..., np.ndarray]:
        def profile(*grids: np.ndarray) -> np.ndarray:
            r2 = np.zeros_like(grids[0])
            for x, c, v in zip(grids, center, velocity):
                d = (x - c - v * t + 0.5) % 1.0 - 0.5
                r2 += d * d
            return np.exp(-r2 / (2.0 * sigma**2))

        return profile

    return exact


def _set_interiors(blocks: Any, profile: Callable[..., np.ndarray]) -> None:
    for block in blocks:
        block.interior[0] = profile(*block.meshgrid())


def state_crc(interiors: Sequence[np.ndarray]) -> int:
    return crc_bytes(b"".join(np.ascontiguousarray(a).tobytes() for a in interiors))


def _l1_error(blocks: Any, profile: Callable[..., np.ndarray], var: int) -> float:
    """Volume-weighted L1 error (``Simulation.error_vs`` for blocks that
    no Simulation owns — the process machine's gathered state)."""
    err = vol = 0.0
    for block in blocks:
        cell = math.prod(block.dx)
        err += float(np.abs(block.interior[var] - profile(*block.meshgrid())).sum()) * cell
        vol += cell * block.n_cells
    return err / vol


# ----------------------------------------------------------------------
# cases: one built, warmed-up instance of a workload
# ----------------------------------------------------------------------


class SerialCase:
    """A :class:`Simulation` advanced to ``t_end`` (or ``n_steps`` fixed
    steps of ``fixed_dt``)."""

    def __init__(
        self,
        sim: Simulation,
        exact: Exact,
        *,
        var: int = 0,
        t_end: Optional[float] = None,
        fixed_dt: Optional[float] = None,
        n_steps: int = 0,
        conserves: bool = False,
    ) -> None:
        self.sim = sim
        self.scheme = sim.scheme
        self.exact = exact
        self.var = var
        self.t_end = t_end
        self.fixed_dt = fixed_dt
        self.n_steps = n_steps
        self.mass0 = sim.total() if conserves else None
        self.reflux_interfaces = 0
        self.refined = 0
        self.coarsened = 0
        sim.step(fixed_dt)  # warm-up: compiles the ghost plan, sizes scratch pools
        self._first = len(sim.history)

    def advance(self) -> Iterator[None]:
        sim = self.sim
        if self.fixed_dt is not None:
            for _ in range(self.n_steps):
                sim.step(self.fixed_dt)
                yield
            return
        assert self.t_end is not None
        while sim.time < self.t_end - 1e-14:
            sim.step(min(sim.stable_dt(), self.t_end - sim.time))
            yield

    # -- results -----------------------------------------------------------

    @property
    def steps(self) -> int:
        return len(self.sim.history) - self._first

    @property
    def block_updates(self) -> int:
        if self.sim.subcycle:  # static hierarchy: same count every step
            return self.steps * self.sim.updates_per_step()
        return sum(rec.n_blocks for rec in self.sim.history[self._first:])

    @property
    def mean_blocks(self) -> float:
        """Blocks one whole-forest ghost fill covers, averaged over steps."""
        return sum(rec.n_blocks for rec in self.sim.history[self._first:]) / self.steps

    @property
    def cells_per_block(self) -> int:
        return math.prod(self.sim.forest.m)

    def interiors(self) -> List[np.ndarray]:
        forest = self.sim.forest
        return [forest.blocks[bid].interior for bid in forest.sorted_ids()]

    def l1_error(self) -> float:
        return self.sim.error_vs(self.exact(self.sim.time), var=self.var)

    def verify(self) -> List[str]:
        problems: List[str] = []
        if self.mass0 is not None:
            drift = abs(self.sim.total() - self.mass0) / abs(self.mass0)
            if not drift <= MASS_DRIFT_MAX:
                problems.append(f"mass drift {drift:.3e} > {MASS_DRIFT_MAX:.0e}")
        if self.sim.criterion is not None:
            # Ghosts are legitimately stale after the last corrector.
            for violation in validate_forest(self.sim.forest, check_ghosts=False):
                problems.append(f"forest invariant: {violation}")
        return problems

    def instrument(self, rec: SpanRecorder) -> None:
        """Wrap the public entry points of every layer this case runs."""
        sim, forest, scheme = self.sim, self.sim.forest, self.sim.scheme
        rec.wrap(sim, "step", "amr.step")
        rec.wrap(sim, "advance", "amr.advance")
        rec.wrap(sim, "maybe_adapt", "core.criteria")
        rec.wrap(sim, "stable_dt", "solvers.cfl")
        rec.wrap(sim, "fill_ghosts", "core.ghost.fill")
        rec.wrap(scheme, "step", "solvers.step")
        rec.wrap(scheme, "flux_divergence", "solvers.flux_divergence")
        rec.wrap(forest, "adapt", "core.forest.adapt", self._count_adapt)
        rec.wrap(forest.arena, "ensure_compact", "core.arena.compact")
        # The driver rebuilds its register whenever the topology changes,
        # so there is no live object to wrap: patch the class.
        rec.wrap(FluxRegister, "apply", "core.reflux.apply", self._count_reflux)

    def layer_counts(self) -> Dict[str, float]:
        """Layer metrics only the case can count (see ``instrument``)."""
        return {
            "core.forest.blocks_refined": self.refined,
            "core.forest.blocks_coarsened": self.coarsened,
            "core.reflux.interfaces": self.reflux_interfaces,
        }

    def _count_adapt(self, summary: Any, *args: Any) -> None:
        self.refined += summary.refined
        self.coarsened += summary.coarsened

    def _count_reflux(self, result: Any, register: FluxRegister, *args: Any) -> None:
        self.reflux_interfaces += register.n_interfaces

    def close(self) -> None:
        self.sim.close()


class ProcCase:
    """A :class:`ProcessMachine` advanced ``n_steps`` fixed steps."""

    def __init__(
        self,
        forest: BlockForest,
        scheme: AdvectionScheme,
        exact: Exact,
        *,
        n_ranks: int,
        dt: float,
        n_steps: int,
        config: ProcConfig,
    ) -> None:
        self.scheme = scheme
        self.exact = exact
        self.dt = dt
        self.n_steps = n_steps
        self.steps = 0
        self.mean_blocks = self.n_blocks = forest.n_blocks
        self.cells_per_block = math.prod(forest.m)
        self.close_s = 0.0
        t0 = time.perf_counter()
        self.machine = ProcessMachine(forest, n_ranks, scheme, config=config)
        self.spawn_s = time.perf_counter() - t0
        try:
            self.machine.advance(dt)  # warm-up: first exchange, worker caches
        except BaseException:
            self.close()
            raise
        self.rank_cells = self.machine.rank_cells()
        self._phase0 = dict(self.machine.phase_seconds)
        self._wire0 = (self.machine.stats.n_messages, self.machine.stats.n_bytes)

    def advance(self) -> Iterator[None]:
        machine = self.machine
        for _ in range(self.n_steps):
            machine.advance(self.dt)
            self.steps += 1
            yield

    @property
    def block_updates(self) -> int:
        return self.steps * self.n_blocks

    def layer_counts(self) -> Dict[str, float]:
        """The supervisor's phase clocks and exact wire counts over the
        timed region (the warm-up step is subtracted)."""
        machine = self.machine
        phase = {k: v - self._phase0[k] for k, v in machine.phase_seconds.items()}
        messages = machine.stats.n_messages - self._wire0[0]
        return {
            "parallel.exchange_s": phase["exchange"],
            "parallel.compute_s": phase["compute"],
            "parallel.control_s": phase["control"],
            "parallel.exchange_frac": phase["exchange"] / sum(phase.values()),
            "parallel.wire_messages": messages,
            "parallel.wire_bytes": machine.stats.n_bytes - self._wire0[1],
            "parallel.messages_per_step": messages / self.steps,
            "parallel.spawn_s": self.spawn_s,
            "parallel.close_s": self.close_s,
            "parallel.imbalance": max(self.rank_cells) * len(self.rank_cells)
            / sum(self.rank_cells),
        }

    def _blocks(self) -> List[Any]:
        """Supervisor-side views of every block, in Morton order (valid
        until :meth:`close` releases the shared segments)."""
        blocks = self.machine.blocks_by_id()
        return [blocks[bid] for bid in self.machine.topology.sorted_ids()]

    def interiors(self) -> List[np.ndarray]:
        return [block.interior for block in self._blocks()]

    def l1_error(self) -> float:
        return _l1_error(self._blocks(), self.exact(self.machine.time), 0)

    def verify(self) -> List[str]:
        return [
            f"rank {d.rank} died ({d.kind}): {d.detail}" for d in self.machine.deaths
        ]

    def instrument(self, rec: SpanRecorder) -> None:
        # The scheme runs inside the workers; the supervisor's own phase
        # clocks (phase_seconds) and wire counts stand in for spans there.
        rec.wrap(self.machine, "advance", "parallel.advance")

    def close(self) -> None:
        t0 = time.perf_counter()
        try:
            self.machine.close()
        finally:
            self.close_s = time.perf_counter() - t0


def sweep_own_segments() -> List[str]:
    """Unlink any shared segment this process still owns in /dev/shm
    (``ProcessMachine.close`` frees them; this is the backstop for exit
    paths that never reached it).  Returns what it had to remove."""
    mine = f"{SEGMENT_PREFIX}-{os.getpid()}-"
    removed = []
    for name in leaked_segments():
        if name.startswith(mine):
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except FileNotFoundError:
                continue
            removed.append(name)
    return removed


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line for BENCHMARK.json: what this workload stresses
    why: str
    #: builds and warms up one case: ``setup(seed, variant)``
    setup: Callable[[int, Optional[str]], Any]
    #: steps of one repeat, to count the operations a dead repeat never ran
    nominal_steps: int
    #: frozen ceiling on ``l1_error`` (1.5x the value at the seed commit)
    l1_ceiling: float
    #: companion run of the traced pass: (variant, per-layer metric that
    #: reports companion raw wall / default raw wall)
    companion: Tuple[str, str]
    #: span names that must be called at least once in the traced run
    expected_spans: Tuple[str, ...]
    n_ranks: int = 1
    #: every timed step is the same operation (static forest, fixed dt,
    #: nothing periodic), so ``wall_s`` is steps x the fastest step of any
    #: repeat (``calib.pooled_min``) instead of a per-step stitch
    uniform_steps: bool = False
    #: variant whose final state must equal this workload's bit for bit
    reference: Optional[str] = None
    #: largest share of traced wall that may be driver self time (spans
    #: ``amr.step`` + ``amr.advance``) before the drift guard fires
    max_unattributed: Optional[float] = None


def _uniform_mhd3d(seed: int, variant: Optional[str]) -> SerialCase:
    rng = np.random.default_rng(seed)
    n_root, m = 6, 8
    cells = n_root * m
    phase = int(rng.integers(cells)) / cells + float(rng.uniform(-JITTER, JITTER))
    cfg = SimulationConfig(
        domain=Box((0.0,) * 3, (1.0,) * 3),
        n_root=(n_root,) * 3,
        m=(m,) * 3,
        periodic=(True,) * 3,
        max_level=0,
        engine=variant or "batched",
    )
    scheme = MHDScheme(
        3, 5.0 / 3.0,
        order=cfg.order, limiter=cfg.limiter, riemann=cfg.riemann, cfl=cfg.cfl,
    )
    amp = 0.1

    def init(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        # x-aligned circularly polarised Alfven wave (problems.alfven_wave in 3-D)
        w = np.zeros((8,) + x.shape)
        w[0], w[4], w[5] = 1.0, 0.1, 1.0
        w[6] = amp * np.cos(2.0 * np.pi * (x - phase))
        w[7] = amp * np.sin(2.0 * np.pi * (x - phase))
        w[2], w[3] = -w[6], -w[7]
        return w

    def exact(t: float) -> Callable[..., np.ndarray]:
        return lambda x, y, z: amp * np.cos(2.0 * np.pi * (x - phase - t))

    problem = Problem("uniform_mhd3d", cfg, scheme, init, exact=exact, monitor_var=6)
    sim = problem.build(adaptive=False)
    return SerialCase(sim, exact, var=6, t_end=0.0162)


def _amr_pulse2d(seed: int, variant: Optional[str]) -> SerialCase:
    rng = np.random.default_rng(seed)
    n_root = 4
    # Base centre off every block edge, so the sub-cell jitter cannot flip
    # a refinement flag; translations by whole root blocks are symmetries
    # of the periodic problem.
    center = tuple(
        (c + int(rng.integers(n_root)) / n_root + float(rng.uniform(-JITTER, JITTER))) % 1.0
        for c in (0.34, 0.58)
    )
    cfg = SimulationConfig(
        domain=Box((0.0, 0.0), (1.0, 1.0)),
        n_root=(n_root, n_root),
        m=(8, 8),
        periodic=(True, True),
        max_level=3,
        refine_threshold=0.08,
        coarsen_threshold=0.02,
        adapt_interval=4,
        engine=variant or "batched",
    )
    base = advecting_pulse(2, config=cfg)
    exact = _gaussian(center, base.scheme.velocity, 0.08)
    problem = replace(
        base, exact=exact, init_primitive=lambda *g: exact(0.0)(*g)[np.newaxis]
    )
    sim = problem.build()
    sim.reflux = True
    return SerialCase(sim, exact, t_end=0.019, conserves=True)


def _deep_subcycle2d(seed: int, variant: Optional[str]) -> SerialCase:
    rng = np.random.default_rng(seed)
    center = tuple(0.1 + float(rng.uniform(-JITTER, JITTER)) for _ in range(2))
    sim = build_deep_pulse(4, engine="batched", subcycle=variant != "global")
    sim.reflux = True
    exact = _gaussian(center, sim.scheme.velocity, 0.05)
    _set_interiors(sim.forest, exact(0.0))
    return SerialCase(sim, exact, t_end=0.0185, conserves=True)


_PROC_DT = 1e-4
_PROC_STEPS = 60
#: Bounded so a wedged rank costs seconds, not the driver's whole cap.
_PROC_CONFIG = ProcConfig(
    phase_timeout=5.0, hard_timeout=20.0, heartbeat_timeout=5.0, shutdown_timeout=2.0
)


def _proc_pulse2d_r2(seed: int, variant: Optional[str]) -> Any:
    rng = np.random.default_rng(seed)
    center = tuple(0.5 + float(rng.uniform(-JITTER, JITTER)) for _ in range(2))
    forest = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (10, 10), (32, 32), nvar=1,
        n_ghost=2, periodic=(True, True), max_level=2,
    )
    forest.adapt([BlockID(0, c) for c in ((2, 3), (7, 6), (4, 8), (8, 1))])
    scheme = AdvectionScheme((1.0, 0.5), order=2)
    exact = _gaussian(center, scheme.velocity, 0.1)
    _set_interiors(forest, exact(0.0))
    if variant == "serial":
        return SerialCase(
            Simulation(forest, scheme), exact,
            fixed_dt=_PROC_DT, n_steps=_PROC_STEPS,
        )
    return ProcCase(
        forest, scheme, exact,
        n_ranks=2, dt=_PROC_DT, n_steps=_PROC_STEPS, config=_PROC_CONFIG,
    )


_SIM_SPANS = (
    "amr.step", "amr.advance", "core.ghost.fill",
    "solvers.step", "solvers.flux_divergence", "solvers.cfl",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "uniform_mhd3d",
            "3-D MHD on a static uniform forest (24 MB pool): the only workload "
            "where solver kernels are most of wall; ghost plans stay warm",
            _uniform_mhd3d, nominal_steps=6, l1_ceiling=6.0e-5,
            companion=("blocked", "amr.blocked_over_batched"),
            expected_spans=_SIM_SPANS + ("core.arena.compact",),
            max_unattributed=0.30,
        ),
        Workload(
            "amr_pulse2d",
            "adaptive 2-D pulse, adapt every 4 steps with reflux: topology writes "
            "invalidate ghost plans and churn arena rows; ghost exchange dominates",
            _amr_pulse2d, nominal_steps=24, l1_ceiling=2.9e-5,
            companion=("blocked", "amr.blocked_over_batched"),
            expected_spans=_SIM_SPANS + (
                "core.criteria", "core.forest.adapt", "core.arena.compact",
                "core.reflux.apply",
            ),
        ),
        Workload(
            "deep_subcycle2d",
            "static 5-level hierarchy, subcycled with reflux: per-level "
            "time-interpolated fills inside substeps; isolates per-substep driver cost",
            _deep_subcycle2d, nominal_steps=2, l1_ceiling=1.9e-4,
            companion=("global", "amr.subcycle.global_wall_ratio"),
            expected_spans=_SIM_SPANS + ("core.arena.compact", "core.reflux.apply"),
        ),
        Workload(
            "proc_pulse2d_r2",
            "2 real rank processes, 114688 cells, shared-memory exchange: the only "
            "workload that runs parallel/; big enough that pipe latency is not the answer",
            _proc_pulse2d_r2, nominal_steps=_PROC_STEPS, l1_ceiling=2.5e-6,
            companion=("serial", "parallel.speedup_vs_serial"),
            expected_spans=("parallel.advance",),
            n_ranks=2, uniform_steps=True, reference="serial",
        ),
    )
}
