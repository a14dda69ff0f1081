"""The deep static hierarchy workload, :func:`build_deep_pulse`.

An advected Gaussian on a 2-D forest whose refinement is piled on one
corner root block: the workload where level-local time stepping pays
the most.  It lives here because the repo benchmark's
``deep_subcycle2d`` workload imports it from this module
(``benchmarks/e2e/workloads.py``), and that file changes only together
with the benchmark; the subcycling, ghost-oracle, process-exchange and
resilience tests build their deep forests with it too.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.amr.config import SimulationConfig
from repro.amr.driver import Simulation
from repro.util.geometry import Box

__all__ = ["build_deep_pulse"]


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
