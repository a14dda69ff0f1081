"""Simulation configuration.

One dataclass gathering every knob the paper discusses: block size
``m`` (the central trade-off parameter, 16^3 on the T3D), ghost width
(1 for first order, 2 for higher resolution), the level-jump constraint,
refinement thresholds and the adaptation-check interval ("the frequency
of checking criteria").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.util.geometry import Box

__all__ = ["SimulationConfig"]


@dataclass
class SimulationConfig:
    """Configuration of one AMR simulation.

    Parameters mirror :class:`repro.core.forest.BlockForest` plus the
    solver and adaptation knobs.
    """

    domain: Box
    n_root: Tuple[int, ...]
    m: Tuple[int, ...] = (8, 8)
    n_ghost: int = 2
    periodic: Optional[Tuple[bool, ...]] = None
    max_level: int = 4
    max_level_jump: int = 1
    prolong_order: int = 2

    # solver
    order: int = 2
    limiter: str = "van_leer"
    riemann: str = "rusanov"
    cfl: float = 0.4

    # adaptation
    adapt_interval: int = 4          #: steps between criterion checks
    refine_threshold: float = 0.10
    coarsen_threshold: float = 0.02
    buffer_band: int = 1             #: rings of neighbors pulled into refinement

    # rows per kernel call: "blocked" (one) or "batched" (a tile) —
    # see repro.amr.driver.Simulation
    engine: str = "batched"

    # time stepping: False advances every block with one global
    # CFL-limited dt; True subcycles — each level steps with its own dt
    # (2^delta substeps per coarse step, time-interpolated ghosts; see
    # repro.amr.subcycle)
    subcycle: bool = False

    def __post_init__(self) -> None:
        if self.adapt_interval < 1:
            raise ValueError("adapt_interval must be >= 1")
        if self.engine not in ("blocked", "batched"):
            raise ValueError(
                f"engine must be 'blocked' or 'batched', got {self.engine!r}"
            )
        if self.n_ghost < self.order:
            raise ValueError(
                f"order {self.order} needs at least {self.order} ghost layers, "
                f"got {self.n_ghost}"
            )

    @property
    def ndim(self) -> int:
        return self.domain.ndim

    def make_forest(self, nvar: int):
        """Construct the block forest described by this configuration."""
        from repro.core.forest import BlockForest

        return BlockForest(
            self.domain,
            self.n_root,
            self.m,
            nvar,
            n_ghost=self.n_ghost,
            periodic=self.periodic,
            max_level=self.max_level,
            max_level_jump=self.max_level_jump,
            prolong_order=self.prolong_order,
        )
