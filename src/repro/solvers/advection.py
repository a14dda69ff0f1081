"""Linear advection scheme — the cheap correctness workload.

Advects a single scalar with a constant velocity.  Primitive and
conserved variables coincide, the flux is linear, and the exact solution
is a translation — which makes this scheme the library's main
convergence and conservation oracle.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.solvers.scheme import FVScheme
from repro.solvers.workspace import Workspace, scratch

__all__ = ["AdvectionScheme"]


class AdvectionScheme(FVScheme):
    """Constant-velocity scalar advection in any dimension.

    Parameters
    ----------
    velocity:
        Advection velocity vector; its length fixes the grid dimension.
    """

    def __init__(self, velocity: Sequence[float], **kw) -> None:
        super().__init__(**kw)
        self.velocity = tuple(float(v) for v in velocity)
        if not self.velocity:
            raise ValueError("velocity must have at least one component")
        self.nvar = 1

    def cons_to_prim(self, u: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        return scratch(work).copy(u)

    def prim_to_cons(self, w: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        return scratch(work).copy(w)

    def flux(self, w: np.ndarray, axis: int, work: Optional[Workspace] = None) -> np.ndarray:
        return np.multiply(self.velocity[axis], w, out=scratch(work).like(w))

    def normal_velocity(
        self, w: np.ndarray, axis: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        return scratch(work).full(w.shape[1:], self.velocity[axis])

    def char_speed(
        self, w: np.ndarray, axis: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        return scratch(work).full(w.shape[1:], 0.0)
