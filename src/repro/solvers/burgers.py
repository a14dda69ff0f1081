"""Inviscid Burgers equation — the minimal nonlinear workload.

``q_t + div(q^2/2 * v_hat) = 0`` along a fixed unit direction.  Shocks
form from smooth data in finite time, which makes this the smallest
system that exercises the limiter/AMR machinery on self-steepening
solutions (with known exact pre-shock solutions via characteristics).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.solvers.scheme import FVScheme
from repro.solvers.workspace import Workspace, scratch

__all__ = ["BurgersScheme"]


class BurgersScheme(FVScheme):
    """Scalar inviscid Burgers flow along a fixed direction.

    Parameters
    ----------
    direction:
        Unit-ish vector giving the flow direction per axis; the flux
        along axis ``a`` is ``direction[a] * q^2 / 2``.
    """

    def __init__(self, direction: Sequence[float] = (1.0,), **kw) -> None:
        super().__init__(**kw)
        self.direction = tuple(float(v) for v in direction)
        if not self.direction:
            raise ValueError("direction must have at least one component")
        self.nvar = 1

    def cons_to_prim(self, u: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        return scratch(work).copy(u)

    def prim_to_cons(self, w: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        return scratch(work).copy(w)

    def flux(self, w: np.ndarray, axis: int, work: Optional[Workspace] = None) -> np.ndarray:
        # 0.5 * direction * q * q
        f = np.multiply(0.5 * self.direction[axis], w, out=scratch(work).like(w))
        f *= w
        return f

    def normal_velocity(
        self, w: np.ndarray, axis: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        # Characteristic speed: f'(q) = direction * q.
        return np.multiply(self.direction[axis], w[0], out=scratch(work).take(w.shape[1:]))

    def char_speed(
        self, w: np.ndarray, axis: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        return scratch(work).full(w.shape[1:], 0.0)
