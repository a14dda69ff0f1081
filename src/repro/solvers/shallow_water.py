"""Shallow-water equations — the geophysical-flow workload.

``h_t + div(h u) = 0``, ``(h u)_t + div(h u u) + grad(g h^2 / 2) = 0``:
a 2-variable-per-axis hyperbolic system with gravity-wave dynamics.
Structurally it is the Euler system with a ``p = g h^2 / 2`` barotropic
closure, so it reuses the whole MUSCL/Riemann machinery and adds a
second physical regime (dam breaks, gravity waves) for the AMR tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.solvers.scheme import FVScheme
from repro.solvers.state import RHO_FLOOR
from repro.solvers.workspace import Workspace, scratch

__all__ = ["ShallowWaterScheme"]


class ShallowWaterScheme(FVScheme):
    """Finite-volume shallow-water equations in 1 or 2 dimensions.

    Conserved: ``[h, hu_0(, hu_1)]``.  Primitive: ``[h, u_0(, u_1)]``.

    Parameters
    ----------
    ndim:
        Spatial dimension, 1 or 2.
    gravity:
        Gravitational acceleration ``g``.
    h_floor:
        Optional water-depth floor: drying fronts can pull ``h``
        negative after an update stage; the floor clips it up in place
        (momentum untouched).  ``None`` (default) disables the fix-up.
    """

    def __init__(
        self,
        ndim: int,
        gravity: float = 9.81,
        *,
        h_floor: float | None = None,
        **kw,
    ) -> None:
        super().__init__(**kw)
        if ndim not in (1, 2):
            raise ValueError(f"ndim must be 1 or 2, got {ndim}")
        if gravity <= 0:
            raise ValueError("gravity must be positive")
        if h_floor is not None and h_floor <= 0:
            raise ValueError("h_floor must be positive")
        self.ndim = ndim
        self.gravity = gravity
        self.h_floor = h_floor
        self.nvar = ndim + 1

    def apply_floors(self, u: np.ndarray) -> None:
        """Clip the water depth up to ``h_floor``, in place (no-op when
        unconfigured)."""
        if self.h_floor is None:
            return
        np.maximum(u[0], self.h_floor, out=u[0])

    def cons_to_prim(self, u: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        w = scratch(work).like(u)
        h = np.maximum(u[0], RHO_FLOOR, out=w[0])
        np.divide(u[1:], h, out=w[1:])
        return w

    def prim_to_cons(self, w: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        u = scratch(work).like(w)
        h = np.maximum(w[0], RHO_FLOOR, out=u[0])
        np.multiply(h, w[1:], out=u[1:])
        return u

    def flux(self, w: np.ndarray, axis: int, work: Optional[Workspace] = None) -> np.ndarray:
        # h un, h un u_a (+ 0.5 g h h along ``axis``)
        work = scratch(work)
        h, un = w[0], w[1 + axis]
        f = work.like(w)
        scope = work.mark()
        np.multiply(h, un, out=f[0])
        np.multiply(f[0], w[1:], out=f[1:])
        head = np.multiply(0.5 * self.gravity, h, out=work.take(h.shape))
        head *= h
        f[1 + axis] += head
        work.release(scope)
        return f

    def normal_velocity(
        self, w: np.ndarray, axis: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        return w[1 + axis]

    def char_speed(
        self, w: np.ndarray, axis: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        c = np.maximum(w[0], RHO_FLOOR, out=scratch(work).take(w.shape[1:]))
        c *= self.gravity
        return np.sqrt(c, out=c)
