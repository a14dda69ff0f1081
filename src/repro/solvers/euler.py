"""Compressible Euler scheme (gas dynamics).

A Godunov-type finite-volume scheme for the Euler equations in 1/2/3
dimensions: the intermediate-complexity workload between advection and
the paper's production ideal-MHD system, and the system solved by the
De Zeeuw & Powell adaptive Cartesian-grid Euler solver that preceded it.
Supports an optional uniform gravitational acceleration (buoyancy-driven
problems such as Rayleigh–Taylor).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.solvers.scheme import FVScheme
from repro.solvers.state import DEFAULT_GAMMA, EulerLayout
from repro.solvers.workspace import Workspace, scratch

__all__ = ["EulerScheme"]


class EulerScheme(FVScheme):
    """Finite-volume compressible Euler equations.

    Parameters
    ----------
    ndim:
        Grid (and velocity) dimension, 1–3.
    gamma:
        Ratio of specific heats.
    gravity:
        Optional uniform acceleration vector (length ``ndim``); adds the
        source ``d(rho u)/dt += rho g``, ``dE/dt += rho u·g``.
    rho_floor / p_floor:
        Optional positivity floors (same contract as
        :class:`repro.solvers.mhd.MHDScheme`): strong rarefactions and
        under-resolved blast interiors can drive density or pressure
        negative; the floors clip them up after every update stage,
        rebuilding the total energy consistently.  ``None`` (default)
        disables the fix-up.
    """

    def __init__(
        self,
        ndim: int,
        gamma: float = DEFAULT_GAMMA,
        *,
        gravity: Optional[Sequence[float]] = None,
        rho_floor: Optional[float] = None,
        p_floor: Optional[float] = None,
        **kw,
    ) -> None:
        super().__init__(**kw)
        if not 1 <= ndim <= 3:
            raise ValueError(f"ndim must be 1..3, got {ndim}")
        if rho_floor is not None and rho_floor <= 0:
            raise ValueError("rho_floor must be positive")
        if p_floor is not None and p_floor <= 0:
            raise ValueError("p_floor must be positive")
        self.layout = EulerLayout(ndim, gamma)
        self.ndim = ndim
        self.gamma = gamma
        self.rho_floor = rho_floor
        self.p_floor = p_floor
        if gravity is not None:
            gravity = tuple(float(g) for g in gravity)
            if len(gravity) != ndim:
                raise ValueError(
                    f"gravity needs {ndim} components, got {len(gravity)}"
                )
            if all(g == 0.0 for g in gravity):
                gravity = None
        self.gravity = gravity
        self.nvar = self.layout.nvar

    def source(self, u_interior, w, dx, g, work=None):
        # Elementwise in the conserved interior (var axis first, any
        # trailing layout — per-block or var-major batched stack).
        if self.gravity is None:
            return None
        work = scratch(work)
        src = work.take(u_interior.shape)
        src[...] = 0.0
        scope = work.mark()
        term = work.take(u_interior.shape[1:])
        rho = u_interior[0]
        for a, grav in enumerate(self.gravity):
            if grav == 0.0:
                continue
            src[1 + a] += np.multiply(rho, grav, out=term)
            src[self.layout.i_energy] += np.multiply(u_interior[1 + a], grav, out=term)
        work.release(scope)
        return src

    def apply_floors(self, u: np.ndarray) -> None:
        """Clip density/pressure up to the configured floors, in place.

        Velocity is preserved; total energy is rebuilt consistently.
        No-op when no floors are configured.
        """
        if self.rho_floor is None and self.p_floor is None:
            return
        w = self.layout.cons_to_prim(u)
        if self.rho_floor is not None:
            np.maximum(w[0], self.rho_floor, out=w[0])
        if self.p_floor is not None:
            np.maximum(w[self.nvar - 1], self.p_floor, out=w[self.nvar - 1])
        u[...] = self.layout.prim_to_cons(w)

    @property
    def positivity_indices(self):
        # Density and pressure (primitive layout [rho, u..., p]); the
        # matching conserved slots (rho, E) must be positive too.
        return (0, self.nvar - 1)

    def cons_to_prim(self, u: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        return self.layout.cons_to_prim(u, work)

    def prim_to_cons(self, w: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        return self.layout.prim_to_cons(w, work)

    def flux(self, w: np.ndarray, axis: int, work: Optional[Workspace] = None) -> np.ndarray:
        return self.layout.flux(w, axis, work)

    def normal_velocity(
        self, w: np.ndarray, axis: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        return w[1 + axis]

    def char_speed(
        self, w: np.ndarray, axis: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        return self.layout.sound_speed(w, work)
