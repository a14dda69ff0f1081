"""State-variable layouts and primitive/conserved conversions.

Three equation systems are supported, in increasing complexity:

* **Advection** — one scalar, used as the cheap correctness workload;
* **Euler** — compressible gas dynamics, ``ndim + 2`` variables;
* **Ideal MHD** — the paper's production system: 8 variables
  ``[rho, mx, my, mz, E, Bx, By, Bz]`` regardless of grid dimension
  (velocity and magnetic field always carry three components — the
  standard 2.5-D convention), with total energy including the magnetic
  contribution ``B^2/2`` (Lorentz–Heaviside units, mu0 = 1).

All conversions are vectorized over arrays of shape ``(nvar, ...)``.
Density and pressure floors keep the conversions robust near vacuum —
production block-AMR flow codes all do this.

The conversions, fluxes and wave speeds take an optional ``work``
(:class:`~repro.solvers.workspace.Workspace`) that their results and
temporaries are taken from; each formula in a docstring is evaluated
one numpy operation at a time, in the order written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.solvers.workspace import Workspace, scratch

__all__ = [
    "EulerLayout",
    "MHDLayout",
    "DEFAULT_GAMMA",
    "RHO_FLOOR",
    "P_FLOOR",
]

DEFAULT_GAMMA = 5.0 / 3.0
RHO_FLOOR = 1e-12
P_FLOOR = 1e-14


def sum_terms(terms: np.ndarray) -> np.ndarray:
    """``terms[0] + terms[1] + ...`` left to right, into ``terms[0]``.

    The sums it serves either never started from zero (``|B|^2``,
    ``u.B``) or add products of same-signed factors, ``>= +0`` or NaN
    (the kinetic energies, once ``ke = 0; ke += ...`` loops): for those
    a leading ``0.0 +`` changes no bit, so it is left out."""
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


@dataclass(frozen=True)
class EulerLayout:
    """Compressible Euler equations in ``ndim`` dimensions.

    Conserved: ``[rho, mom_0..mom_{d-1}, E]``.
    Primitive: ``[rho, u_0..u_{d-1}, p]``.
    """

    ndim: int
    gamma: float = DEFAULT_GAMMA

    @property
    def nvar(self) -> int:
        return self.ndim + 2

    @property
    def i_energy(self) -> int:
        return self.ndim + 1

    def momentum_index(self, axis: int) -> int:
        return 1 + axis

    def cons_to_prim(self, u: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        """Conserved → primitive, with floors applied:
        ``u_a = m_a / rho``, ``p = (gamma - 1) (E - 0.5 sum m_a u_a)``."""
        work = scratch(work)
        w = work.take(u.shape)
        scope = work.mark()
        u = work.contiguous(u)  # read several times
        mom, ie = slice(1, 1 + self.ndim), self.i_energy
        rho = np.maximum(u[0], RHO_FLOOR, out=w[0])
        np.divide(u[mom], rho, out=w[mom])
        ke = sum_terms(np.multiply(u[mom], w[mom], out=work.take(w[mom].shape)))
        ke *= 0.5
        p = np.subtract(u[ie], ke, out=w[ie])
        p *= self.gamma - 1.0
        np.maximum(p, P_FLOOR, out=p)
        work.release(scope)
        return w

    def prim_to_cons(self, w: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        """Primitive → conserved: ``m_a = rho u_a``,
        ``E = max(p, P_FLOOR) / (gamma - 1) + 0.5 sum rho u_a^2``."""
        work = scratch(work)
        u = work.like(w)
        scope = work.mark()
        mom, ie = slice(1, 1 + self.ndim), self.i_energy
        rho = np.maximum(w[0], RHO_FLOOR, out=u[0])
        np.multiply(rho, w[mom], out=u[mom])
        ke_terms = np.square(w[mom], out=work.like(w[mom]))
        ke_terms *= rho
        ke = sum_terms(ke_terms)
        e = np.maximum(w[ie], P_FLOOR, out=u[ie])
        e /= self.gamma - 1.0
        ke *= 0.5
        e += ke
        work.release(scope)
        return u

    def pressure(self, u: np.ndarray) -> np.ndarray:
        return self.cons_to_prim(u)[self.i_energy]

    def sound_speed(self, w: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        """Acoustic speed from primitives, ``sqrt(gamma p / rho)``."""
        work = scratch(work)
        c = np.multiply(self.gamma, w[self.i_energy], out=work.take(w.shape[1:]))
        scope = work.mark()
        c /= np.maximum(w[0], RHO_FLOOR, out=work.take(w.shape[1:]))
        work.release(scope)
        return np.sqrt(c, out=c)

    def max_signal_speed(self, u: np.ndarray) -> float:
        """max(|u_a| + c) over all cells and axes (CFL speed)."""
        w = self.cons_to_prim(u)
        c = self.sound_speed(w)
        best = 0.0
        for a in range(self.ndim):
            best = max(best, float(np.max(np.abs(w[1 + a]) + c)))
        return best

    def flux(self, w: np.ndarray, axis: int, work: Optional[Workspace] = None) -> np.ndarray:
        """Physical flux along ``axis`` from primitive variables:
        ``rho un``, ``rho un u_a`` (``+ p`` along ``axis``),
        ``un (e + p)`` with ``e = p / (gamma - 1) + 0.5 rho u_0^2 + ...``."""
        work = scratch(work)
        rho, un, p = w[0], w[1 + axis], w[self.i_energy]
        mom, shape = slice(1, 1 + self.ndim), w.shape[1:]
        f = work.like(w)
        scope = work.mark()
        np.multiply(rho, un, out=f[0])
        np.multiply(f[0], w[mom], out=f[mom])
        f[1 + axis] += p
        e = np.divide(p, self.gamma - 1.0, out=work.take(shape))
        ke_terms = np.square(w[mom], out=work.like(w[mom]))
        ke_terms *= np.multiply(0.5, rho, out=work.take(shape))
        for term in ke_terms:
            e += term
        e += p
        np.multiply(un, e, out=f[self.i_energy])
        work.release(scope)
        return f


@dataclass(frozen=True)
class MHDLayout:
    """Ideal MHD, 8 variables, any grid dimension (2.5-D convention).

    Conserved: ``[rho, mx, my, mz, E, Bx, By, Bz]`` with
    ``E = p/(gamma-1) + rho |u|^2 / 2 + |B|^2 / 2``.
    Primitive: ``[rho, ux, uy, uz, p, Bx, By, Bz]``.

    Within one workspace scope, :meth:`prim_to_cons`, :meth:`flux` and
    :meth:`fast_speed` of the *same* primitive array compute the floored
    density and pressure, the squared components and ``|B|^2`` once and
    share them (:meth:`~repro.solvers.workspace.Workspace.shared`).
    """

    gamma: float = DEFAULT_GAMMA

    nvar: int = 8
    I_RHO: int = 0
    I_MX: int = 1
    I_E: int = 4
    I_BX: int = 5

    def momentum_index(self, comp: int) -> int:
        return self.I_MX + comp

    def b_index(self, comp: int) -> int:
        return self.I_BX + comp

    # -- intermediates shared by the hooks of one primitive array ----------

    def _floored(self, w: np.ndarray, work: Workspace) -> np.ndarray:
        """``[max(rho, RHO_FLOOR), max(p, P_FLOOR)]``."""
        def compute() -> np.ndarray:
            out = work.take((2,) + w.shape[1:])
            np.maximum(w[0], RHO_FLOOR, out=out[0])
            np.maximum(w[4], P_FLOOR, out=out[1])
            return out
        return work.shared(w, "floored", compute)

    def _u_squares(self, w: np.ndarray, work: Workspace) -> np.ndarray:
        """``ux^2, uy^2, uz^2``."""
        return work.shared(w, "u2", lambda: np.square(w[1:4], out=work.like(w[1:4])))

    def _b2(self, w: np.ndarray, work: Workspace) -> np.ndarray:
        """``Bx^2 + By^2 + Bz^2``."""
        def compute() -> np.ndarray:
            b2 = np.square(w[5], out=work.take(w.shape[1:]))
            scope = work.mark()
            term = work.take(w.shape[1:])
            b2 += np.square(w[6], out=term)
            b2 += np.square(w[7], out=term)
            work.release(scope)
            return b2
        return work.shared(w, "b2", compute)

    def _half_b2(self, w: np.ndarray, work: Workspace) -> np.ndarray:
        """``0.5 |B|^2``, the magnetic pressure."""
        return work.shared(
            w, "half_b2",
            lambda: np.multiply(0.5, self._b2(w, work), out=work.take(w.shape[1:])),
        )

    # -- conversions, flux, wave speed ---------------------------------------

    def cons_to_prim(self, u: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        """``u_c = m_c / rho``,
        ``p = (gamma - 1) (E - 0.5 sum m_c u_c - 0.5 |B|^2)``, floored."""
        work = scratch(work)
        w = work.take(u.shape)
        scope = work.mark()
        u = work.contiguous(u)  # read several times
        vel, mag = slice(1, 4), slice(5, 8)
        rho = np.maximum(u[0], RHO_FLOOR, out=w[0])
        np.divide(u[vel], rho, out=w[vel])
        ke = sum_terms(np.multiply(u[vel], w[vel], out=work.take(w[vel].shape)))
        b2 = sum_terms(np.square(u[mag], out=work.take(w[mag].shape)))
        ke *= 0.5
        b2 *= 0.5
        p = np.subtract(u[4], ke, out=w[4])
        p -= b2
        p *= self.gamma - 1.0
        np.maximum(p, P_FLOOR, out=p)
        w[mag] = u[mag]
        work.release(scope)
        return w

    def prim_to_cons(self, w: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        """``m_c = rho u_c``,
        ``E = p / (gamma - 1) + 0.5 sum rho u_c^2 + 0.5 |B|^2``, with
        ``rho`` and ``p`` floored."""
        work = scratch(work)
        floored = self._floored(w, work)
        u_squares, half_b2 = self._u_squares(w, work), self._half_b2(w, work)
        rho = floored[0]
        u = work.like(w)
        scope = work.mark()
        u[0] = rho
        np.multiply(rho, w[1:4], out=u[1:4])
        ke = sum_terms(np.multiply(rho, u_squares, out=work.like(w[1:4])))
        e = np.divide(floored[1], self.gamma - 1.0, out=u[4])
        ke *= 0.5
        e += ke
        e += half_b2
        u[5:8] = w[5:8]
        work.release(scope)
        return u

    def fast_speed(
        self, w: np.ndarray, axis: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        """Fast magnetosonic speed normal to ``axis`` from primitives:
        ``sqrt(max(0.5 (s + sqrt(max(s s - 4 a2 bn2, 0))), 0))`` with
        ``a2 = gamma p / rho``, ``s = a2 + |B|^2 / rho`` and
        ``bn2 = B_axis^2 / rho`` (``rho``, ``p`` floored)."""
        work = scratch(work)
        shape = w.shape[1:]
        floored = self._floored(w, work)
        b2 = self._b2(w, work)
        rho = floored[0]
        s = np.divide(b2, rho, out=work.take(shape))
        scope = work.mark()
        a2 = np.multiply(self.gamma, floored[1], out=work.take(shape))
        a2 /= rho
        s += a2
        disc = np.square(w[5 + axis], out=work.take(shape))
        disc /= rho
        a2 *= 4.0
        a2 *= disc
        np.multiply(s, s, out=disc)
        disc -= a2
        np.maximum(disc, 0.0, out=disc)
        s += np.sqrt(disc, out=disc)
        s *= 0.5
        np.maximum(s, 0.0, out=s)
        work.release(scope)
        return np.sqrt(s, out=s)

    def max_signal_speed(self, u: np.ndarray, ndim: int) -> float:
        """max(|u_a| + c_fast,a) over cells and grid axes (CFL speed)."""
        w = self.cons_to_prim(u)
        best = 0.0
        for a in range(ndim):
            cf = self.fast_speed(w, a)
            best = max(best, float(np.max(np.abs(w[1 + a]) + cf)))
        return best

    def flux(self, w: np.ndarray, axis: int, work: Optional[Workspace] = None) -> np.ndarray:
        """Physical ideal-MHD flux along grid ``axis`` from primitives:
        ``rho un``; ``rho un u_c - bn B_c`` (``+ ptot`` along ``axis``);
        ``un (e + ptot) - bn u.B``; ``un B_c - u_c bn`` (0 along
        ``axis``) — with ``ptot = p + 0.5 |B|^2`` and
        ``e = p / (gamma - 1) + 0.5 rho |u|^2 + 0.5 |B|^2``."""
        work = scratch(work)
        rho, un, p, bn = w[0], w[1 + axis], w[4], w[5 + axis]
        vel, mag, shape = slice(1, 4), slice(5, 8), w.shape[1:]
        half_b2, u_squares = self._half_b2(w, work), self._u_squares(w, work)
        f = work.like(w)
        scope = work.mark()
        ptot = np.add(p, half_b2, out=work.take(shape))
        udotb = sum_terms(np.multiply(w[vel], w[mag], out=work.like(w[vel])))
        np.multiply(rho, un, out=f[0])
        np.multiply(f[0], w[vel], out=f[vel])
        term = np.multiply(bn, w[mag], out=work.like(w[mag]))
        f[vel] -= term
        f[1 + axis] += ptot
        ke = np.add(u_squares[0], u_squares[1], out=work.take(shape))
        ke += u_squares[2]
        ke *= np.multiply(0.5, rho, out=term[0])
        e = np.divide(p, self.gamma - 1.0, out=term[1])
        e += ke
        e += half_b2
        e += ptot
        np.multiply(un, e, out=f[4])
        f[4] -= np.multiply(bn, udotb, out=ke)
        np.multiply(un, w[mag], out=f[mag])
        f[mag] -= np.multiply(w[vel], bn, out=term)
        f[5 + axis] = 0.0
        work.release(scope)
        return f

    def div_b(self, u: np.ndarray, dx, ndim: int, g: int) -> np.ndarray:
        """Central-difference divergence of B over the interior cells.

        Shape: the interior (unpadded) cell array.  Used both by the
        Powell source term and as a diagnostic.
        """
        shape = u.shape[1:]
        interior = tuple(slice(g, s - g) for s in shape)
        div = np.zeros(tuple(s - 2 * g for s in shape))
        for a in range(ndim):
            plus = list(interior)
            minus = list(interior)
            plus[a] = slice(g + 1, shape[a] - g + 1)
            minus[a] = slice(g - 1, shape[a] - g - 1)
            div += (u[5 + a][tuple(plus)] - u[5 + a][tuple(minus)]) / (2.0 * dx[a])
        return div
