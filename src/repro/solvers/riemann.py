"""Approximate Riemann solvers (numerical face fluxes).

Every solver takes the left and right *primitive* face states stacked
on axis 1 — ``w[:, 0]`` left, ``w[:, 1]`` right, shape
``(nvar, 2, n_faces, ...)`` — and delegates the physics (flux function,
characteristic speeds, variable conversion) to the scheme object, so the
same code serves advection, Euler and MHD.  The stacking lets each
physics hook run once for both sides of every face.  Results and
temporaries live in ``work`` (see :mod:`repro.solvers.workspace`).

* :func:`rusanov` — local Lax–Friedrichs: maximally robust, the default
  for the MHD runs (matching the diffusive Riemann solvers the original
  BATS-R-US era codes used for production robustness);
* :func:`hll` — two-wave HLL: sharper contact/shock resolution;
* :func:`hllc` — three-wave HLLC for the Euler family.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

from repro.solvers.workspace import Workspace, scratch

if TYPE_CHECKING:  # pragma: no cover
    from repro.solvers.scheme import FVScheme

__all__ = ["rusanov", "hll", "get_riemann", "RIEMANN_SOLVERS"]


def rusanov(
    scheme: "FVScheme", w: np.ndarray, axis: int, work: Optional[Workspace] = None
) -> np.ndarray:
    """Local Lax–Friedrichs flux: central flux plus |lambda|max dissipation,
    ``0.5 (fl + fr) - 0.5 smax (ur - ul)``."""
    work = scratch(work)
    out = work.take(w[:, 0].shape)
    scope = work.mark()
    f = scheme.flux(w, axis, work)
    u = scheme.prim_to_cons(w, work)
    speed = scheme.max_char_speed(w, axis, work)
    np.add(f[:, 0], f[:, 1], out=out)
    out *= 0.5
    smax = np.maximum(speed[0], speed[1], out=speed[0])
    smax *= 0.5
    jump = np.subtract(u[:, 1], u[:, 0], out=u[:, 0])
    jump *= smax
    out -= jump
    work.release(scope)
    return out


def hll(
    scheme: "FVScheme", w: np.ndarray, axis: int, work: Optional[Workspace] = None
) -> np.ndarray:
    """Harten–Lax–van Leer two-wave flux,
    ``(sr fl - sl fr + sl sr (ur - ul)) / (sr - sl)``."""
    work = scratch(work)
    out = work.take(w[:, 0].shape)
    scope = work.mark()
    f = scheme.flux(w, axis, work)
    u = scheme.prim_to_cons(w, work)
    un = scheme.normal_velocity(w, axis, work)
    c = scheme.char_speed(w, axis, work)
    # sl = min(min(unl - cl, unr - cr), 0), sr = max(max(unl + cl, unr + cr), 0)
    low = np.subtract(un, c, out=work.take(c.shape))
    sl = np.minimum(low[0], low[1], out=low[0])
    np.minimum(sl, 0.0, out=sl)
    high = np.add(un, c, out=work.take(c.shape))
    sr = np.maximum(high[0], high[1], out=high[0])
    np.maximum(sr, 0.0, out=sr)
    # sr - sl, or 1 where it is not above 1e-300
    width = np.subtract(sr, sl, out=work.take(sr.shape))
    narrow = np.greater(width, 1e-300, out=work.take(sr.shape, np.bool_))
    np.copyto(width, 1.0, where=np.logical_not(narrow, out=narrow))
    np.multiply(sr, f[:, 0], out=out)
    term = np.multiply(sl, f[:, 1], out=work.take(out.shape))
    out -= term
    np.subtract(u[:, 1], u[:, 0], out=term)
    term *= np.multiply(sl, sr, out=low[1])
    out += term
    out /= width
    work.release(scope)
    return out


def hllc(
    scheme: "FVScheme", w: np.ndarray, axis: int, work: Optional[Workspace] = None
) -> np.ndarray:
    """HLLC three-wave flux (restores the contact wave; Euler-family only).

    Requires the scheme to expose a hydrodynamic layout: density in slot
    0, one momentum per grid axis, pressure/energy last — i.e.
    :class:`repro.solvers.euler.EulerScheme`.  Schemes with additional
    waves (MHD) fall back to :func:`hll` automatically.
    """
    layout = getattr(scheme, "layout", None)
    if layout is None or not hasattr(layout, "i_energy"):
        return hll(scheme, w, axis, work)
    work = scratch(work)
    ie = layout.i_energy
    wl, wr = w[:, 0], w[:, 1]
    rho_l, rho_r = wl[0], wr[0]
    u_l, u_r = wl[1 + axis], wr[1 + axis]
    p_l, p_r = wl[ie], wr[ie]
    c = scheme.char_speed(w, axis, work)
    c_l, c_r = c[0], c[1]
    s_l = np.minimum(u_l - c_l, u_r - c_r)
    s_r = np.maximum(u_l + c_l, u_r + c_r)
    # Contact speed (Toro eq. 10.37).
    num = p_r - p_l + rho_l * u_l * (s_l - u_l) - rho_r * u_r * (s_r - u_r)
    den = rho_l * (s_l - u_l) - rho_r * (s_r - u_r)
    s_star = num / np.where(np.abs(den) > 1e-300, den, 1e-300)

    u = scheme.prim_to_cons(w, work)
    f = scheme.flux(w, axis, work)
    ul, ur = u[:, 0], u[:, 1]
    fl, fr = f[:, 0], f[:, 1]

    def star_state(w, u_cons, s, un):
        rho = w[0]
        p = w[ie]
        factor = rho * (s - un) / np.where(
            np.abs(s - s_star) > 1e-300, s - s_star, 1e-300
        )
        star = np.empty_like(u_cons)
        star[0] = factor
        for a in range(scheme.ndim):
            star[1 + a] = factor * w[1 + a]
        star[1 + axis] = factor * s_star
        e = u_cons[ie] / np.where(rho > 1e-300, rho, 1e-300)
        star[ie] = factor * (
            e + (s_star - un) * (s_star + p / (rho * np.where(
                np.abs(s - un) > 1e-300, s - un, 1e-300)))
        )
        return star

    star_l = star_state(wl, ul, s_l, u_l)
    star_r = star_state(wr, ur, s_r, u_r)
    f_star_l = fl + s_l * (star_l - ul)
    f_star_r = fr + s_r * (star_r - ur)

    out = np.where(s_l >= 0.0, fl, 0.0)
    out = np.where((s_l < 0.0) & (s_star >= 0.0), f_star_l, out)
    out = np.where((s_star < 0.0) & (s_r > 0.0), f_star_r, out)
    out = np.where(s_r <= 0.0, fr, out)
    return out


RIEMANN_SOLVERS: Dict[str, Callable] = {
    "rusanov": rusanov,
    "hll": hll,
    "hllc": hllc,
}


def get_riemann(name: str) -> Callable:
    """Look up a Riemann solver by name."""
    try:
        return RIEMANN_SOLVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown Riemann solver {name!r}; available: "
            f"{sorted(RIEMANN_SOLVERS)}"
        ) from None
