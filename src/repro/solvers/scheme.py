"""Finite-volume scheme framework operating on whole block arrays.

A :class:`FVScheme` advances one block's padded state array by one time
step with a Godunov-type finite-volume update:

* order 1 — piecewise-constant states, one ghost layer required;
* order 2 — MUSCL limited-linear reconstruction of primitive variables
  (the "higher-resolution methods" of the paper's reference [6]),
  two ghost layers required — exactly the ghost-width trade-off the
  paper discusses.

Every operation is a whole-array numpy expression over the block: this
is the Python analogue of the loop/cache optimization over per-block
Fortran arrays that motivated adaptive blocks, and what the Figure-5
benchmark measures.  Concrete schemes (advection, Euler, MHD) supply the
physics via a handful of hooks; the reconstruction/update machinery here
is shared.

Batched (vectorized-over-blocks) arrays
---------------------------------------

The machinery methods (:meth:`FVScheme.face_states`,
:meth:`FVScheme.flux_divergence`, :meth:`FVScheme.step`) index spatial
axes *from the right*, so the same code serves two layouts:

* per-block ``(nvar, *spatial)`` padded arrays (``ndim`` defaults to
  ``u.ndim - 1``), and
* ``(B, nvar, *spatial)`` stacks of ``B`` same-shape blocks — pass the
  grid ``ndim`` explicitly and the leading axis is treated as a batch.

Internally a batched stack is normalized to a *var-major*
``(nvar, B, *spatial)`` view (``np.moveaxis`` — no copy), so the physics
hooks, which index the variable axis first (``u[0]`` is density
everywhere), operate on all blocks at once with the batch axis riding
along.  Every kernel is an elementwise IEEE ufunc expression, so batched
and per-block execution are bit-for-bit identical.

``dx`` entries may be Python floats (per-block path) or
``(B, 1, ..., 1)`` arrays broadcasting one width per block (batched
path); both divide each block's flux differences by the same float64
value, hence identical results.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.solvers.limiters import get_limiter
from repro.solvers.riemann import get_riemann

__all__ = ["FVScheme"]


class _KernelCalls:
    """Kernel calls of one scheme: non-capturing ``flux_divergence``
    calls plus CFL tiles (``dispatches``); ``stats()`` feeds the e2e
    benchmark's ``kernels.*`` per-layer metrics."""

    def __init__(self) -> None:
        self.dispatches = 0

    def stats(self) -> Dict[str, int]:
        return {"dispatches": self.dispatches, "fallbacks": 0}


class FVScheme(ABC):
    """Base class for block-array finite-volume schemes.

    Parameters
    ----------
    order:
        Spatial order: 1 (piecewise constant) or 2 (MUSCL).
    limiter:
        Slope-limiter name for order 2 (see
        :data:`repro.solvers.limiters.LIMITERS`).
    riemann:
        Face-flux solver name (see
        :data:`repro.solvers.riemann.RIEMANN_SOLVERS`).
    cfl:
        Default CFL number used by the drivers.
    """

    #: number of state variables — set by subclasses
    nvar: int

    def __init__(
        self,
        *,
        order: int = 2,
        limiter: str = "van_leer",
        riemann: str = "rusanov",
        cfl: float = 0.4,
    ) -> None:
        if order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {order}")
        if not 0.0 < cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {cfl}")
        self.order = order
        self.limiter_name = limiter
        self.limiter = get_limiter(limiter)
        self.riemann_name = riemann
        self.riemann = get_riemann(riemann)
        self.cfl = cfl
        self.kernels = _KernelCalls()

    @property
    def required_ghost(self) -> int:
        """Ghost layers the scheme needs (1 for order 1, 2 for MUSCL)."""
        return self.order

    @property
    def positivity_indices(self) -> Tuple[int, ...]:
        """Primitive-variable indices that must stay strictly positive
        (density, pressure).  Used by the safe-stepping health scan;
        base schemes have none."""
        return ()

    # ------------------------------------------------------------------
    # physics hooks implemented by subclasses
    # ------------------------------------------------------------------

    @abstractmethod
    def cons_to_prim(self, u: np.ndarray) -> np.ndarray:
        """Conserved → primitive variables."""

    @abstractmethod
    def prim_to_cons(self, w: np.ndarray) -> np.ndarray:
        """Primitive → conserved variables."""

    @abstractmethod
    def flux(self, w: np.ndarray, axis: int) -> np.ndarray:
        """Physical flux along ``axis`` from primitives."""

    @abstractmethod
    def normal_velocity(self, w: np.ndarray, axis: int) -> np.ndarray:
        """Advective velocity component along ``axis``."""

    @abstractmethod
    def char_speed(self, w: np.ndarray, axis: int) -> np.ndarray:
        """Maximum characteristic speed relative to the flow (sound /
        fast magnetosonic / zero for advection)."""

    def max_char_speed(self, w: np.ndarray, axis: int) -> np.ndarray:
        """|u_n| + c — the Rusanov dissipation speed."""
        return np.abs(self.normal_velocity(w, axis)) + self.char_speed(w, axis)

    def source(
        self,
        u_interior: np.ndarray,
        w: np.ndarray,
        dx: Sequence[float],
        g: int,
    ) -> Optional[np.ndarray]:
        """Optional source term evaluated on the interior (e.g. the
        Powell divergence source for MHD).  Returns dU/dt or None."""
        return None

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------

    def max_signal_speed(self, u: np.ndarray, ndim: int) -> float:
        """Largest |u_n| + c over the array and all grid axes (for CFL)."""
        w = self.cons_to_prim(u)
        best = 0.0
        for a in range(ndim):
            best = max(best, float(np.max(self.max_char_speed(w, a))))
        return best

    def max_signal_speed_batched(
        self,
        u: np.ndarray,
        ndim: int,
        out: Optional[np.ndarray] = None,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-block largest |u_n| + c over a var-major ``(nvar, B, *sp)``
        stack — one ``(B,)`` reduction instead of a Python loop.

        Mirrors :meth:`max_signal_speed` exactly, including its
        comparison semantics (the masked fold matches Python ``max``,
        which keeps the current best on a non-greater — e.g. NaN —
        candidate).  ``out`` (the ``(B,)`` result buffer) and ``work``
        (a ``(B,)`` reduction scratch) let tiled callers reuse
        allocations across calls; both are optional."""
        w = self.cons_to_prim(u)
        b = u.shape[1]
        if out is None:
            best = np.zeros(b)
        else:
            best = out
            best[:] = 0.0
        for a in range(ndim):
            speed = self.max_char_speed(w, a)
            flat = speed.reshape(speed.shape[0], -1)
            if work is not None and work.shape == (b,):
                m = flat.max(axis=1, out=work)
            else:
                m = flat.max(axis=1)
            # same values as ``best = np.where(m > best, m, best)``,
            # without the fresh array per axis
            np.copyto(best, m, where=m > best)
        return best

    def stable_dt(self, u: np.ndarray, dx: Sequence[float], ndim: int) -> float:
        """CFL-limited time step for one block array."""
        s = self.max_signal_speed(u, ndim)
        if s <= 0.0:
            return np.inf
        return self.cfl / sum(s / d for d in dx)

    def face_states(
        self, w: np.ndarray, axis: int, g: int, ndim: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Left/right primitive states at the m+1 interior faces of an axis.

        Face ``f`` (0-based) sits between cells ``g-1+f`` and ``g+f`` of
        the padded array.  Order 1 uses the adjacent cell values; order 2
        adds limited half-slopes (requires g >= 2).

        Spatial axes occupy the last ``ndim`` positions of ``w``
        (default ``w.ndim - 1``), so per-block arrays and batched stacks
        share this code — only spatial slicing and elementwise limiter
        algebra happen here, never variable-axis indexing.
        """
        nd = w.ndim - 1 if ndim is None else ndim
        ax = w.ndim - nd + axis
        n = w.shape[ax]
        m = n - 2 * g

        def ax_slice(lo: int, hi: int) -> Tuple[slice, ...]:
            sl = [slice(None)] * w.ndim
            sl[ax] = slice(lo, hi)
            return tuple(sl)

        if self.order == 1:
            wl = w[ax_slice(g - 1, g + m)]
            wr = w[ax_slice(g, g + m + 1)]
            return wl, wr
        # Limited slopes on cells [g-2+1, g+m+1) = [g-1, g+m+1).
        center = w[ax_slice(g - 1, g + m + 1)]
        left = w[ax_slice(g - 2, g + m)]
        right = w[ax_slice(g, g + m + 2)]
        slope = self.limiter(center - left, right - center)
        # slope index i corresponds to padded cell g-1+i, i in [0, m+2).
        sl_all = [slice(None)] * w.ndim
        sl_lo = list(sl_all)
        sl_hi = list(sl_all)
        sl_lo[ax] = slice(0, m + 1)
        sl_hi[ax] = slice(1, m + 2)
        wl = center[tuple(sl_lo)] + 0.5 * slope[tuple(sl_lo)]
        wr = center[tuple(sl_hi)] - 0.5 * slope[tuple(sl_hi)]
        return wl, wr

    def flux_divergence(
        self,
        u: np.ndarray,
        dx: Sequence,
        g: int,
        *,
        face_flux_out: Optional[dict] = None,
        faces: Optional[Sequence[int]] = None,
        ndim: Optional[int] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """-div F over the interior cells (the conservative update rate).

        With ``face_flux_out`` (a dict) the numerical fluxes on the
        block's outer faces are captured per face index — shape
        ``(nvar, *transverse_interior)`` — for the flux-correction
        (refluxing) machinery.  ``faces`` limits capture to the listed
        faces (the coarse–fine interfaces the register needs).

        With an explicit ``ndim`` and a ``(B, nvar, *spatial)`` stack
        (``u.ndim == ndim + 2``) every block is processed in one sweep;
        the result has shape ``(B, nvar, *interior)``.  ``dx`` then
        holds per-axis ``(B, 1, ..., 1)`` cell-width arrays.

        ``out`` is a result buffer in the *caller's* layout (interior
        shape) — a scratch hint that skips the per-call allocation.
        Callers must consume the returned array, which may or may not
        alias ``out``.
        """
        nd = u.ndim - 1 if ndim is None else ndim
        if face_flux_out is None:
            self.kernels.dispatches += 1
        batched = u.ndim == nd + 2
        uv = np.moveaxis(u, 0, 1) if batched else u  # var-major view
        lead = uv.ndim - nd
        spatial = uv.shape[lead:]
        w = self.cons_to_prim(uv)
        interior_shape = tuple(s - 2 * g for s in spatial)
        want = uv.shape[:lead] + interior_shape
        dudt = None
        if out is not None and out.dtype == np.float64:
            cand = np.moveaxis(out, 0, 1) if batched else out
            if cand.shape == want:
                dudt = cand
                dudt[...] = 0.0
        if dudt is None:
            dudt = np.zeros(want)
        for axis in range(nd):
            # Crop to interior extent on transverse axes *before*
            # reconstruction: face_states only slices along ``axis``, so
            # feeding it the cropped view yields bitwise-identical face
            # states while skipping the limiter algebra on transverse
            # ghost cells it would otherwise compute and discard.
            trans = [slice(g, s - g) for s in spatial]
            trans[axis] = slice(None)
            sel = (slice(None),) * lead + tuple(trans)
            wl, wr = self.face_states(w[sel], axis, g, ndim=nd)
            f = self.riemann(self, wl, wr, axis)
            ax = f.ndim - nd + axis
            sl_hi = [slice(None)] * f.ndim
            sl_lo = [slice(None)] * f.ndim
            n_faces = f.shape[ax]
            sl_hi[ax] = slice(1, n_faces)
            sl_lo[ax] = slice(0, n_faces - 1)
            dudt -= (f[tuple(sl_hi)] - f[tuple(sl_lo)]) / dx[axis]
            if face_flux_out is not None:
                for side, idx in ((0, 0), (1, n_faces - 1)):
                    face = 2 * axis + side
                    if faces is not None and face not in faces:
                        continue
                    take: list = [slice(None)] * f.ndim
                    take[ax] = idx
                    face_flux_out[face] = f[tuple(take)].copy()
        src = self.source(
            uv[(slice(None),) * lead + tuple(slice(g, s - g) for s in spatial)],
            w,
            dx,
            g,
        )
        if src is not None:
            dudt += src
        return np.moveaxis(dudt, 0, 1) if batched else dudt

    @property
    def n_stages(self) -> int:
        """Time-integration stages per step (midpoint for order 2)."""
        return 2 if self.order == 2 else 1

    def apply_floors(self, u: np.ndarray) -> None:
        """Post-stage fix-up hook (density/pressure floors).

        Base schemes have none; systems prone to vacuum states (MHD)
        override this.  Drivers call it after every stage update.

        ``u`` must have the variable axis first; implementations are
        elementwise over whatever trails it, so a per-block interior
        ``(nvar, *m)`` and a var-major batched stack ``(nvar, B, *m)``
        both work — the batched engine hands it a transposed view of the
        whole ``(B, nvar, *m)`` interior stack."""
        return None

    def step(
        self,
        u: np.ndarray,
        dx: Sequence,
        dt: float,
        g: int,
        ndim: Optional[int] = None,
        rate_out: Optional[np.ndarray] = None,
    ) -> None:
        """Advance the interior of a padded block array by one forward-
        Euler *stage* of length ``dt``, in place.  ``rate_out`` is an
        optional scratch buffer (interior shape) for the update rate.

        This is a single stage: time integration across stages (midpoint
        for second order) is orchestrated by the driver, which must
        refresh ghost cells *between* stages — computing both stages
        block-locally with stale ghosts would break conservation and
        accuracy at block boundaries.  See
        :func:`repro.amr.driver.advance` and
        :func:`repro.solvers.scheme.FVScheme.step_midpoint`.

        With an explicit ``ndim`` and a ``(B, nvar, *spatial)`` stack
        the whole batch advances in one sweep — which is how every
        driver calls it (:class:`repro.solvers.sweep.PoolSweep`).
        Subclass contract: an override takes ``ndim=`` and ``rate_out=``
        (forward ``**kw``), and it and every kernel it calls may receive
        that leading batch axis (``dx`` entries are then ``(B, 1, ...)``
        arrays); index from the right, or use ``ndim``, not ``u[0]``.
        """
        nd = u.ndim - 1 if ndim is None else ndim
        lead = u.ndim - nd
        interior = (slice(None),) * lead + tuple(
            slice(g, s - g) for s in u.shape[lead:]
        )
        rate = self.flux_divergence(u, dx, g, ndim=ndim, out=rate_out)
        if rate_out is not None:
            # same two IEEE ops per element as ``u += dt * rate``,
            # without the broadcast temporary
            rate *= dt
            u[interior] += rate
        else:
            u[interior] += dt * rate
        ui = u[interior]
        # the floors hook wants the variable axis first
        self.apply_floors(np.moveaxis(ui, 0, 1) if lead == 2 else ui)

    def step_midpoint(
        self,
        u: np.ndarray,
        dx: Sequence[float],
        dt: float,
        g: int,
        fill: Callable[[np.ndarray], None],
    ) -> None:
        """Full time step on a *single* padded array with a ghost-fill
        callback (used by single-block tests and the tree baseline):
        midpoint (2-stage) for order 2, forward Euler for order 1.

        ``fill`` must set the array's ghost cells from the current
        interior (periodic wrap, physical BC, ...).
        """
        interior = (slice(None),) + tuple(slice(g, s - g) for s in u.shape[1:])
        fill(u)
        if self.order == 1:
            u[interior] += dt * self.flux_divergence(u, dx, g)
            return
        u_half = u.copy()
        u_half[interior] += 0.5 * dt * self.flux_divergence(u, dx, g)
        self.apply_floors(u_half[interior])
        fill(u_half)
        u[interior] += dt * self.flux_divergence(u_half, dx, g)
        self.apply_floors(u[interior])
