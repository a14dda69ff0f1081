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
``(nvar, B, *spatial)`` view (``swapaxes`` — no copy), so the physics
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
from repro.solvers.workspace import Workspace, scratch

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
    # physics hooks implemented by subclasses (the contract: see ``step``)
    # ------------------------------------------------------------------

    @abstractmethod
    def cons_to_prim(self, u: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        """Conserved → primitive variables."""

    @abstractmethod
    def prim_to_cons(self, w: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
        """Primitive → conserved variables."""

    @abstractmethod
    def flux(self, w: np.ndarray, axis: int, work: Optional[Workspace] = None) -> np.ndarray:
        """Physical flux along ``axis`` from primitives."""

    @abstractmethod
    def normal_velocity(
        self, w: np.ndarray, axis: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        """Advective velocity component along ``axis``."""

    @abstractmethod
    def char_speed(
        self, w: np.ndarray, axis: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        """Maximum characteristic speed relative to the flow (sound /
        fast magnetosonic / zero for advection)."""

    def max_char_speed(
        self, w: np.ndarray, axis: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        """|u_n| + c — the Rusanov dissipation speed."""
        work = scratch(work)
        c = self.char_speed(w, axis, work)
        speed = np.abs(self.normal_velocity(w, axis, work), out=work.take(c.shape))
        speed += c
        return speed

    def source(
        self,
        u_interior: np.ndarray,
        w: np.ndarray,
        dx: Sequence[float],
        g: int,
        work: Optional[Workspace] = None,
    ) -> Optional[np.ndarray]:
        """Optional source term evaluated on the interior (e.g. the
        Powell divergence source for MHD).  Returns dU/dt or None."""
        return None

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------

    def max_signal_speed(self, u: np.ndarray, ndim: int) -> float:
        """Largest |u_n| + c over the array and all grid axes (for CFL)."""
        work = Workspace()
        w = self.cons_to_prim(u, work)
        best = 0.0
        for a in range(ndim):
            best = max(best, float(np.max(self.max_char_speed(w, a, work))))
        return best

    def max_signal_speed_batched(
        self,
        u: np.ndarray,
        ndim: int,
        out: Optional[np.ndarray] = None,
        work: Optional[Workspace] = None,
    ) -> np.ndarray:
        """Per-block largest |u_n| + c over a var-major ``(nvar, B, *sp)``
        stack — one ``(B,)`` reduction instead of a Python loop.

        Mirrors :meth:`max_signal_speed` exactly, including its
        comparison semantics (the masked fold matches Python ``max``,
        which keeps the current best on a non-greater — e.g. NaN —
        candidate).  ``out`` (the ``(B,)`` result buffer) and ``work``
        (the workspace, reset here) let tiled callers reuse allocations
        across calls; both are optional."""
        work = scratch(work)
        work.reset()
        w = self.cons_to_prim(u, work)
        b = u.shape[1]
        best = np.zeros(b) if out is None else out
        best[...] = 0.0
        m = work.take((b,))
        greater = work.take((b,), np.bool_)
        for a in range(ndim):
            np.max(self.max_char_speed(w, a, work).reshape(b, -1), axis=1, out=m)
            # same values as ``best = np.where(m > best, m, best)``
            np.copyto(best, m, where=np.greater(m, best, out=greater))
        return best

    def stable_dt(self, u: np.ndarray, dx: Sequence[float], ndim: int) -> float:
        """CFL-limited time step for one block array."""
        s = self.max_signal_speed(u, ndim)
        if s <= 0.0:
            return np.inf
        return self.cfl / sum(s / d for d in dx)

    def face_states(
        self, p: np.ndarray, g: int, work: Optional[Workspace] = None
    ) -> np.ndarray:
        """Left and right primitive states at the ``m + 1`` interior faces
        along axis 1 of ``p``, stacked on axis 1: ``(nvar, 2, m + 1, ...)``.

        ``p`` holds primitives with the sweep axis at position 1,
        ``(nvar, m + 2 g, ...)``; face ``f`` (0-based) sits between its
        cells ``g - 1 + f`` and ``g + f``.  Order 1 uses the adjacent
        cell values; order 2 adds limited half-slopes (requires g >= 2),
        ``center + 0.5 slope`` on the left, ``center - 0.5 slope`` on the
        right, each cell's slope limited from its one-sided differences,
        and first copies a strided ``p`` into a contiguous *pencil* (it
        reads it three times).
        """
        work = scratch(work)
        m = p.shape[1] - 2 * g
        pair = work.take((p.shape[0], 2, m + 1) + p.shape[2:])
        if self.order == 1:
            np.copyto(pair[:, 0], p[:, g - 1:g + m])
            np.copyto(pair[:, 1], p[:, g:g + m + 1])
            return pair
        scope = work.mark()
        p = work.contiguous(p)
        # Slopes on cells [g-1, g+m+1).  diff[i] = p[g-1+i] - p[g-2+i] is
        # the left difference of slope cell i and the right one of i - 1.
        diff = np.subtract(
            p[:, g - 1:g + m + 2], p[:, g - 2:g + m + 1],
            out=work.take((p.shape[0], m + 3) + p.shape[2:]),
        )
        half = self.limiter(diff[:, :m + 2], diff[:, 1:], work)
        half *= 0.5
        center = p[:, g - 1:g + m + 1]
        np.add(center[:, :m + 1], half[:, :m + 1], out=pair[:, 0])
        np.subtract(center[:, 1:], half[:, 1:], out=pair[:, 1])
        work.release(scope)
        return pair

    def flux_divergence(
        self,
        u: np.ndarray,
        dx: Sequence,
        g: int,
        *,
        face_flux_out: Optional[dict] = None,
        ndim: Optional[int] = None,
        out: Optional[np.ndarray] = None,
        work: Optional[Workspace] = None,
    ) -> np.ndarray:
        """-div F over the interior cells (the conservative update rate).

        With ``face_flux_out`` (a dict) the numerical fluxes on the
        block's outer faces are captured per face index — shape
        ``(nvar, *transverse_interior)`` — for the flux-correction
        (refluxing) machinery.  Each is a copy, never a view of
        ``work``.

        With an explicit ``ndim`` and a ``(B, nvar, *spatial)`` stack
        (``u.ndim == ndim + 2``) every block is processed in one sweep;
        the result has shape ``(B, nvar, *interior)``.  ``dx`` then
        holds per-axis ``(B, 1, ..., 1)`` cell-width arrays, and a
        captured face is ``(nvar, B, *transverse_interior)``: block
        ``b``'s slab is ``[:, b]``, the same bits as its own call's.

        ``out`` is a result buffer in the *caller's* layout (interior
        shape) — a scratch hint that skips the per-call allocation.
        Callers must consume the returned array, which may or may not
        alias ``out``.  ``work`` holds every intermediate (see
        :mod:`repro.solvers.workspace`); without one they are allocated.

        Per axis, the primitives — cropped to the interior on the other
        axes — are copied into a *pencil* with that axis first
        (:meth:`face_states`), so reconstruction, Riemann solver and flux
        difference sweep contiguous memory whatever the axis (numpy
        buffers every strided operand, at two to three times the cost of
        a contiguous one).
        """
        nd = u.ndim - 1 if ndim is None else ndim
        if face_flux_out is None:
            self.kernels.dispatches += 1
        work = scratch(work)
        work.reset()
        batched = u.ndim == nd + 2
        uv = u.swapaxes(0, 1) if batched else u  # var-major view
        lead = uv.ndim - nd
        spatial = uv.shape[lead:]
        w = self.cons_to_prim(uv, work)
        interior = tuple(slice(g, s - g) for s in spatial)
        want = uv.shape[:lead] + tuple(s - 2 * g for s in spatial)
        dudt = None
        if out is not None and out.dtype == np.float64:
            cand = out.swapaxes(0, 1) if batched else out
            if cand.shape == want:
                dudt = cand
                dudt[...] = 0.0
        if dudt is None:
            dudt = np.zeros(want)
        for axis in range(nd):
            scope = work.mark()
            # Transverse axes are cropped to the interior *before*
            # reconstruction (which only looks along ``axis``): the face
            # states are the same, without limiter algebra on transverse
            # ghost cells.
            sel = list(interior)
            sel[axis] = slice(None)
            # the sweep axis right after the variables
            ax = lead + axis
            sweep_first = (0, ax) + tuple(i for i in range(1, w.ndim) if i != ax)
            cropped = w[(slice(None),) * lead + tuple(sel)].transpose(sweep_first)
            f = self.riemann(self, self.face_states(cropped, g, work), axis, work)
            jump = np.subtract(f[:, 1:], f[:, :-1], out=work.take(f[:, 1:].shape))
            d = dx[axis]
            # a per-block width array (B, 1, ..., 1) loses the sweep axis's 1
            d = np.reshape(d, np.shape(d)[:1] + (1,) * (nd - 1)) if np.ndim(d) else d
            term = work.like(dudt)  # this axis's share of the rate
            np.divide(jump, d, out=term.transpose(sweep_first))
            dudt -= term
            if face_flux_out is not None:
                for side, idx in ((0, 0), (1, f.shape[1] - 1)):
                    face_flux_out[2 * axis + side] = f[:, idx].copy()
            work.release(scope)
        src = self.source(uv[(slice(None),) * lead + interior], w, dx, g, work)
        if src is not None:
            dudt += src
        return dudt.swapaxes(0, 1) if batched else dudt

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
        work: Optional[Workspace] = None,
        face_flux_out: Optional[dict] = None,
    ) -> None:
        """Advance the interior of a padded block array by one forward-
        Euler *stage* of length ``dt``, in place.  ``rate_out`` is an
        optional scratch buffer (interior shape) for the update rate,
        ``work`` the kernel's workspace and ``face_flux_out`` the
        pre-update face-flux capture (:meth:`flux_divergence`).

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

        Subclass contract, for this method and the physics hooks:

        * An override of ``step`` takes ``ndim=``, ``rate_out=``,
          ``work=`` and ``face_flux_out=`` (forward ``**kw``).  It and every hook may receive
          the leading batch axis: ``dx`` entries are then
          ``(B, 1, ...)`` arrays, and the hooks see var-major
          ``(nvar, B, *cells)`` arrays — index variables from the left
          (``w[0]``), cells from the right, never ``u[0]`` as a block.
        * Every hook (``cons_to_prim``, ``prim_to_cons``, ``flux``,
          ``normal_velocity``, ``char_speed``, ``max_char_speed``,
          ``source``) takes a trailing ``work``, a
          :class:`~repro.solvers.workspace.Workspace` or None.  It may
          take its result and temporaries from it (``work.take(shape)``,
          ``work.like(a)``) or ignore it and allocate.  A hook never
          writes into its inputs, and its result is a new array the
          caller may overwrite — except ``normal_velocity``'s, which may
          be a view of ``w`` (``w[1 + axis]``) and is only read.
        * ``flux``, ``prim_to_cons`` and the speeds receive the left and
          right face states stacked on axis 1, ``(nvar, 2, ...)``: one
          call serves both sides of every face.
        """
        nd = u.ndim - 1 if ndim is None else ndim
        lead = u.ndim - nd
        interior = (slice(None),) * lead + tuple(
            slice(g, s - g) for s in u.shape[lead:]
        )
        rate = self.flux_divergence(
            u, dx, g, ndim=ndim, out=rate_out, work=work,
            face_flux_out=face_flux_out,
        )
        if rate_out is not None:
            # same two IEEE ops per element as ``u += dt * rate``,
            # without the broadcast temporary
            rate *= dt
            u[interior] += rate
        else:
            u[interior] += dt * rate
        ui = u[interior]
        # the floors hook wants the variable axis first
        self.apply_floors(ui.swapaxes(0, 1) if lead == 2 else ui)

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
