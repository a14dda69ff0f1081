"""CFL time-step computation across a block forest.

All blocks advance with one global time step (the scheme used by the
paper's simulations; local time stepping is a later-era extension).  The
step is the minimum CFL-stable step over every block, which depends on
each block's *own* cell width — finer blocks constrain the step more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.solvers.workspace import Workspace

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.block import Block
    from repro.core.forest import BlockForest
    from repro.solvers.scheme import FVScheme

__all__ = ["stable_dt", "stable_dt_batched"]


def stable_dt(forest: "BlockForest", scheme: "FVScheme", *, dt_max: float = 1e30) -> float:
    """Largest time step satisfying the CFL condition on every block.

    Signal speeds are evaluated over computational cells only: ghost
    cells may legitimately hold extrapolated (or, right after topology
    changes, stale) data that must not throttle the step.
    """
    dt = dt_max
    for block in forest:
        dt = min(dt, scheme.stable_dt(block.interior, block.dx, forest.ndim))
    if not dt > 0.0:
        raise RuntimeError("non-positive stable time step; state is invalid")
    return dt


def stable_dt_batched(
    forest: "BlockForest",
    scheme: "FVScheme",
    *,
    blocks: List["Block"],
    weights: np.ndarray,
    tile: int,
    dt_max: float = 1e30,
) -> float:
    """Batched :func:`stable_dt`: tiled reductions over the arena pool.

    Compacts the arena in the order of ``blocks`` (the driver's
    advance layout, so the CFL pass never thrashes it), evaluates every
    block's maximum signal speed with one ``(B,)`` reduction per
    ``tile`` rows, and folds the per-block CFL steps with the same
    arithmetic — same float64 divisions, same accumulation order over
    axes — as the per-block loop, so the result is bit-for-bit
    identical for any tile size.

    ``weights`` scales each block's CFL step before the fold (the
    driver's substep divisors — exact powers of two, so the scaled fold
    stays bit-for-bit with the equivalent per-block ``min(own *
    divisor)`` loop, and all-ones weights change nothing).
    """
    if not blocks:
        return dt_max
    g = forest.n_ghost
    pool = forest.arena.ensure_compact(blocks)
    n = len(blocks)
    interior = pool[
        (slice(None), slice(None)) + tuple(slice(g, g + mi) for mi in forest.m)
    ]
    s = np.empty(n)
    work = Workspace()  # one for every tile (not fresh buffers per tile)
    for lo in range(0, n, tile):
        hi = min(lo + tile, n)
        scheme.kernels.dispatches += 1
        scheme.max_signal_speed_batched(
            interior[lo:hi].swapaxes(0, 1),  # var-major (nvar, b, *m)
            forest.ndim, out=s[lo:hi], work=work,
        )
    dx = np.array([b.dx for b in blocks])
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = s / dx[:, 0]
        for a in range(1, forest.ndim):
            denom = denom + s / dx[:, a]
        dt_b = np.where(s > 0.0, scheme.cfl / denom, np.inf)
    dt_b = dt_b * weights
    # fmin ignores NaN candidates, matching min()'s keep-current-on-
    # non-less semantics in the per-block loop; dt_max participates as
    # the loop's starting value.
    dt = float(np.fmin.reduce(np.append(dt_b, dt_max)))
    if not dt > 0.0:
        raise RuntimeError("non-positive stable time step; state is invalid")
    return dt
