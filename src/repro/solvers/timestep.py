"""CFL time-step computation across a block forest.

All blocks advance with one global time step (the scheme used by the
paper's simulations; local time stepping is a later-era extension).  The
step is the minimum CFL-stable step over every block, which depends on
each block's *own* cell width — finer blocks constrain the step more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
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
    dt_max: float = 1e30,
    tile: Optional[int] = None,
    blocks: Optional[list] = None,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Batched :func:`stable_dt`: tiled reductions over the arena pool.

    Compacts the arena (Morton order), evaluates every block's maximum
    signal speed with one ``(B,)`` reduction per tile of blocks
    (``tile`` rows per kernel call — None sweeps the whole pool at
    once), and folds the per-block CFL steps with the same arithmetic —
    same float64 divisions, same accumulation order over axes — as the
    per-block loop, so the result is bit-for-bit identical for any tile
    size.

    ``blocks`` overrides the compaction order (the subcycled driver
    passes level-major order so the CFL sweep shares the advance's
    arena layout instead of thrashing it); ``weights`` scales each
    block's CFL step before the fold (per-level substep divisors —
    exact powers of two, so the scaled fold stays bit-for-bit with the
    equivalent per-block ``min(own * divisor)`` loop).
    """
    if blocks is None:
        blocks = [forest.blocks[bid] for bid in forest.sorted_ids()]
    if not blocks:
        return dt_max
    g = forest.n_ghost
    pool = forest.arena.ensure_compact(blocks)
    n = len(blocks)
    interior = pool[
        (slice(None), slice(None)) + tuple(slice(g, g + mi) for mi in forest.m)
    ]
    step = n if tile is None else max(tile, 1)
    s = np.empty(n)
    # one reduction scratch for every tile (not a fresh one per tile)
    work = np.empty(min(step, n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        scheme.kernels.dispatches += 1
        scheme.max_signal_speed_batched(
            np.moveaxis(interior[lo:hi], 0, 1),  # var-major (nvar, b, *m)
            forest.ndim, out=s[lo:hi], work=work[: hi - lo],
        )
    dx = np.array([[b.dx[a] for a in range(forest.ndim)] for b in blocks])
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = s / dx[:, 0]
        for a in range(1, forest.ndim):
            denom = denom + s / dx[:, a]
        dt_b = np.where(s > 0.0, scheme.cfl / denom, np.inf)
    if weights is not None:
        dt_b = dt_b * weights
    # fmin ignores NaN candidates, matching min()'s keep-current-on-
    # non-less semantics in the per-block loop; dt_max participates as
    # the loop's starting value.
    dt = float(np.fmin.reduce(np.append(dt_b, dt_max)))
    if not dt > 0.0:
        raise RuntimeError("non-positive stable time step; state is invalid")
    return dt
