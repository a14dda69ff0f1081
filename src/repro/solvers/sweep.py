"""The tiled stage update over rows of a block pool.

Every block of a forest is a row of one ``(rows, nvar, *padded)`` pool
(:mod:`repro.core.arena`), and every kernel of a scheme treats a leading
batch axis elementwise, so a stage of the time integrator is a handful
of kernel calls over a *tile* of consecutive rows instead of one call
per block.  :class:`PoolSweep` is that update, written once: the serial
driver runs it over its arena (globally, and level by level when
subcycling) and each rank process of the process machine over the rows
it owns in its shared segment — the same code whether a block's
neighbours are local or remote.  Results are bit-for-bit independent of
the tile size and equal to the per-block update: same IEEE operations
per element, only the loop structure differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.block import Block
    from repro.solvers.scheme import FVScheme

__all__ = ["BATCH_TILE_BYTES", "PoolSweep", "tile_rows"]

#: Target bytes of pool rows per kernel tile (see :func:`tile_rows`).
BATCH_TILE_BYTES = 128 * 1024

Rows = Tuple[int, int]


def tile_rows(row_bytes: int, tile_bytes: int = BATCH_TILE_BYTES) -> int:
    """Rows per kernel tile: ``tile_bytes`` worth, at least 8.

    A kernel call allocates its intermediates — face states, fluxes,
    the rate — afresh, each about the size of the tile it sweeps.  More
    rows per call amortize numpy's dispatch, until one intermediate
    reaches the allocator's mmap threshold (128 KiB in glibc): from
    there on every temporary is mapped, page-faulted in and unmapped
    again, which on 32² blocks costs 40 % of the sweep and 10 MB of
    resident memory against a tile just below it.  So a tile holds the
    threshold's worth of rows.  The floor of 8 keeps dispatch amortized
    for rows that are large on their own (8³ MHD blocks are 110 KB, but
    their kernels work a variable at a time).
    """
    return max(8, tile_bytes // max(row_bytes, 1))


class PoolSweep:
    """Stage updates of the blocks held in rows of ``pool``.

    Parameters
    ----------
    scheme:
        Advances a ``(b, nvar, *padded)`` stack in one call.
    pool:
        The ``(rows, nvar, *padded)`` array the blocks live in.
    placed:
        ``(row, block)`` for every block to advance; consecutive rows
        are swept together, a tile at a time.
    n_ghost:
        Ghost layers per side.
    save:
        Interior-shaped scratch, ``(rows, nvar, *m)``, indexed like
        ``pool``: the state :meth:`snapshot` parks for :meth:`correct`.
    rate:
        Interior-shaped scratch of at least ``tile`` rows for the update
        rate of the tile in flight.
    tile:
        Rows per kernel call (:func:`tile_rows`).
    """

    def __init__(
        self,
        scheme: "FVScheme",
        pool: np.ndarray,
        placed: Iterable[Tuple[int, "Block"]],
        n_ghost: int,
        *,
        save: np.ndarray,
        rate: np.ndarray,
        tile: int,
    ) -> None:
        self.scheme = scheme
        self.pool = pool
        self.g = n_ghost
        self.ndim = pool.ndim - 2
        self.save = save
        self.rate = rate
        self.tile = tile
        self.interior = pool[
            (slice(None), slice(None))
            + tuple(slice(n_ghost, s - n_ghost) for s in pool.shape[2:])
        ]
        placed = sorted(placed, key=lambda rb: rb[0])
        rows = [row for row, _ in placed]
        #: per-axis cell widths, ``(rows, 1, ..., 1)`` (1 on unused rows)
        self.dx = []
        for a in range(self.ndim):
            widths = np.ones(pool.shape[0])
            widths[rows] = [block.dx[a] for _, block in placed]
            self.dx.append(widths.reshape((-1,) + (1,) * self.ndim))
        #: maximal ``[start, end)`` runs of consecutive occupied rows
        self.runs: List[Rows] = []
        for row in rows:
            if self.runs and self.runs[-1][1] == row:
                self.runs[-1] = (self.runs[-1][0], row + 1)
            else:
                self.runs.append((row, row + 1))
        self._tiles = self._cut(self.runs)

    def _cut(self, runs: Iterable[Rows]) -> List[Rows]:
        return [
            (a, min(a + self.tile, e))
            for s, e in runs
            for a in range(s, e, self.tile)
        ]

    def _each_tile(self, rows: Optional[Rows]) -> List[Rows]:
        return self._tiles if rows is None else self._cut([rows])

    def snapshot(self, rows: Optional[Rows] = None) -> None:
        """Park the current interiors in ``save`` (``rows``: only that
        ``[start, end)`` range; default every placed block)."""
        for s, e in self.runs if rows is None else [rows]:
            self.save[s:e] = self.interior[s:e]

    def forward(self, dt: float, rows: Optional[Rows] = None) -> None:
        """One forward-Euler stage in place: ``u += dt * L(u)``, floors."""
        scheme, pool, g, nd = self.scheme, self.pool, self.g, self.ndim
        for s, e in self._each_tile(rows):
            scheme.step(
                pool[s:e], [d[s:e] for d in self.dx], dt, g, ndim=nd,
                rate_out=self.rate[: e - s],
            )

    def correct(self, dt: float, rows: Optional[Rows] = None) -> None:
        """The midpoint corrector: ``u = saved + dt * L(u)``, floors —
        ``u`` holding the half-step state, ghosts refreshed."""
        scheme, pool, g, nd = self.scheme, self.pool, self.g, self.ndim
        ui, save = self.interior, self.save
        for s, e in self._each_tile(rows):
            rate = scheme.flux_divergence(
                pool[s:e], [d[s:e] for d in self.dx], g, ndim=nd,
                out=self.rate[: e - s],
            )
            # same two IEEE ops per element as ``save + dt * rate``,
            # without the broadcast temporary
            rate *= dt
            np.add(save[s:e], rate, out=ui[s:e])
            scheme.apply_floors(np.moveaxis(ui[s:e], 0, 1))
