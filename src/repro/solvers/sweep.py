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

A final stage given a :class:`~repro.core.reflux.FluxRegister` also
hands it the coarse–fine face fluxes the tile's kernel call computed on
the way, so refluxing costs no second pass over the blocks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.solvers.workspace import Workspace

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.block import Block
    from repro.core.reflux import FluxRegister
    from repro.solvers.scheme import FVScheme

__all__ = ["BATCH_TILE_BYTES", "PoolSweep", "tile_rows"]

#: Target bytes of pool rows per kernel tile (see :func:`tile_rows`).
BATCH_TILE_BYTES = 128 * 1024

Rows = Tuple[int, int]


def tile_rows(row_bytes: int, tile_bytes: int = BATCH_TILE_BYTES) -> int:
    """Rows per kernel tile: ``tile_bytes`` worth, at least 8.

    More rows per call amortize numpy's dispatch; fewer keep the call's
    working set — the sweep's workspace, a few dozen intermediates about
    the size of the tile — in the core's cache.  The kernel allocates
    nothing per call (:class:`~repro.solvers.workspace.Workspace`), so
    the allocator's mmap threshold, which once made tiles past 128 KiB
    of 32² rows 40 % slower, no longer bounds the tile.  Measured with
    the workspace (EXPERIMENTS.md, "One sweep"): on 8³ MHD 8 and 12
    rows tie, 4 and 18 are 3-9 % slower and 27 are 22 %; on 32²
    advection 8 and 12 rows tie and 24 are 23 % slower; on 8² advection
    113 rows are within 5 % of the whole pool.  So the rule stays:
    128 KiB of rows, and the floor of 8 for rows that are large on their
    own (an 8³ MHD row is 110 KB).
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

    Every other intermediate of the kernel calls lives in the sweep's
    :attr:`work`, sized by its first call of a shape and reused by every
    tile after it.  A driver builds a sweep per step, so the workspace
    is given back with it: kept from step to step it would sit in the
    heap next to the ghost fill's gather, whose memory it now reuses
    (measured: peak RSS of ``uniform_mhd3d`` +10 %).

    :meth:`forward` and :meth:`correct` take an optional ``register``:
    every tile holding a block in its
    :attr:`~repro.core.reflux.FluxRegister.needed_faces` captures its
    outer-face fluxes in the same kernel call, and each such block's
    needed slabs (copies, never workspace views) are recorded — or,
    with ``accumulate``, added weighted by the stage's ``dt``
    (subcycling).  Pass it to the final stage of a step only.
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
        #: every intermediate of the kernel calls, reused tile after tile
        self.work = Workspace()
        self.interior = pool[
            (slice(None), slice(None))
            + tuple(slice(n_ghost, s - n_ghost) for s in pool.shape[2:])
        ]
        placed = sorted(placed, key=lambda rb: rb[0])
        rows = [row for row, _ in placed]
        self._block_at = dict(placed)
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

    def forward(
        self, dt: float, rows: Optional[Rows] = None, *,
        register: Optional["FluxRegister"] = None, accumulate: bool = False,
    ) -> None:
        """One forward-Euler stage in place: ``u += dt * L(u)``, floors
        (``register``/``accumulate``: face-flux capture, see the class)."""
        scheme, pool, g, nd = self.scheme, self.pool, self.g, self.ndim
        for s, e in self._each_tile(rows):
            needs = self._needs(register, s, e)
            captured: Optional[Dict] = {} if needs else None
            scheme.step(
                pool[s:e], [d[s:e] for d in self.dx], dt, g, ndim=nd,
                rate_out=self.rate[: e - s], work=self.work,
                face_flux_out=captured,
            )
            if needs:
                _hand_over(register, needs, captured, dt if accumulate else None)

    def correct(
        self, dt: float, rows: Optional[Rows] = None, *,
        register: Optional["FluxRegister"] = None, accumulate: bool = False,
    ) -> None:
        """The midpoint corrector: ``u = saved + dt * L(u)``, floors —
        ``u`` holding the half-step state, ghosts refreshed
        (``register``/``accumulate``: face-flux capture, see the class)."""
        scheme, pool, g, nd = self.scheme, self.pool, self.g, self.ndim
        ui, save = self.interior, self.save
        for s, e in self._each_tile(rows):
            needs = self._needs(register, s, e)
            captured: Optional[Dict] = {} if needs else None
            rate = scheme.flux_divergence(
                pool[s:e], [d[s:e] for d in self.dx], g, ndim=nd,
                out=self.rate[: e - s], work=self.work, face_flux_out=captured,
            )
            if needs:
                _hand_over(register, needs, captured, dt if accumulate else None)
            # same two IEEE ops per element as ``save + dt * rate``,
            # without the broadcast temporary
            rate *= dt
            np.add(save[s:e], rate, out=ui[s:e])
            scheme.apply_floors(ui[s:e].swapaxes(0, 1))

    def _needs(self, register: Optional["FluxRegister"], s: int, e: int) -> list:
        """``(tile row, block id, faces)`` of every block in rows
        ``[s, e)`` whose faces ``register`` needs."""
        if register is None:
            return []
        wanted = register.needed_faces
        ids = [self._block_at[r].id for r in range(s, e)]
        return [(b, bid, wanted[bid]) for b, bid in enumerate(ids) if bid in wanted]


def _hand_over(register, needs, captured, weight: Optional[float]) -> None:
    """Give ``register`` each block's needed slabs of a tile's captured
    ``(nvar, rows, *transverse)`` face fluxes: recorded, or accumulated
    ``weight``-scaled."""
    for b, bid, faces in needs:
        slabs = {face: captured[face][:, b] for face in faces}
        if weight is None:
            register.record(bid, slabs)
        else:
            register.accumulate(bid, slabs, weight)
