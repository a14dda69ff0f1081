"""Pooled block storage: every block's padded array is a row of one pool.

The paper's central data-structure bet is that *all blocks have the same
shape*: an ``m1 × ... × md`` cell array with a fixed ghost halo.  That
regularity is what lets per-block loops become long vectorizable sweeps.
The :class:`BlockArena` pushes the same idea one level up: instead of one
numpy allocation per block, the forest stores every block's padded array
as one row of a single contiguous ``(capacity, nvar, *padded)`` pool.

* Allocation/release is a free-list — O(1), no allocator churn as the
  forest adapts.
* ``Block.data`` becomes a *view* of the block's pool row, so every
  existing per-block kernel works unchanged.
* After adaptation the active rows can be *compacted* to a contiguous
  Morton-ordered prefix (:meth:`ensure_compact`), so the batched engine
  gets a zero-copy ``(B, nvar, *padded)`` stack covering the whole
  forest and can sweep all blocks with single numpy calls.
* A scratch pool of interior-shaped rows (:meth:`save_pool`) backs the
  two-stage integrator's predictor saves without per-step allocation.

Growth and compaction move rows, which invalidates outstanding views;
the arena re-binds every registered block's ``data`` attribute and bumps
:attr:`layout_epoch` so consumers caching raw views (the compiled ghost
plan) can key on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import METRICS

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.block import Block

__all__ = ["BlockArena"]


class BlockArena:
    """Free-list pool of identically shaped padded block arrays.

    Parameters
    ----------
    m:
        Computational cells per axis (every block in the forest shares
        this — the invariant that makes pooling possible).
    n_ghost:
        Ghost layers per side.
    nvar:
        State variables per cell.
    initial_capacity:
        Rows preallocated up front; the pool doubles on exhaustion.
    buffer:
        Optional writable buffer (e.g. a ``multiprocessing.shared_memory``
        view) backing the pool instead of a private allocation.  The
        capacity is then *fixed*: the buffer must hold exactly
        ``initial_capacity`` rows of float64 and :meth:`acquire` raises
        instead of growing when it is exhausted — a pool whose rows other
        processes map by offset cannot be silently reallocated.  The
        buffer's existing contents are kept (shared segments arrive
        zero-filled from the kernel; an attaching side must not clobber
        the creator's data).
    """

    def __init__(
        self,
        m: Sequence[int],
        n_ghost: int,
        nvar: int,
        *,
        initial_capacity: int = 8,
        buffer: Optional[memoryview] = None,
    ) -> None:
        self.m = tuple(int(mi) for mi in m)
        self.n_ghost = int(n_ghost)
        self.nvar = int(nvar)
        self.padded = tuple(mi + 2 * self.n_ghost for mi in self.m)
        cap = max(1, int(initial_capacity))
        self._fixed = buffer is not None
        if buffer is None:
            self.pool: np.ndarray = np.zeros((cap, self.nvar) + self.padded)
        else:
            shape = (cap, self.nvar) + self.padded
            need = 8 * int(np.prod(shape))
            if len(buffer) < need:
                raise ValueError(
                    f"buffer holds {len(buffer)} bytes; "
                    f"{need} needed for {cap} rows"
                )
            self.pool = np.frombuffer(
                buffer, dtype=np.float64, count=need // 8
            ).reshape(shape)
        #: bumped whenever rows move (growth or compaction): any cached
        #: view or flat index array into the pool is stale afterwards.
        self.layout_epoch = 0
        self.n_grows = 0
        self.n_compactions = 0
        self._blocks: List[Optional["Block"]] = [None] * cap
        self._free: List[int] = list(range(cap - 1, -1, -1))
        self._save: Optional[np.ndarray] = None
        self._rate: Optional[np.ndarray] = None

    # -- capacity bookkeeping ----------------------------------------------

    @property
    def capacity(self) -> int:
        return int(self.pool.shape[0])

    @property
    def n_active(self) -> int:
        return self.capacity - len(self._free)

    @property
    def row_size(self) -> int:
        """Elements per pool row (``nvar * prod(padded)``)."""
        n = self.nvar
        for p in self.padded:
            n *= p
        return n

    # -- allocation ---------------------------------------------------------

    def acquire(self) -> int:
        """Take a free row (zeroed), growing the pool if exhausted."""
        if not self._free:
            self._grow(self.capacity * 2)
        row = self._free.pop()
        self.pool[row] = 0.0
        if METRICS.enabled:
            METRICS.inc("arena.acquires")
            METRICS.gauge("arena.occupancy", self.n_active / self.capacity)
        return row

    def view(self, row: int) -> np.ndarray:
        """The ``(nvar, *padded)`` view of one pool row."""
        return self.pool[row]

    def bind(self, row: int, block: "Block") -> None:
        """Register ``block`` as the owner of ``row`` so its ``data``
        view can be re-bound when rows move."""
        if self._blocks[row] is not None:
            raise ValueError(f"arena row {row} is already bound")
        self._blocks[row] = block
        block.arena_row = row
        block.data = self.pool[row]

    def release(self, block: "Block") -> None:
        """Return a block's row to the free list.

        The block's ``data`` keeps referencing the row until it is
        reused, so callers must finish reading it *before* any further
        allocation (the forest's refine path materializes the prolonged
        payload first for exactly this reason).
        """
        row = block.arena_row
        if row is None or self._blocks[row] is not block:
            raise ValueError(f"block {block.id} is not bound to this arena")
        self._blocks[row] = None
        block.arena_row = None
        self._free.append(row)
        if METRICS.enabled:
            METRICS.inc("arena.releases")
            METRICS.gauge("arena.occupancy", self.n_active / self.capacity)

    def _grow(self, new_capacity: int) -> None:
        if self._fixed:
            raise RuntimeError(
                "buffer-backed arena is at fixed capacity "
                f"({self.capacity} rows); it cannot grow because other "
                "processes map its rows by offset"
            )
        old = self.pool
        cap = self.capacity
        pool = np.zeros((new_capacity, self.nvar) + self.padded)
        pool[:cap] = old
        self.pool = pool
        self._blocks.extend([None] * (new_capacity - cap))
        self._free.extend(range(new_capacity - 1, cap - 1, -1))
        for row, blk in enumerate(self._blocks[:cap]):
            if blk is not None:
                blk.data = pool[row]
        # Scratch contents are per-step; reallocate lazily at new size.
        self._save = None
        self._rate = None
        self.layout_epoch += 1
        self.n_grows += 1
        if METRICS.enabled:
            METRICS.inc("arena.grows")
            METRICS.gauge("arena.capacity", new_capacity)

    # -- batched access -----------------------------------------------------

    def is_compact(self, blocks: Sequence["Block"]) -> bool:
        """True when ``blocks`` already occupy rows ``0..len-1`` in order."""
        return all(b.arena_row == i for i, b in enumerate(blocks))

    def ensure_compact(self, blocks: Sequence["Block"]) -> np.ndarray:
        """Permute rows so ``blocks`` occupy the prefix ``0..B-1`` in the
        given (Morton) order; return the zero-copy ``(B, nvar, *padded)``
        stack.  Idempotent: bumps :attr:`layout_epoch` only when rows
        actually move."""
        n = len(blocks)
        if self.is_compact(blocks):
            return self.pool[:n]
        rows = np.empty(n, dtype=np.intp)
        for i, b in enumerate(blocks):
            if b.arena_row is None or self._blocks[b.arena_row] is not b:
                raise ValueError(f"block {b.id} is not bound to this arena")
            rows[i] = b.arena_row
        # Advanced indexing on the right materializes the gathered rows
        # before the assignment, so overlapping source/destination is safe.
        self.pool[:n] = self.pool[rows]
        self._blocks = [None] * self.capacity
        for i, b in enumerate(blocks):
            self._blocks[i] = b
            b.arena_row = i
            b.data = self.pool[i]
        self._free = list(range(self.capacity - 1, n - 1, -1))
        self.layout_epoch += 1
        self.n_compactions += 1
        if METRICS.enabled:
            METRICS.inc("arena.compactions")
        return self.pool[:n]

    # -- scratch (predictor saves) -----------------------------------------

    def save_pool(self) -> np.ndarray:
        """Scratch pool of interior-shaped rows, ``(capacity, nvar, *m)``.

        Row ``i`` belongs to the block bound to arena row ``i``; contents
        are only meaningful within one ``advance`` call (the two-stage
        predictor writes them, the corrector reads them back)."""
        if self._save is None or self._save.shape[0] != self.capacity:
            self._save = np.zeros((self.capacity, self.nvar) + self.m)
        return self._save

    def rate_pool(self, rows: Optional[int] = None) -> np.ndarray:
        """Interior-shaped scratch for flux-divergence rates,
        ``(rows, nvar, *m)`` (``rows`` defaults to the capacity) — reused
        across every tile of every stage instead of allocating one
        temporary per tile.  Contents are meaningless between kernel
        calls."""
        rows = self.capacity if rows is None else rows
        if self._rate is None or self._rate.shape[0] != rows:
            self._rate = np.zeros((rows, self.nvar) + self.m)
        return self._rate

    def save_row(self, block: "Block") -> np.ndarray:
        """The scratch row of one block (``(nvar, *m)`` view)."""
        row = block.arena_row
        if row is None:
            raise ValueError(f"block {block.id} is not bound to this arena")
        return self.save_pool()[row]

    def stats(self) -> Tuple[int, int, int]:
        """(capacity, grows, compactions) — for diagnostics and tests."""
        return (self.capacity, self.n_grows, self.n_compactions)

    def __repr__(self) -> str:
        return (
            f"BlockArena(m={self.m}, g={self.n_ghost}, nvar={self.nvar}, "
            f"active={self.n_active}/{self.capacity}, epoch={self.layout_epoch})"
        )
