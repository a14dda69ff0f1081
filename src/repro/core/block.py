"""The adaptive block: a regular cell array with a ghost halo.

Each :class:`Block` owns one contiguous numpy array of conserved
variables covering an ``m1 × m2 × ... × md`` array of *computational*
cells surrounded by ``n_ghost`` layers of *ghost* cells.  All numerical
kernels operate on these arrays with whole-array (vectorized) slicing —
the Python analogue of the loop/cache optimizations the paper performs
over per-block Fortran arrays.

Connectivity is stored as explicit per-face neighbor pointers
(:class:`FaceNeighbors`), maintained by the forest, so locating a
neighbor is a direct lookup rather than a tree traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.block_id import BlockID, IndexBox
from repro.util.geometry import Box, face_axis, face_side

__all__ = ["Block", "FaceNeighbors", "NeighborKind"]


class NeighborKind:
    """Classification of what lies across a block face."""

    SAME = "same"          #: one neighbor at the same refinement level
    COARSER = "coarser"    #: one neighbor at a coarser level
    FINER = "finer"        #: several neighbors at finer levels
    BOUNDARY = "boundary"  #: physical domain boundary


@dataclass
class FaceNeighbors:
    """Explicit neighbor pointers across one face of a block.

    ``ids`` holds the BlockIDs of every leaf block sharing this face.
    Under the default 2:1 balance there are at most ``2**(d-1)`` of them
    (all one level finer), exactly one (same or one level coarser), or
    none (physical boundary) — matching the paper's bound.  With a
    relaxed ``max_level_jump = k`` there may be up to ``2**(k*(d-1))``.

    ``shift`` is the periodic-wrap displacement, in *root-level block
    units*, that must be added to this block's coordinates to land in the
    neighbor's frame; it is zero except across periodic boundaries.
    """

    kind: str
    ids: Tuple[BlockID, ...] = ()
    shift: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == NeighborKind.BOUNDARY and self.ids:
            raise ValueError("boundary faces have no neighbor ids")
        if self.kind in (NeighborKind.SAME, NeighborKind.COARSER) and len(self.ids) != 1:
            raise ValueError(f"{self.kind} faces must have exactly one neighbor")
        if self.kind == NeighborKind.FINER and not self.ids:
            raise ValueError("finer faces must have at least one neighbor")


@dataclass
class Block:
    """One adaptive block: geometry + data array + neighbor pointers.

    Parameters
    ----------
    id:
        Logical address (level + coordinates).
    box:
        Physical bounding box of the computational region (ghosts lie
        outside it).
    m:
        Computational cells per axis (each must be even and
        ``>= 2 * n_ghost`` so prolongation/restriction stay in-block).
    n_ghost:
        Ghost layers per side.  One suffices for first-order operators;
        higher-resolution (MUSCL) schemes need two — exactly the paper's
        ghost-layer discussion.
    nvar:
        Number of state variables (e.g. 8 for 3-D ideal MHD).
    """

    id: BlockID
    box: Box
    m: Tuple[int, ...]
    n_ghost: int
    nvar: int
    data: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    face_neighbors: Dict[int, FaceNeighbors] = field(default_factory=dict, repr=False)
    #: pool row when ``data`` is a view into a :class:`~repro.core.arena.
    #: BlockArena` (None for standalone blocks, e.g. a rank process's
    #: views into shared segments).
    arena_row: Optional[int] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.m) != self.id.ndim:
            raise ValueError("m dimension mismatch with BlockID")
        if self.n_ghost < 1:
            raise ValueError("need at least one ghost layer")
        for mi in self.m:
            if mi % 2 != 0:
                raise ValueError(f"block size {mi} must be even (for 2^d refinement)")
            if mi < 2 * self.n_ghost:
                raise ValueError(
                    f"block size {mi} too small for {self.n_ghost} ghost layers"
                )
        if self.nvar < 1:
            raise ValueError("nvar must be >= 1")
        padded = tuple(mi + 2 * self.n_ghost for mi in self.m)
        if self.data is None:
            self.data = np.zeros((self.nvar,) + padded)
        elif self.data.shape != (self.nvar,) + padded:
            raise ValueError(
                f"data shape {self.data.shape} != expected {(self.nvar,) + padded}"
            )

    # -- geometry -----------------------------------------------------------

    @property
    def ndim(self) -> int:
        return self.id.ndim

    @property
    def level(self) -> int:
        return self.id.level

    @property
    def padded_shape(self) -> Tuple[int, ...]:
        return tuple(mi + 2 * self.n_ghost for mi in self.m)

    @property
    def n_cells(self) -> int:
        """Number of computational (non-ghost) cells."""
        n = 1
        for mi in self.m:
            n *= mi
        return n

    @property
    def n_ghost_cells(self) -> int:
        """Number of ghost cells (padded minus computational)."""
        n = 1
        for p in self.padded_shape:
            n *= p
        return n - self.n_cells

    @property
    def dx(self) -> Tuple[float, ...]:
        """Physical cell widths."""
        return self.box.cell_widths(self.m)

    @property
    def cell_box(self) -> IndexBox:
        """Global cell-index box of the interior at this block's level."""
        return self.id.cell_box(self.m)

    @property
    def index_origin(self) -> Tuple[int, ...]:
        """Global cell index of the [0,...,0] element of the *padded* array."""
        return tuple(
            c * mi - self.n_ghost for c, mi in zip(self.id.coords, self.m)
        )

    def cell_centers(self, include_ghost: bool = False) -> Tuple[np.ndarray, ...]:
        """1-D arrays of physical cell-center coordinates per axis."""
        dx = self.dx
        if include_ghost:
            return tuple(
                lo + (np.arange(-self.n_ghost, mi + self.n_ghost) + 0.5) * h
                for lo, mi, h in zip(self.box.lo, self.m, dx)
            )
        return self.box.cell_centers(self.m)

    def meshgrid(self, include_ghost: bool = False) -> Tuple[np.ndarray, ...]:
        """d-dimensional physical coordinate arrays (ij indexing)."""
        return tuple(
            np.meshgrid(*self.cell_centers(include_ghost), indexing="ij")
        )

    # -- array views --------------------------------------------------------

    @property
    def interior_slices(self) -> Tuple[slice, ...]:
        g = self.n_ghost
        return tuple(slice(g, g + mi) for mi in self.m)

    @property
    def interior(self) -> np.ndarray:
        """View of the computational cells: shape ``(nvar, *m)``."""
        return self.data[(slice(None),) + self.interior_slices]

    def view(self, region: IndexBox) -> np.ndarray:
        """View of an arbitrary region given in *global* cell indices
        (at this block's level).  The region must lie within the padded
        array."""
        sl = region.slices(self.index_origin)
        for s, p in zip(sl, self.padded_shape):
            if s.start < 0 or s.stop > p:
                raise IndexError(
                    f"region {region} outside padded array of block {self.id}"
                )
        return self.data[(slice(None),) + sl]

    @property
    def padded_box(self) -> IndexBox:
        """Global cell-index box of the full padded array."""
        return self.cell_box.grow(self.n_ghost)

    def ghost_region(self, face: int, swept_axes: Tuple[int, ...] = ()) -> IndexBox:
        """Ghost slab outside ``face`` in global cell indices.

        ``swept_axes`` lists transverse axes whose ghost extension should
        be *included* in the slab — the axis-sweep corner-filling scheme:
        when exchanging along axis ``a``, axes already swept contribute
        their ghost extent so that edge/corner ghosts get valid data.
        """
        axis, side = face_axis(face), face_side(face)
        ib = self.cell_box
        lo = list(ib.lo)
        hi = list(ib.hi)
        if side == 0:
            hi[axis] = lo[axis]
            lo[axis] -= self.n_ghost
        else:
            lo[axis] = hi[axis]
            hi[axis] += self.n_ghost
        for b in swept_axes:
            if b == axis:
                continue
            lo[b] -= self.n_ghost
            hi[b] += self.n_ghost
        return IndexBox(tuple(lo), tuple(hi))

    # -- bookkeeping --------------------------------------------------------

    def fill(self, values: np.ndarray) -> None:
        """Set every interior cell of every variable from a ``(nvar, *m)``
        (or broadcastable) array."""
        self.interior[...] = values

    def zero_ghosts(self) -> None:
        """Reset ghost cells to zero (useful to detect unfilled ghosts)."""
        keep = self.interior.copy()
        self.data[...] = 0.0
        self.interior[...] = keep

    def __repr__(self) -> str:
        return (
            f"Block({self.id}, m={self.m}, g={self.n_ghost}, nvar={self.nvar})"
        )
