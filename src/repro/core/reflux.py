"""Flux correction (refluxing) at coarse–fine block interfaces.

At a face where a coarse block abuts finer blocks, the two sides compute
*different* numerical fluxes for the same physical interface (the coarse
one from coarse reconstructions, the fine ones at twice the resolution),
so the update is not strictly conservative across the interface.  The
Berger–Colella remedy — implemented here as the library's optional
extension — replaces the coarse flux with the area-averaged fine flux
after the step:

``U_coarse_adjacent ± dt/dx_a * (F_coarse − <F_fine>)``

with the sign chosen so the coarse cell ends up as if it had used the
restricted fine flux.  With refluxing enabled, AMR runs conserve all
variables to round-off on periodic domains (tested), matching uniform
grids.

The paper's code accepted the (small) unsynchronized-flux error; its
descendants (BATS-R-US "conservative flux fix", PARAMESH, AMReX) all
grew this correction, so it belongs in a faithful production library.
Limited to ``max_level_jump == 1`` (the paper's standard constraint).

The face fluxes come out of the final stage's tiled kernel calls
(:class:`~repro.solvers.sweep.PoolSweep` hands them over), and the
index geometry of every correction is compiled once per topology, on
the register's first :meth:`FluxRegister.apply`: later steps only do
the array arithmetic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.block import NeighborKind
from repro.core.block_id import BlockID, IndexBox
from repro.core.forest import BlockForest
from repro.util.geometry import face_axis, face_side, opposite_face

__all__ = ["FluxRegister"]


def _restrict_transverse(flux: np.ndarray) -> np.ndarray:
    """Average a fine face-flux slab over 2x(2) transverse cells.

    Input shape ``(nvar, t1[, t2])`` with every ti even; output halves
    every transverse extent.  In 1-D (no transverse axes) it is the
    identity.
    """
    out = flux
    for axis in range(1, out.ndim):
        n = out.shape[axis]
        shape = out.shape[:axis] + (n // 2, 2) + out.shape[axis + 1 :]
        out = out.reshape(shape).mean(axis=axis + 1)
    return out


class FluxRegister:
    """Bookkeeping for refluxing one forest topology.

    Build it after the forest topology settles (it reads the explicit
    face-neighbor pointers); ask :attr:`needed_faces` which block faces
    must have their fluxes captured during the final update stage; feed
    the captured slabs to :meth:`record` (or :meth:`accumulate`); then
    :meth:`apply` the corrections.  The first :meth:`apply` compiles
    one entry per (coarse face, fine neighbour) — where in the coarse
    block's array the correction lands (indices, not views: arena rows
    move between steps), which part of the coarse slab it reads, its
    sign and width — and every later step reuses them; a topology
    change needs a new register.
    """

    def __init__(self, forest: BlockForest) -> None:
        if forest.max_level_jump != 1:
            raise ValueError(
                "refluxing supports the standard 2:1 balance only "
                f"(max_level_jump={forest.max_level_jump})"
            )
        self.forest = forest
        self.revision = forest.revision
        #: (coarse_id, face) -> tuple of fine neighbor ids across it
        self.interfaces: Dict[Tuple[BlockID, int], Tuple[BlockID, ...]] = {}
        #: faces every block must capture during the final stage
        self.needed_faces: Dict[BlockID, Set[int]] = {}
        for bid, block in forest.blocks.items():
            for face, fn in block.face_neighbors.items():
                if fn.kind == NeighborKind.FINER:
                    self.interfaces[(bid, face)] = fn.ids
                    self.needed_faces.setdefault(bid, set()).add(face)
                    opp = opposite_face(face)
                    for nid in fn.ids:
                        self.needed_faces.setdefault(nid, set()).add(opp)
        self._fluxes: Dict[Tuple[BlockID, int], np.ndarray] = {}
        #: the compiled corrections (:meth:`_compile`), on first apply
        self._program: Optional[List[tuple]] = None

    @property
    def n_interfaces(self) -> int:
        return len(self.interfaces)

    def start_step(self) -> None:
        """Drop recorded fluxes from the previous step."""
        self._fluxes.clear()

    def record(self, bid: BlockID, face_fluxes: Dict[int, np.ndarray]) -> None:
        """Store the captured boundary-face fluxes of one block."""
        for face, slab in face_fluxes.items():
            self._fluxes[(bid, face)] = slab

    def accumulate(
        self, bid: BlockID, face_fluxes: Dict[int, np.ndarray], weight: float
    ) -> None:
        """Add ``weight``-scaled captured fluxes of one block.

        This is the subcycled counterpart of :meth:`record`: each level
        feeds its final-stage face fluxes weighted by its *own* substep
        length, so after one full coarse step the register holds the
        time-integrated flux ``sum_k dt_k F_k`` on both sides of every
        coarse-fine face (2^delta fine substeps against one coarse
        step over the same physical interval).  :meth:`apply` with
        ``dt=1`` then applies the Berger-Colella correction
        ``±(Σdt·<F_fine> − Σdt·F_coarse)/dx`` once per coarse step.
        """
        for face, slab in face_fluxes.items():
            key = (bid, face)
            cur = self._fluxes.get(key)
            if cur is None:
                self._fluxes[key] = weight * slab
            else:
                cur += weight * slab

    def apply(self, dt: float) -> None:
        """Correct the coarse cells adjacent to every coarse–fine face.

        ``dt`` must be the step length of the update whose fluxes were
        recorded (1 for fluxes accumulated with their own weights).
        """
        if self.forest.revision != self.revision:
            raise RuntimeError(
                "forest topology changed since this FluxRegister was built"
            )
        if self._program is None:
            self._program = self._compile()
        blocks, fluxes = self.forest.blocks, self._fluxes
        for cid, dst_sl, coarse_key, fine_key, src_c_sl, sign, dx in self._program:
            f_coarse = fluxes.get(coarse_key)
            if f_coarse is None:
                raise RuntimeError(
                    f"no recorded flux for {cid} face {coarse_key[1]}; was "
                    "the final stage run with face capture?"
                )
            f_fine = fluxes.get(fine_key)
            if f_fine is None:
                raise RuntimeError(
                    f"no recorded flux for fine block {fine_key[0]} face "
                    f"{fine_key[1]}"
                )
            fc = f_coarse[src_c_sl]
            dst = blocks[cid].data[dst_sl]
            # dU = -(F_hi - F_lo)/dx: replacing F at the high face by the
            # fine average changes U by -(F_fine - F_coarse)/dx * dt, and
            # by +(...) at the low face.
            delta = sign * dt / dx * (
                _restrict_transverse(f_fine).reshape(fc.shape) - fc
            )
            dst += delta.reshape(dst.shape)

    def _compile(self) -> List[tuple]:
        """``(coarse id, data index, coarse key, fine key, coarse-slab
        index, sign, dx)`` per (coarse face, fine neighbour), in
        interface order: the corrections of a corner cell's two faces
        land in the order they always did."""
        forest = self.forest
        program: List[tuple] = []
        for (cid, face), fine_ids in self.interfaces.items():
            coarse = forest.blocks[cid]
            axis, side = face_axis(face), face_side(face)
            # Layer of coarse interior cells adjacent to the face.
            lo, hi = list(coarse.cell_box.lo), list(coarse.cell_box.hi)
            if side == 0:
                hi[axis] = lo[axis] + 1
            else:
                lo[axis] = hi[axis] - 1
            layer = IndexBox(tuple(lo), tuple(hi))
            fn = coarse.face_neighbors[face]
            shift = tuple(
                -s * (n << coarse.level) * m
                for s, n, m in zip(fn.shift, forest.n_root, forest.m)
            )
            for nid in fine_ids:
                # Where this fine block sits within the coarse face.
                nb_box = forest.blocks[nid].cell_box.coarsened(1).shift(shift)
                overlap = layer.intersect(IndexBox(
                    nb_box.lo[:axis] + (lo[axis],) + nb_box.lo[axis + 1:],
                    nb_box.hi[:axis] + (hi[axis],) + nb_box.hi[axis + 1:],
                ))
                if overlap.empty:
                    continue
                # The coarse slab's frame is the layer minus its axis.
                src_c_sl = (slice(None),) + tuple(
                    slice(overlap.lo[a] - lo[a], overlap.hi[a] - lo[a])
                    for a in range(coarse.ndim) if a != axis
                )
                program.append((
                    cid, (slice(None),) + overlap.slices(coarse.index_origin),
                    (cid, face), (nid, opposite_face(face)), src_c_sl,
                    -1.0 if side == 1 else 1.0, float(coarse.dx[axis]),
                ))
        return program
