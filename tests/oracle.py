"""Test oracles: the one surviving copy of each replaced executor.

:class:`BlockOracle` has :class:`repro.solvers.sweep.PoolSweep`'s
interface but calls ``scheme.step`` / ``scheme.flux_divergence`` one
block at a time with no batch axis (the call Fig. 5 and T-A time), and
captures a reflux register's face fluxes with a separate per-block
``flux_divergence`` before the block's update.
``use_oracle(monkeypatch)`` substitutes it; production must match bitwise.

:func:`apply_reflux_reference` is ``FluxRegister.apply`` walking the
interface geometry afresh on every call; the compiled ``apply`` must
match it bitwise.

:func:`fill_ghosts_in_order` is the ghost exchange with its prolongations
run one after another in plan order, each reading what the earlier ones
wrote — no gather, no replayed dependencies, no batching.  Production
``fill_ghosts`` must match it bitwise.
"""

import numpy as np

import repro.amr.driver
import repro.amr.subcycle
import repro.parallel.procworker
from repro.core.block_id import IndexBox
from repro.core.ghost import ghost_plan, run_boundaries, run_copies, run_restrictions
from repro.core.prolong import prolong_inject, prolong_linear
from repro.core.reflux import _restrict_transverse
from repro.util.geometry import face_axis, face_side, opposite_face


class BlockOracle:
    def __init__(self, scheme, pool, placed, n_ghost, *, save, rate, tile):
        self.scheme, self.g, self.save = scheme, n_ghost, save
        self.placed = sorted(placed, key=lambda rb: rb[0])
        self.work = None  # no workspace: every kernel call allocates

    def _each(self, rows):
        lo, hi = rows or (0, len(self.save))
        return [(r, b) for r, b in self.placed if lo <= r < hi]

    def snapshot(self, rows=None):
        for row, block in self._each(rows):
            self.save[row] = block.interior

    def _capture(self, block, register, weight):
        faces = register.needed_faces.get(block.id) if register else None
        if faces:
            captured = {}
            self.scheme.flux_divergence(block.data, block.dx, self.g, face_flux_out=captured)
            slabs = {face: captured[face] for face in faces}
            if weight is None:
                register.record(block.id, slabs)
            else:
                register.accumulate(block.id, slabs, weight)

    def forward(self, dt, rows=None, *, register=None, accumulate=False):
        for _, block in self._each(rows):
            self._capture(block, register, dt if accumulate else None)
            self.scheme.step(block.data, block.dx, dt, self.g)

    def correct(self, dt, rows=None, *, register=None, accumulate=False):
        for row, block in self._each(rows):
            self._capture(block, register, dt if accumulate else None)
            rate = self.scheme.flux_divergence(block.data, block.dx, self.g)
            block.interior[...] = self.save[row] + dt * rate
            self.scheme.apply_floors(block.interior)


def use_oracle(monkeypatch):
    for module in (repro.amr.driver, repro.amr.subcycle, repro.parallel.procworker):
        monkeypatch.setattr(module, "PoolSweep", BlockOracle)


def fill_ghosts_in_order(forest, bc=None):
    plan = ghost_plan(forest)
    run_copies(plan)
    run_restrictions(plan, forest.ndim)
    run_boundaries(plan, bc, forest)
    prolong = prolong_inject if forest.prolong_order == 1 else prolong_linear
    for p in plan.prolongs:
        data = p.src_view if p.pad is None else np.pad(p.src_view, p.pad, mode="edge")
        for _ in range(p.up):
            data = prolong(data, forest.ndim)
        p.dst_view[...] = data[p.crop]
    run_boundaries(plan, bc, forest)


def apply_reflux_reference(register, dt):
    forest, fluxes = register.forest, register._fluxes
    for (cid, face), fine_ids in register.interfaces.items():
        coarse = forest.blocks[cid]
        axis, side = face_axis(face), face_side(face)
        f_coarse = fluxes[(cid, face)]
        lo, hi = list(coarse.cell_box.lo), list(coarse.cell_box.hi)
        if side == 0:
            hi[axis] = lo[axis] + 1
        else:
            lo[axis] = hi[axis] - 1
        layer = IndexBox(tuple(lo), tuple(hi))
        layer_view = coarse.view(layer)
        fn = coarse.face_neighbors[face]
        shift = tuple(
            s * (n << coarse.level) * m for s, n, m in zip(fn.shift, forest.n_root, forest.m)
        )
        sign = -1.0 if side == 1 else 1.0
        for nid in fine_ids:
            f_avg = _restrict_transverse(fluxes[(nid, opposite_face(face))])
            nb_box = forest.blocks[nid].cell_box.coarsened(1).shift(tuple(-s for s in shift))
            overlap = layer.intersect(IndexBox(
                tuple(nb_box.lo[a] if a != axis else lo[axis] for a in range(coarse.ndim)),
                tuple(nb_box.hi[a] if a != axis else hi[axis] for a in range(coarse.ndim)),
            ))
            if overlap.empty:
                continue
            dst_sl, src_c_sl = [slice(None)], [slice(None)]
            for a in range(coarse.ndim):
                s0, s1 = overlap.lo[a] - lo[a], overlap.hi[a] - lo[a]
                dst_sl.append(slice(s0, s1))
                if a != axis:
                    src_c_sl.append(slice(s0, s1))
            fc = f_coarse[tuple(src_c_sl)]
            dst = layer_view[tuple(dst_sl)]
            delta = sign * dt / coarse.dx[axis] * (f_avg.reshape(fc.shape) - fc)
            dst += delta.reshape(dst.shape)
