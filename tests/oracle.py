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

:func:`compile_plan_reference` is ``compile_plan`` by box algebra on
every transfer: owners found by descending ``BlockID``s, every box
intersected in global indices, every view taken through ``Block.view``
— no templates.  The compiled plan must equal it entry by entry.  Its
schedule is :func:`regions_reference`: the face regions at a level
jump of 1, every region otherwise.

:func:`fill_ghosts_in_order` runs the reference plan of the *full*
exchange — every face, edge and corner region — with its prolongations
one after another in plan order, each reading what the earlier ones
wrote — no gather, no replayed dependencies, no batching.  Production
``fill_ghosts`` must match it bitwise on every interior and every ghost
cell a kernel or a face region's prolongation reads (:func:`read_cells`).

:func:`advance_reference` is ``Simulation.advance`` as two step programs:
the global body, and the subcycled sweep that tracks a time interval per
block and interpolates every source whose interval spans the fill time
(same level and finer included); :func:`stable_dt_reference` is the CFL
loop per block.  ``use_reference_step(monkeypatch)`` substitutes both;
the one group sweep must match them bitwise.
"""

import numpy as np

import repro.amr.driver
import repro.parallel.procworker
from repro.amr.driver import level_divisors
from repro.core.block_id import BlockID, IndexBox
from repro.core.ghost import (
    GhostPlan,
    Transfer,
    _bc_scan_faces,
    _bordered_read,
    _cell_shift,
    _Copy,
    _FILLED_VOLUME,
    _hull,
    _Prolong,
    _prolonged_slices,
    _Restrict,
    _restriction_geometry,
    _restriction_weights,
    _RestrictSource,
    all_offsets,
    ghost_plan,
    ghost_region_for_offset,
    prolongation_border,
    prolongation_reads,
    run_boundaries,
    run_copies,
    run_restrictions,
)
from repro.core.prolong import prolong_inject, prolong_linear
from repro.core.reflux import _restrict_transverse
from repro.solvers.sweep import PoolSweep
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
    for module in (repro.amr.driver, repro.parallel.procworker):
        monkeypatch.setattr(module, "PoolSweep", BlockOracle)


def _owners_reference(forest, bid, offset):
    coords, wrap = [], []
    for axis in range(forest.ndim):
        c, w = forest._wrap_coord(bid.level, axis, bid.coords[axis] + offset[axis])
        if c is None:
            return None
        coords.append(c)
        wrap.append(w)
    cand = BlockID(bid.level, tuple(coords))
    for level in range(cand.level, -1, -1):
        if cand.ancestor(level) in forest.blocks:
            return tuple(wrap), [cand.ancestor(level)]
    region = ghost_region_for_offset(forest.blocks[bid], offset)
    region = region.shift(_cell_shift(forest, wrap, bid.level))
    owners, stack = [], [cand]
    while stack:
        for child in stack.pop().children():
            if child.level > forest.max_level or region.refined(
                child.level - bid.level
            ).intersect(child.cell_box(forest.m)).empty:
                continue
            (owners if child in forest.blocks else stack).append(child)
    return tuple(wrap), sorted(owners)


def regions_reference(forest, fill_corners=True):
    """Every non-empty ghost region of a full exchange (face regions only
    without ``fill_corners``), in plan order."""
    out = []
    for bid in forest.sorted_ids():
        for offset in all_offsets(forest.ndim, faces_only=not fill_corners):
            found = _owners_reference(forest, bid, offset)
            if found is None:
                continue
            shift = _cell_shift(forest, found[0], bid.level)
            region = ghost_region_for_offset(forest.blocks[bid], offset).shift(shift)
            transfers = []
            for nid in found[1]:
                box, delta = forest.blocks[nid].cell_box, nid.level - bid.level
                if delta == 0:
                    src = covered = region.intersect(box)
                elif delta < 0:
                    src = region.coarsened(-delta).intersect(box)
                    covered = src.refined(-delta).intersect(region)
                else:
                    src = region.refined(delta).intersect(box)
                    covered = src.coarsened(delta).intersect(region)
                if not src.empty:
                    back = covered.shift(tuple(-s for s in shift))
                    transfers.append(Transfer(bid, nid, offset, src, back, shift))
            if transfers:
                out.append((bid, offset, transfers))
    return out


def is_face(offset):
    return sum(1 for o in offset if o) == 1


def _reads_reference(src, t, order):
    """What the prolongation ``t`` reads of its source ``src``."""
    return tuple(
        r.intersect(src.padded_box) for r in prolongation_reads(t.src_box, -t.delta, order)
    )


def read_cells(forest):
    """Block id -> mask of the cells of its padded array a fill must get
    right: the interior, every face slab (what the stencils read) and
    what the face regions' prolongations read of their sources
    (``prolongation_reads``: face slabs and interior at a level jump of
    1, edge and corner ghosts too above it)."""
    masks = {}
    for bid, block in forest.blocks.items():
        mask = np.zeros(block.padded_shape, dtype=bool)
        mask[block.interior_slices] = True
        for offset in all_offsets(forest.ndim, faces_only=True):
            mask[ghost_region_for_offset(block, offset).slices(block.index_origin)] = True
        masks[bid] = mask
    for _bid, _offset, transfers in regions_reference(forest, fill_corners=False):
        for t in transfers:
            if t.delta < 0:
                src = forest.blocks[t.src_id]
                for box in _reads_reference(src, t, forest.prolong_order):
                    masks[t.src_id][box.slices(src.index_origin)] = True
    return masks


def _restrict_reference(block, transfers, blocks, ndim):
    union = _hull([t.dst_box for t in transfers])
    vol = np.zeros(union.shape)
    sources = []
    every = (slice(None),)
    for t in transfers:
        aligned, inner, frac, coarse_box = _restriction_geometry(t, ndim)
        tgt = coarse_box.intersect(union)
        src_sl, dst_sl = tgt.slices(coarse_box.lo), tgt.slices(union.lo)
        vol[dst_sl] += _restriction_weights(aligned, inner, t.delta, frac, ndim)[src_sl]
        staged = None if aligned == t.src_box else (block.nvar,) + aligned.shape
        sources.append(_RestrictSource(
            blocks[t.src_id].view(t.src_box), staged, every + inner, t.delta, frac,
            every + dst_sl, every + src_sl,
        ))
    filled = vol > _FILLED_VOLUME
    return _Restrict(
        block.view(union), (block.nvar,) + union.shape, tuple(sources), filled,
        np.where(filled, vol, 1.0), block, union, tuple(blocks[t.src_id] for t in transfers),
    )


def _prolong_reference(block, src, t, order):
    up = -t.delta
    border = prolongation_border(up, order)
    need, pad = _bordered_read(src, t.src_box, border)
    outer = _prolonged_slices(t.src_box, up, border)
    cover = t.src_box.refined(up).shift(tuple(-s for s in t.shift))
    crop = (slice(None),) + tuple(
        slice(o.start + s.start, o.start + s.stop)
        for o, s in zip(outer, t.dst_box.slices(cover.lo))
    )
    return _Prolong(
        block.view(t.dst_box), src.view(need), pad, up, crop, block, t.dst_box, src, need,
        _reads_reference(src, t, order),
    )


def compile_plan_reference(forest, *, regions=None, blocks=None, dest=None):
    """``compile_plan``'s contract (same arguments, same entries), by box
    algebra on every transfer of :func:`regions_reference` — the face
    regions at a level jump of 1, every region otherwise."""
    if regions is None:
        regions = regions_reference(forest, fill_corners=forest.max_level_jump > 1)
    blocks = forest.blocks if blocks is None else blocks
    copies, restricts, prolongs, inbound, compiled = [], [], [], {}, {}

    def prolong_entry(t):
        key = (t.dst_id, t.offset, t.src_id)
        if key not in compiled:
            p = _prolong_reference(blocks[t.dst_id], blocks[t.src_id], t, forest.prolong_order)
            deps = []
            for q in inbound.get(t.src_id, ()):
                overlap = q.dst_box.intersect(p.need)
                if not overlap.empty:
                    deps.append((
                        prolong_entry(q),
                        (slice(None),) + overlap.slices(p.need.lo),
                        (slice(None),) + overlap.slices(q.dst_box.lo),
                    ))
            compiled[key] = p._replace(deps=tuple(deps))
        return compiled[key]

    for bid, _offset, transfers in regions:
        mine = dest is None or bid in dest
        fine = []
        for t in transfers:
            if t.delta < 0:
                if mine:
                    prolongs.append(prolong_entry(t))
                inbound.setdefault(bid, []).append(t)
            elif mine and t.delta == 0:
                dst, src = blocks[bid], blocks[t.src_id]
                copies.append(_Copy(dst.view(t.dst_box), src.view(t.src_box), dst, t.dst_box, src))
            elif mine:
                fine.append(t)
        if fine:
            restricts.append(_restrict_reference(blocks[bid], fine, blocks, forest.ndim))
    mine = [blocks[bid] for bid in forest.sorted_ids() if dest is None or bid in dest]
    return GhostPlan(copies, restricts, prolongs, _bc_scan_faces(mine, forest.ndim))


def fill_ghosts_in_order(forest, bc=None):
    plan = compile_plan_reference(forest, regions=regions_reference(forest))
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


#: dt-relative tolerance deciding whether a block's step interval extends
#: beyond a fill time (its interior must then be interpolated)
SPAN_RTOL = 1e-9


def interval_spans(t, t0, t1):
    return t1 > t0 and t1 - t > SPAN_RTOL * (t1 - t0)


def stable_dt_reference(sim):
    """The per-block CFL loop, each block's step scaled by its level's
    substep divisor when subcycling."""
    forest, scheme = sim.forest, sim.scheme
    divisor = level_divisors(sorted(forest.level_histogram()))
    dt = 1e30
    for block in forest:
        own = scheme.stable_dt(block.interior, block.dx, forest.ndim)
        dt = min(dt, own * divisor[block.level] if sim.subcycle else own)
    return dt


class _SubcycleReference:
    """One subcycled coarse step with a step interval per block."""

    def __init__(self, sim, levels, register):
        self.sim, self.forest, self.scheme = sim, sim.forest, sim.scheme
        self.register, self.levels = register, levels
        self.u_old, self.t_old, self.t_new = {}, {}, {}
        self.substeps = {lvl: 0 for lvl in levels}
        self.save = self.forest.arena.save_pool()
        self.rate_pool = self.forest.arena.rate_pool()
        self.level_ids = {
            lvl: frozenset(bid for bid in self.forest.blocks if bid.level == lvl)
            for lvl in levels
        }
        blocks = [self.forest.blocks[bid] for bid in self.forest.sorted_ids()]
        self.blocks = blocks = sorted(blocks, key=lambda b: b.level)
        pool = self.forest.arena.ensure_compact(blocks)
        self.sweep = PoolSweep(
            self.scheme, pool, enumerate(blocks), self.forest.n_ghost,
            save=self.save, rate=self.rate_pool, tile=sim.sweep_tile(),
        )
        self.ranges = {}
        for i, b in enumerate(blocks):
            s, _ = self.ranges.get(b.level, (i, i))
            self.ranges[b.level] = (s, i + 1)
        self.fill_sources = {
            lvl: ghost_plan(self.forest, ids).sources for lvl, ids in self.level_ids.items()
        }

    def advance_level(self, idx, t0, dt):
        level = self.levels[idx]
        self.substeps[level] += 1
        self._step_level(level, t0, dt)
        if self.sim.sanitizer is not None:
            self.sim.sanitizer.after_stage(self.forest)
        if idx + 1 < len(self.levels):
            n_sub = 1 << (self.levels[idx + 1] - level)
            sub_dt = dt / n_sub
            for k in range(n_sub):
                self.advance_level(idx + 1, t0 + k * sub_dt, sub_dt)

    def interp_fill(self, t, level):
        swapped = []
        for block in self.fill_sources[level]:
            u0 = self.u_old.get(block.id)
            if u0 is None:
                continue
            t0, t1 = self.t_old[block.id], self.t_new[block.id]
            if not interval_spans(t, t0, t1):
                continue
            theta = (t - t0) / (t1 - t0)
            current = self.rate_pool[block.arena_row]
            current[...] = block.interior
            block.interior[...] = (1.0 - theta) * u0 + theta * current
            swapped.append((block, current))
        self.sim.fill_ghosts(self.level_ids[level])
        for block, current in swapped:
            block.interior[...] = current

    def _step_level(self, level, t0, dt):
        rows = s, e = self.ranges[level]
        mine = self.blocks[s:e]
        self.sweep.snapshot(rows)
        for i, block in enumerate(mine):
            self.u_old[block.id] = self.save[s + i]
            self.t_old[block.id] = t0
            self.t_new[block.id] = t0 + dt
        self.interp_fill(t0, level)
        if self.scheme.n_stages == 1:
            self.sweep.forward(dt, rows, register=self.register, accumulate=True)
        else:
            self.sweep.forward(0.5 * dt, rows)
            # the mid-stage fill runs at t0 + dt/2: the shrunk interval
            # keeps this level's own half-time interiors out of it
            for block in mine:
                self.t_new[block.id] = t0 + 0.5 * dt
            self.interp_fill(t0 + 0.5 * dt, level)
            for block in mine:
                self.t_new[block.id] = t0 + dt
            self.sweep.correct(dt, rows, register=self.register, accumulate=True)


def advance_reference(sim, dt):
    forest, scheme = sim.forest, sim.scheme
    register = sim._flux_register() if sim.reflux else None
    if register is not None:
        register.start_step()
    if sim.subcycle:
        levels = sorted(forest.level_histogram())
        sweep = _SubcycleReference(sim, levels, register)
        sweep.advance_level(0, sim.time, dt)
        sim._last_substeps = dict(sweep.substeps)
        return sim._finish_advance(dt, register, 1.0)
    blocks = [forest.blocks[bid] for bid in forest.sorted_ids()]
    pool = forest.arena.ensure_compact(blocks)
    sim.fill_ghosts()
    sweep = PoolSweep(
        scheme, pool, enumerate(blocks), forest.n_ghost,
        save=forest.arena.save_pool(), rate=forest.arena.rate_pool(),
        tile=sim.sweep_tile(),
    )
    if scheme.n_stages == 1:
        sweep.forward(dt, register=register)
    else:
        sweep.snapshot()
        sweep.forward(0.5 * dt)
        sim.fill_ghosts()
        sweep.correct(dt, register=register)
    sim._finish_advance(dt, register, dt)


def use_reference_step(monkeypatch):
    monkeypatch.setattr(repro.amr.driver.Simulation, "advance", advance_reference)
    monkeypatch.setattr(repro.amr.driver.Simulation, "stable_dt", stable_dt_reference)
