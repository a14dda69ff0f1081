"""Test oracles: the one surviving copy of each replaced executor.

:class:`BlockOracle` has :class:`repro.solvers.sweep.PoolSweep`'s
interface but calls ``scheme.step`` / ``scheme.flux_divergence`` one
block at a time with no batch axis (the call Fig. 5 and T-A time).
``use_oracle(monkeypatch)`` substitutes it; production must match bitwise.

:func:`fill_ghosts_in_order` is the ghost exchange with its prolongations
run one after another in plan order, each reading what the earlier ones
wrote — no gather, no replayed dependencies, no batching.  Production
``fill_ghosts`` must match it bitwise.
"""

import numpy as np

import repro.amr.driver
import repro.amr.subcycle
import repro.parallel.procworker
from repro.core.ghost import ghost_plan, run_boundaries, run_copies, run_restrictions
from repro.core.prolong import prolong_inject, prolong_linear


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

    def forward(self, dt, rows=None):
        for _, block in self._each(rows):
            self.scheme.step(block.data, block.dx, dt, self.g)

    def correct(self, dt, rows=None):
        for row, block in self._each(rows):
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
