"""The per-block stage update — the one surviving copy, as a test oracle.

:class:`BlockOracle` has :class:`repro.solvers.sweep.PoolSweep`'s
interface but calls ``scheme.step`` / ``scheme.flux_divergence`` one
block at a time with no batch axis (the call Fig. 5 and T-A time).
``use_oracle(monkeypatch)`` substitutes it; production must match bitwise.
"""

import repro.amr.driver
import repro.amr.subcycle
import repro.parallel.procworker


class BlockOracle:
    def __init__(self, scheme, pool, placed, n_ghost, *, save, rate, tile):
        self.scheme, self.g, self.save = scheme, n_ghost, save
        self.placed = sorted(placed, key=lambda rb: rb[0])

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
