"""Tests for the distributed-memory emulation (repro.parallel.emulator).

The headline oracle: an emulated multi-rank run — where ranks read each
other only through their compiled exchange entries, one phase per
barrier — reproduces the serial driver bit-for-bit.  This validates
that the transfer geometry (and therefore the cost model's message
schedules) carries everything the algorithm needs.
"""

import numpy as np
import pytest

from repro.amr import Simulation, advecting_pulse
from repro.amr.boundary import OutflowBC
from repro.core import BlockForest, BlockID
from repro.parallel import build_schedule, sfc_partition
from repro.parallel.emulator import EmulatedMachine
from repro.solvers import AdvectionScheme, EulerScheme
from repro.util.geometry import Box


def make_amr_forest(nvar, periodic=(True, True)):
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=nvar,
        n_ghost=2, periodic=periodic, max_level=3,
    )
    f.adapt([BlockID(0, (0, 0)), BlockID(0, (1, 1))])
    f.adapt([BlockID(1, (1, 1))])
    return f


def init_pulse(forest, scheme):
    for b in forest:
        X, Y = b.meshgrid()
        if scheme.nvar == 1:
            b.interior[0] = np.exp(-50 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
        else:
            w = np.stack(
                [
                    1.0 + 0.3 * np.exp(-50 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)),
                    0.4 * np.ones_like(X),
                    -0.2 * np.ones_like(X),
                    np.ones_like(X),
                ]
            )
            b.interior[...] = scheme.prim_to_cons(w)


@pytest.mark.parametrize("n_ranks", [1, 3, 7])
def test_emulated_matches_serial_bitwise_advection(n_ranks):
    scheme = AdvectionScheme((1.0, 0.5), order=2)
    # Serial reference.
    forest_ref = make_amr_forest(1)
    init_pulse(forest_ref, scheme)
    sim = Simulation(forest_ref, scheme)
    # Emulated machine from an identical forest.
    forest_emu = make_amr_forest(1)
    init_pulse(forest_emu, scheme)
    emu = EmulatedMachine(forest_emu, n_ranks, scheme)

    dt = 1e-3
    for _ in range(5):
        sim.advance(dt)
        emu.advance(dt)
    gathered = emu.gather()
    assert set(gathered) == set(forest_ref.blocks)
    for bid, block in forest_ref.blocks.items():
        np.testing.assert_array_equal(gathered[bid], block.interior)


def test_emulated_matches_serial_euler_with_bc():
    scheme = EulerScheme(2, order=2, limiter="mc")
    forest_ref = make_amr_forest(4, periodic=(False, False))
    init_pulse(forest_ref, scheme)
    sim = Simulation(forest_ref, scheme, bc=OutflowBC())
    forest_emu = make_amr_forest(4, periodic=(False, False))
    init_pulse(forest_emu, scheme)
    emu = EmulatedMachine(forest_emu, 4, scheme, bc=OutflowBC())
    dt = 5e-4
    for _ in range(4):
        sim.advance(dt)
        emu.advance(dt)
    gathered = emu.gather()
    for bid, block in forest_ref.blocks.items():
        np.testing.assert_array_equal(gathered[bid], block.interior)


class TestIsolation:
    def test_template_forest_not_modified(self):
        scheme = AdvectionScheme((1.0, 0.0))
        forest = make_amr_forest(1)
        init_pulse(forest, scheme)
        snap = {bid: b.data.copy() for bid, b in forest.blocks.items()}
        emu = EmulatedMachine(forest, 3, scheme)
        emu.advance(1e-3)
        for bid, b in forest.blocks.items():
            np.testing.assert_array_equal(b.data, snap[bid])

    def test_every_block_owned_exactly_once(self):
        scheme = AdvectionScheme((1.0, 0.0))
        forest = make_amr_forest(1)
        emu = EmulatedMachine(forest, 5, scheme)
        seen = []
        for rank in range(5):
            seen.extend(emu.rank_blocks[rank])
        assert sorted(seen) == sorted(forest.blocks)

    def test_rank_cells_sum_to_total(self):
        scheme = AdvectionScheme((1.0, 0.0))
        forest = make_amr_forest(1)
        emu = EmulatedMachine(forest, 4, scheme)
        assert sum(emu.rank_cells()) == forest.n_cells

    def test_bad_assignment_is_rejected_before_any_change(self):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest(1)
        init_pulse(forest, scheme)
        good = sfc_partition(forest, 3)
        first = next(iter(good))
        bad = [
            {**good, first: -1},  # negative rank
            {**good, first: 3},  # rank out of range
            {b: r for b, r in good.items() if b != first},  # missing block
            {**good, BlockID(0, (0, 0)): 0},  # extra block (not a leaf)
        ]
        for assignment in bad:
            with pytest.raises(ValueError, match="bad assignment"):
                EmulatedMachine(forest, 3, scheme, assignment=assignment)
        emu = EmulatedMachine(forest, 3, scheme)
        for assignment in bad:
            with pytest.raises(ValueError, match="bad assignment"):
                emu.restore(forest, time=0.0, step_index=0, assignment=assignment)
        assert emu.assignment == good
        sim = Simulation(forest, scheme)
        for _ in range(2):
            sim.advance(1e-3)
            emu.advance(1e-3)
        for bid, interior in emu.gather().items():
            np.testing.assert_array_equal(interior, forest.blocks[bid].interior)


class TestAccounting:
    def test_single_rank_sends_nothing(self):
        scheme = AdvectionScheme((1.0, 0.0))
        forest = make_amr_forest(1)
        init_pulse(forest, scheme)
        emu = EmulatedMachine(forest, 1, scheme)
        emu.exchange()
        assert emu.stats.n_messages == 0
        assert emu.stats.n_local > 0

    def test_message_count_matches_schedule(self):
        """Emulated per-transfer wire messages equal the cost model's
        per-transfer face schedule count on this level-jump-1 forest,
        whose exchange fills no edge or corner region — the
        cross-validation that the model's face schedule charges for the
        real traffic.

        The model's default schedule (``ParallelCostConfig.fill_corners``,
        ``build_schedule``'s default), which Figures 6-7 charge, still
        counts every edge and corner message; nothing checks it against
        the traffic the machines send."""
        scheme = AdvectionScheme((1.0, 0.0))
        forest = make_amr_forest(1)
        init_pulse(forest, scheme)
        assignment = sfc_partition(forest, 4)
        emu = EmulatedMachine(forest, 4, scheme, assignment=assignment)
        emu.exchange()
        sched = build_schedule(forest, assignment, nvar=1, aggregate=False, fill_corners=False)
        assert emu.stats.n_messages == sched.n_messages

    def test_bytes_scale_with_rank_count(self):
        scheme = AdvectionScheme((1.0, 0.0))
        stats = {}
        for p in (2, 8):
            forest = make_amr_forest(1)
            init_pulse(forest, scheme)
            emu = EmulatedMachine(forest, p, scheme)
            emu.exchange()
            stats[p] = emu.stats.n_bytes
        assert stats[8] > stats[2]  # more ranks -> more remote faces
