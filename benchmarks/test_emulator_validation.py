"""Validation: the emulated distributed run vs the serial driver.

The strongest check the Figures 6–7 cost model can get: execute the
parallel algorithm *for real* (per-rank private block pools, ranks
reading each other only through their compiled exchange entries, one
phase per barrier, every remote transfer charged as a wire message) and
confirm

* the result matches the serial driver bit-for-bit,
* the wire traffic matches the cost model's face schedule: on this
  level-jump-1 forest the exchange reads no edge or corner region.  The
  Figures 6–7 model charges the full schedule, edges and corners
  included (``build_schedule``'s default), an upper bound on it.

Reported per rank count: messages, KB per exchange, max solution
difference vs serial (must be exactly 0).
"""

import numpy as np
import pytest

from repro.amr import Simulation
from repro.core import BlockForest, BlockID
from repro.parallel import EmulatedMachine, build_schedule, sfc_partition
from repro.solvers import EulerScheme
from repro.util.geometry import Box

from _tables import emit_table


def make_forest():
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=4,
        n_ghost=2, periodic=(True, True), max_level=3,
    )
    f.adapt([BlockID(0, (0, 0)), BlockID(0, (1, 1))])
    f.adapt([BlockID(1, (1, 1))])
    return f


def init(forest, scheme):
    for b in forest:
        X, Y = b.meshgrid()
        w = np.stack(
            [
                1.0 + 0.3 * np.exp(-50 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)),
                0.4 * np.ones_like(X),
                -0.2 * np.ones_like(X),
                np.ones_like(X),
            ]
        )
        b.interior[...] = scheme.prim_to_cons(w)


def test_emulated_vs_serial(benchmark):
    scheme = EulerScheme(2, order=2, limiter="mc")
    dt, steps = 5e-4, 4

    forest_ref = make_forest()
    init(forest_ref, scheme)
    sim = Simulation(forest_ref, scheme)
    for _ in range(steps):
        sim.advance(dt)
    reference = {bid: b.interior for bid, b in forest_ref.blocks.items()}

    rows = []
    for p in (1, 2, 4, 8):
        forest = make_forest()
        init(forest, scheme)
        assignment = sfc_partition(forest, p)
        emu = EmulatedMachine(forest, p, scheme, assignment=assignment)
        for _ in range(steps):
            emu.advance(dt)
        gathered = emu.gather()
        worst = max(
            float(np.abs(gathered[bid] - reference[bid]).max())
            for bid in reference
        )
        sched = build_schedule(
            forest, assignment, nvar=4, aggregate=False, fill_corners=False
        )
        per_exchange = emu.stats.n_messages // (2 * steps) if p > 1 else 0
        rows.append(
            (
                p,
                per_exchange,
                sched.n_messages,
                f"{emu.stats.n_bytes / 1024 / (2 * steps):.0f}" if p > 1 else "0",
                f"{worst:.1e}",
            )
        )
        assert worst == 0.0, f"emulated run diverged on {p} ranks"
        if p > 1:
            assert per_exchange == sched.n_messages
    emit_table(
        "emulator_validation",
        "Distributed-emulation validation: per-exchange wire traffic and "
        "solution difference vs the serial driver (4 steps, 2-D Euler, "
        "3-level AMR forest)",
        ("ranks", "msgs/exchange (emulated)", "msgs (face schedule)",
         "KB/exchange", "max |diff| vs serial"),
        rows,
        notes="bit-exact equality proves the transfer geometry carries "
        "all data the algorithm needs; message counts equal the cost "
        "model's face schedule",
    )
    forest = make_forest()
    init(forest, scheme)
    emu = EmulatedMachine(forest, 4, scheme)
    benchmark(lambda: emu.exchange())
