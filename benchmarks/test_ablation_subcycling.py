"""Ablation Abl-4: time-step subcycling vs global time stepping.

The paper's code used a single global dt ("the frequency of checking
criteria, etc." are its listed variations; local time stepping arrived
with the descendants).  This ablation quantifies what subcycling buys on
an adapted forest: each level advances at its own CFL limit, so coarse
blocks stop paying for the finest level's dt.

Reported for 2- and 3-level pulse forests: block updates per unit
physical time, end error vs the exact solution, and the update ratio.
"""

import numpy as np
import pytest

from repro.amr import Simulation, advecting_pulse
from repro.core import BlockID

from _tables import emit_table

T_END = 0.06


def build(subcycle, deep):
    p = advecting_pulse(2)
    forest = p.config.make_forest(p.scheme.nvar)
    p.init_forest(forest)
    forest.adapt([BlockID(0, (0, 0)), BlockID(0, (1, 1))])
    if deep:
        forest.adapt([BlockID(1, (1, 1)), BlockID(1, (0, 0))])
    p.init_forest(forest)
    return p, Simulation(forest, p.scheme, subcycle=subcycle)


def run_case(deep):
    p, sim_g = build(False, deep)
    sim_g.run(t_end=T_END)
    err_g = sim_g.error_vs(p.exact(T_END))
    updates_g = sim_g.step_count * sim_g.forest.n_blocks

    p, sim_s = build(True, deep)
    coarse_steps = 0
    while sim_s.time < T_END - 1e-12:
        dt = min(sim_s.stable_dt(), T_END - sim_s.time)
        sim_s.advance(dt)
        coarse_steps += 1
    err_s = sim_s.error_vs(p.exact(T_END))
    updates_s = coarse_steps * sim_s.updates_per_step()
    return err_g, updates_g, err_s, updates_s, sim_s.forest.level_histogram()


def test_subcycling_vs_global(benchmark):
    rows = []
    ratios = {}
    for deep in (False, True):
        err_g, up_g, err_s, up_s, hist = run_case(deep)
        label = "3-level" if deep else "2-level"
        ratios[deep] = up_s / up_g
        rows.append(
            (
                label,
                str(hist),
                up_g,
                up_s,
                f"{up_s / up_g:.2f}",
                f"{err_g:.2e}",
                f"{err_s:.2e}",
            )
        )
    emit_table(
        "ablation_subcycling",
        f"Abl-4: subcycled vs global time stepping (advecting pulse to "
        f"t={T_END})",
        ("forest", "levels", "updates global", "updates subcycled",
         "ratio", "err global", "err subcycled"),
        rows,
        notes="subcycling is the local-time-stepping extension the "
        "paper's descendants adopted; savings grow with level depth",
    )
    # Work savings grow with the number of levels (and with the coarse
    # block fraction — the shallow case here is mostly fine blocks, so
    # its saving is modest); accuracy comparable.
    assert ratios[False] < 1.0
    assert ratios[True] < ratios[False]
    err_g, _, err_s, _, _ = run_case(True)
    assert err_s < 3.0 * err_g + 1e-4
    benchmark(lambda: run_case(False))
