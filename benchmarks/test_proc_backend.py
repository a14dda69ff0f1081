"""Process-backend throughput: real ranks, shared-memory exchange.

Fig-6-style measurement through :class:`repro.parallel.ProcessMachine`
on the forest of the repo benchmark's ``proc_pulse2d_r2`` workload
(10×10 roots of 32² cells, 4 refined: 112 blocks, 114 688 cells — big
enough that a step is work, not pipe latency), against the serial
driver on the same input — the same tiled ``PoolSweep`` the ranks run,
on one process.  Every row is min-of-N
(:func:`repro.util.timing.measure`: system noise only ever adds time)
with the mean alongside.

The table in ``benchmarks/results/proc_backend.txt`` gives µs/cell, the
speed-up over the serial driver, the exchange share of the supervisor's
phase clocks and, from the ranks' own clocks, the share of wall they
spent waiting.

CI runs on two cores, so four ranks oversubscribe the machine and the
thresholds are loose — the hard assertions are *correctness under
measurement* (bit-for-bit with the serial driver, exact wire counts),
that two ranks beat the serial driver, and that the exchange is no
longer most of the wall.
"""

import os

import numpy as np

from repro.amr import Simulation
from repro.core import BlockForest, BlockID
from repro.parallel import ProcConfig, ProcessMachine
from repro.solvers import AdvectionScheme
from repro.util.geometry import Box
from repro.util.timing import measure

from _tables import emit_table

WORKLOAD = "advecting pulse 2-D, 112 blocks of 32x32, 2nd order, fixed dt"
STEPS = 10
REPEATS = 5
DT = 1e-4


def make_forest():
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (10, 10), (32, 32), nvar=1,
        n_ghost=2, periodic=(True, True), max_level=2,
    )
    f.adapt([BlockID(0, c) for c in ((2, 3), (7, 6), (4, 8), (8, 1))])
    for b in f:
        X, Y = b.meshgrid()
        b.interior[0] = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.02)
    return f


def timed(label, engine, ranks, n_cells, advance):
    """One row: ``STEPS`` steps, best of ``REPEATS`` after a warm-up
    batch — (REPEATS + 1) * STEPS steps on every row, so final states
    are comparable."""
    t = measure(lambda: [advance(DT) for _ in range(STEPS)], repeats=REPEATS)
    return {
        "label": label,
        "engine": engine,
        "workload": WORKLOAD,
        "ndim": 2,
        "ranks": ranks,
        "steps": STEPS,
        "repeats": REPEATS,
        "n_cells": n_cells,
        "wall_best_s": t.best,
        "wall_mean_s": t.mean,
        "spread": (max(t.times) - t.best) / t.best,
        "us_per_cell": t.best / (STEPS * n_cells) * 1e6,
    }


def run_serial_case():
    sim = Simulation(make_forest(), AdvectionScheme((1.0, 0.5), order=2))
    row = timed("serial-batched", sim.engine, 1, sim.forest.n_cells, sim.advance)
    return row, sim.forest


def run_process_case(n_ranks, reference):
    scheme = AdvectionScheme((1.0, 0.5), order=2)
    config = ProcConfig(phase_timeout=5.0, hard_timeout=120.0)
    with ProcessMachine(make_forest(), n_ranks, scheme, config=config) as machine:
        row = timed(
            f"process-{n_ranks}r", "process", n_ranks,
            machine.topology.n_cells, machine.advance,
        )
        phase = dict(machine.phase_seconds)
        breakdown = machine.phase_breakdown()
        stats = machine.stats
        gathered = machine.gather()
        steps = machine.step_index
    phase_total = sum(phase.values())
    row.update(
        exchange_seconds=phase["exchange"],
        compute_seconds=phase["compute"],
        control_seconds=phase["control"],
        exchange_fraction=phase["exchange"] / phase_total,
        wait_fraction=sum(b["wait_s"] for b in breakdown.values()) / phase_total,
        rank_work_seconds=[
            sum(b["work_s"][r] for b in breakdown.values()) for r in range(n_ranks)
        ],
        messages_per_step=stats.n_messages / steps,
        bytes_per_step=stats.n_bytes / steps,
        bitwise_vs_serial=all(
            np.array_equal(gathered[bid], block.interior)
            for bid, block in reference.blocks.items()
        ),
    )
    return row


def test_proc_backend_bench():
    serial, reference = run_serial_case()
    results = [serial] + [run_process_case(n, reference) for n in (2, 4)]
    for r in results:
        r["speedup_vs_serial"] = serial["wall_best_s"] / r["wall_best_s"]

    emit_table(
        "proc_backend",
        "Process-backend throughput (real ranks, shared-memory ghost "
        f"exchange; best of {REPEATS} x {STEPS} steps, {os.cpu_count()} cores)",
        ("case", "cells", "ms/step", "us/cell", "vs serial", "exch frac",
         "wait frac", "msgs/step", "bitwise"),
        [
            (
                r["label"],
                r["n_cells"],
                f"{r['wall_best_s'] / STEPS * 1e3:.1f}",
                f"{r['us_per_cell']:.3f}",
                f"{r['speedup_vs_serial']:.2f}x",
                f"{r['exchange_fraction']:.1%}" if "exchange_fraction" in r else "-",
                f"{r['wait_fraction']:.1%}" if "wait_fraction" in r else "-",
                f"{r['messages_per_step']:.0f}" if "messages_per_step" in r else "-",
                {True: "yes", False: "NO", None: "-"}[r.get("bitwise_vs_serial")],
            )
            for r in results
        ],
        notes="ms/step and us/cell include the supervisor control plane;\n"
              "4 ranks oversubscribe a 2-core host",
    )

    for r in results[1:]:
        assert r["bitwise_vs_serial"], f"{r['label']} diverged from serial"
        assert 0.0 < r["exchange_fraction"] < 1.0
        assert 0.0 <= r["wait_fraction"] < 1.0
    two = results[1]
    assert (two["messages_per_step"], two["bytes_per_step"]) == (432, 94_656)
    # loose: CI's two cores are shared with the supervisor and the runner
    assert two["exchange_fraction"] < 0.5, two
    assert two["speedup_vs_serial"] > 1.0, two
