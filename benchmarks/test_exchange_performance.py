"""Ghost-exchange performance: amortization and plan caching.

Serial-side companion to the T-C communication table: the per-cell cost
of the ghost exchange falls with block size (fixed per-transfer overhead
amortized over larger slabs — the same mechanism the paper claims for
parallel messages), and the compiled-plan cache removes the owner-search
cost from steady-state stepping.
"""

import time

import numpy as np
import pytest

from repro.core import BlockForest, BlockID, fill_ghosts
from repro.core.ghost import compile_plan
from repro.util.geometry import Box
from repro.util.timing import measure

from _tables import emit_table

CELLS = 64  # 64 x 64 cell domain, decomposed different ways


def forest_of(m):
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)),
        (CELLS // m, CELLS // m),
        (m, m),
        nvar=4,
        n_ghost=2,
        periodic=(True, True),
    )
    rng = np.random.default_rng(0)
    for b in f:
        b.interior[...] = rng.random(b.interior.shape)
    return f


def test_exchange_amortization(benchmark):
    rows = []
    per_cell = {}
    for m in (4, 8, 16, 32):
        f = forest_of(m)
        fill_ghosts(f)  # build the plan outside the timing
        t = measure(lambda: fill_ghosts(f), repeats=5).best
        per_cell[m] = t / f.n_cells * 1e6
        rows.append(
            (f"{m}x{m}", f.n_blocks, f"{t * 1e3:.2f}", f"{per_cell[m]:.3f}")
        )
    emit_table(
        "exchange_performance",
        f"Ghost-exchange cost vs block size ({CELLS}x{CELLS} cells, "
        "4 variables, periodic)",
        ("block", "blocks", "ms/exchange", "us/cell"),
        rows,
        notes="fixed per-transfer overhead amortizes over larger slabs — "
        "the serial face of the paper's communication-amortization claim",
    )
    assert per_cell[16] < 0.5 * per_cell[4]
    f = forest_of(16)
    fill_ghosts(f)
    benchmark(lambda: fill_ghosts(f))


def test_plan_cache_effectiveness(benchmark):
    # A fresh forest computes every block-pair template on its first
    # compile; a recompile after a topology change only searches owners
    # and binds the templates it already has.
    firsts = []
    for _ in range(3):
        fresh = forest_of(8)
        t0 = time.perf_counter()
        compile_plan(fresh)
        firsts.append(time.perf_counter() - t0)
    f = forest_of(8)
    compile_plan(f)
    bid = BlockID(0, (3, 3))
    recompiles = []
    for _ in range(3):
        f.adapt([bid])
        f.adapt([], bid.children())  # back to 64 blocks, a new revision
        t0 = time.perf_counter()
        compile_plan(f)
        recompiles.append(time.perf_counter() - t0)
    t_first, t_build = min(firsts), min(recompiles)
    fill_ghosts(f)  # warm the cache
    t_fill = measure(lambda: fill_ghosts(f), repeats=5).best
    emit_table(
        "exchange_plan_cache",
        "Exchange-plan compilation vs cached execution (8x8 blocks, "
        "64 blocks, best of 3)",
        ("operation", "ms"),
        [
            ("first compile on a fresh forest", f"{t_first * 1e3:.2f}"),
            ("recompile after a topology change", f"{t_build * 1e3:.2f}"),
            ("cached fill (per step)", f"{t_fill * 1e3:.2f}"),
            ("ratio (recompile / fill)", f"{t_build / t_fill:.1f}x"),
        ],
        notes="mirrors the paper's design: neighbor information is "
        "rebuilt only when the mesh adapts, not every step; on this "
        "uniform forest a first compile computes only 8 block-pair "
        "templates more than a recompile does",
    )
    # Building costs several cached fills — caching on the topology
    # revision is what makes frequent exchanges cheap.
    assert t_build > 1.5 * t_fill
    benchmark(lambda: compile_plan(f))
