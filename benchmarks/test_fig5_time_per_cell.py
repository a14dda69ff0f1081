"""Figure 5: time per cell as a function of block size.

The paper plots the per-cell time of the 3-D MHD update against the
number of cells per block on the Cray T3D, observing

* a dramatic initial improvement (> 3x from the 2x2x2 block to the
  plateau) as per-block loop overhead amortizes — the motivating effect
  behind adaptive blocks;
* a flat plateau beyond ~10^3 cells per block;
* local cache maxima (12^3, removable by padding; 32^3, reducible by
  sub-blocking to 14^3).

Two reproductions:

``test_fig5_measured``
    Real wall-clock time of the actual vectorized MHD kernel on single
    blocks of increasing size.  In Python the per-block numpy dispatch
    overhead plays the role the Fortran loop overhead played on the T3D
    — the same fixed-cost-over-m^3-cells mechanism — so the measured
    curve shape (drop then plateau) is genuine, not modelled.  A second
    column times the same kernel over a *stack* of blocks holding 24^3
    cells in all, a tile of rows per call — how every driver calls it:
    what is left of the drop there is not per-block dispatch.

``test_fig5_cache_model``
    The direct-mapped-cache cost model of the T3D node, reproducing the
    12^3 aliasing peak, its padding fix, and the sub-blocking gain.
"""

import numpy as np
import pytest

from repro.machine import T3DCostParams, fig5_model_curve, stencil_misses, time_per_cell
from repro.solvers import MHDScheme
from repro.solvers.sweep import tile_rows
from repro.util.timing import measure

from _tables import emit_table

MEASURED_SIZES = [2, 4, 6, 8, 10, 12, 16, 20, 24]
MODEL_SIZES = [2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32]


def _mhd_block(m: int, seed: int = 0):
    """A single padded 3-D MHD block with smooth random-ish data."""
    g = 2
    rng = np.random.default_rng(seed)
    scheme = MHDScheme(3, order=2)
    w = np.empty((8, m + 2 * g, m + 2 * g, m + 2 * g))
    w[0] = 1.0 + 0.1 * rng.random(w.shape[1:])
    w[1:4] = 0.1 * rng.standard_normal((3,) + w.shape[1:])
    w[4] = 1.0 + 0.1 * rng.random(w.shape[1:])
    w[5:8] = 0.2 * rng.standard_normal((3,) + w.shape[1:])
    u = scheme.prim_to_cons(w)
    return scheme, u, (1.0 / m,) * 3, g


def _measure_time_per_cell(m: int, repeats: int = 3) -> float:
    scheme, u, dx, g = _mhd_block(m)
    dt = 1e-4

    def one_step():
        scheme.step(u, dx, dt, g)

    res = measure(one_step, repeats=repeats, warmup=1)
    return res.best / m**3


def _measure_batched_time_per_cell(m: int, repeats: int = 3):
    """The same stage over a stack of blocks at fixed total cells (24^3
    worth), ``tile_rows`` rows per call; returns (time per cell, blocks)."""
    scheme, u, dx, g = _mhd_block(m)
    n = max(1, MEASURED_SIZES[-1] ** 3 // m**3)
    stack = np.repeat(u[np.newaxis], n, axis=0)
    widths = [np.full((n, 1, 1, 1), w) for w in dx]
    tile = tile_rows(stack[:1].nbytes)
    rate = np.empty((min(tile, n), 8, m, m, m))

    def one_sweep():
        for s in range(0, n, tile):
            e = min(s + tile, n)
            scheme.step(
                stack[s:e], [d[s:e] for d in widths], 1e-4, g, ndim=3,
                rate_out=rate[: e - s],
            )

    res = measure(one_sweep, repeats=repeats, warmup=1)
    return res.best / (n * m**3), n


def test_fig5_measured(benchmark):
    """Measured: per-cell wall time of the vectorized 3-D MHD stage."""
    rows = []
    times = {}
    stacked = {}
    for m in MEASURED_SIZES:
        t = _measure_time_per_cell(m)
        times[m] = t
        stacked[m], n = _measure_batched_time_per_cell(m)
        rows.append(
            (f"{m}^3", m**3, f"{t * 1e6:.2f}", n, f"{stacked[m] * 1e6:.2f}")
        )
    emit_table(
        "fig5_measured",
        "Figure 5 (measured): time per cell vs cells per block — "
        "vectorized 3-D MHD stage (one forward-Euler stage), one block "
        "per call and a tile of stacked blocks per call (24^3 cells in all)",
        ("block", "cells", "us/cell", "blocks", "stacked us/cell"),
        rows,
        notes=(
            f"ratio 2^3 / 16^3 = {times[2] / times[16]:.1f}x "
            "(paper: >3x improvement over the 2x2x2 case); "
            f"stacked: {stacked[2] / stacked[16]:.1f}x"
        ),
    )
    # Stacking recovers the per-block dispatch, not the ghost-cell work.
    assert stacked[2] < 0.5 * times[2]
    # Shape assertions: dramatic drop, then plateau.
    assert times[2] / times[16] > 3.0
    assert abs(times[20] - times[16]) < 0.5 * times[16]
    # Benchmark fixture: time the plateau-size (16^3, the paper's
    # production choice) kernel.
    scheme, u, dx, g = _mhd_block(16)
    benchmark(lambda: scheme.step(u, dx, 1e-4, g))


def test_fig5_cache_model(benchmark):
    """Modelled: T3D direct-mapped-cache curve with the 12^3 peak."""
    params = T3DCostParams()
    curve = fig5_model_curve(MODEL_SIZES, params)
    miss_rates = {
        m: stencil_misses(m)[0] / stencil_misses(m)[1] for m in MODEL_SIZES
    }
    rows = [
        (f"{m}^3", f"{curve[m] * 1e6:.2f}", f"{100 * miss_rates[m]:.0f}%")
        for m in MODEL_SIZES
    ]
    t12_padded = time_per_cell(12, params, pad=1)
    t32_sub = time_per_cell(32, params, subblock=14)
    emit_table(
        "fig5_model",
        "Figure 5 (cache model): T3D 8KB direct-mapped cache, 3-D MHD "
        "stencil stream",
        ("block", "us/cell", "miss rate"),
        rows,
        notes=(
            f"12^3 with 1-cell padding: {t12_padded * 1e6:.2f} us/cell "
            f"(unpadded {curve[12] * 1e6:.2f}) — padding removes the peak\n"
            f"32^3 with 14^3 sub-blocking: {t32_sub * 1e6:.2f} us/cell "
            f"(plain {curve[32] * 1e6:.2f}) — sub-blocking reduces misses"
        ),
    )
    # The paper's observations, as assertions:
    assert curve[2] > 2.0 * curve[16]              # big initial drop
    assert curve[12] > 1.4 * curve[10]             # the 12^3 peak exists
    assert t12_padded < 0.7 * curve[12]            # padding removes it
    m32, _ = stencil_misses(32)
    m32s, _ = stencil_misses(32, subblock=14)
    assert m32s < m32                              # sub-blocking helps 32^3
    benchmark(lambda: time_per_cell(8, params))
