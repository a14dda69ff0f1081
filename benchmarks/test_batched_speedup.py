"""Tiled-vs-one-row sweep speedup on the Fig-5-style workload.

One pool row per kernel call (``engine="blocked"``) pays numpy dispatch
per block — the Python analogue of the per-block loop overhead the
paper's Figure 5 shows for small blocks.  A tile of rows per call
(``"batched"``, the default) amortizes that cost, so its advantage is
largest exactly where Figure 5's per-cell time blows up: small blocks.
This benchmark measures the speedup curve across block sizes (uniform
periodic MHD, time per cell) and enforces the two invariants CI's
perf-smoke job relies on:

* the tiled sweep is never slower than one row per call, and
* both are bit-for-bit identical.

The full results land in ``BENCH_batched_engine.json`` at the repo root
(machine-readable: timestamp, git rev, cells/s, phase timings).
"""

import os

from repro.analysis.engine_bench import (
    DEFAULT_CASES,
    QUICK_CASES,
    check_equivalence,
    run_cases,
)

from _tables import emit_bench_json, emit_table


def test_batched_speedup():
    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    cases = QUICK_CASES if quick else DEFAULT_CASES
    results = run_cases(cases)
    equivalence_ok = check_equivalence(cases[-1], steps=3)

    emit_table(
        "batched_speedup",
        "Tiled sweep (batched) over one pool row per kernel call (blocked) "
        "(uniform MHD, time per cell)",
        ["case", "blocked us/cell", "batched us/cell", "speedup"],
        [
            (
                r["label"],
                f"{r['blocked']['us_per_cell']:.3f}",
                f"{r['batched']['us_per_cell']:.3f}",
                f"{r['speedup']:.2f}x",
            )
            for r in results
        ],
        notes=(
            "speedup grows as blocks shrink (dispatch amortization, the\n"
            "Fig-5 small-block effect); equivalence "
            + ("verified bit-for-bit" if equivalence_ok else "VIOLATED")
        ),
    )
    emit_bench_json(
        "batched_engine",
        workload="uniform periodic MHD, Fig-5-style time per cell",
        quick=quick,
        cases=results,
        equivalence_ok=equivalence_ok,
    )

    assert equivalence_ok, "engines diverged bit-for-bit"
    for r in results:
        assert r["speedup"] >= 1.0, f"batched slower on {r['label']}: {r['speedup']:.2f}x"
    # The dispatch-bound regime (4^2 blocks) must show the paper-scale
    # (>3x) amortization win; measured ~12x on the reference host.
    small = [r for r in results if r["ndim"] == 2 and r["m"] == 4]
    assert small and small[0]["speedup"] >= 3.0, (
        f"small-block amortization regressed: {small[0]['speedup']:.2f}x"
    )
