"""Metric names and units, and the per-layer metrics of a traced run.

Layer = module of ``src/repro``.  Every later performance claim names
one of the metrics here "on workload Y"; README.md says which
end-to-end metric each layer metric should move, on which workload.
A metric of a layer the workload never enters reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.solvers.flops import flops_for_scheme

from spans import Span, call_counts, durations, self_times

__all__ = ["END_TO_END", "PER_LAYER", "layer_metrics", "drift_problems", "ratio"]

#: name -> (unit, better, bound); the same four on every workload
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower", 0.10),
    "wall_s": ("s", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.03),
    "l1_error": ("1", "lower", 0.01),
}

#: name -> (unit, better)
PER_LAYER: Dict[str, tuple] = {
    # solvers / kernels
    "solvers.update_s": ("s", "lower"),
    "solvers.update_calls": ("count", "lower"),
    "solvers.ns_per_cell_stage": ("ns", "lower"),
    "solvers.mflops_computed": ("Mflop/s", "higher"),
    "solvers.cfl_s": ("s", "lower"),
    "kernels.dispatches": ("count", "lower"),
    "kernels.fallbacks": ("count", "lower"),
    # core.ghost
    "core.ghost.fill_s": ("s", "lower"),
    "core.ghost.fills": ("count", "lower"),
    "core.ghost.us_per_fill_block": ("us", "lower"),
    "core.ghost.plan_hits": ("count", "higher"),
    "core.ghost.plan_misses": ("count", "lower"),
    "core.ghost.setup_plan_misses": ("count", "lower"),
    # core.forest / core.arena
    "core.forest.adapt_s": ("s", "lower"),
    "core.forest.adapts": ("count", "lower"),
    "core.forest.blocks_refined": ("count", "lower"),
    "core.forest.blocks_coarsened": ("count", "lower"),
    "core.criteria_s": ("s", "lower"),
    "core.arena.compact_s": ("s", "lower"),
    "core.arena.compactions": ("count", "lower"),
    "core.arena.grows": ("count", "lower"),
    "core.arena.acquires": ("count", "lower"),
    # core.reflux
    "core.reflux.apply_s": ("s", "lower"),
    "core.reflux.interfaces": ("count", "lower"),
    # amr
    "amr.advance_self_s": ("s", "lower"),
    "amr.step_self_s": ("s", "lower"),
    "amr.steps": ("count", "lower"),
    "amr.block_updates": ("count", "lower"),
    "amr.ms_per_block_update": ("ms", "lower"),
    "amr.us_per_cell_update": ("us", "lower"),
    "amr.step_p50_ms": ("ms", "lower"),
    "amr.step_max_ms": ("ms", "lower"),
    "amr.subcycle.substeps": ("count", "lower"),
    "amr.subcycle.update_factor": ("1", "higher"),
    "amr.subcycle.global_wall_ratio": ("1", "higher"),
    "amr.blocked_over_batched": ("1", "higher"),
    "amr.io.checkpoint_write_s": ("s", "lower"),
    "amr.io.checkpoint_read_s": ("s", "lower"),
    "amr.io.checkpoint_bytes": ("bytes", "lower"),
    # parallel
    "parallel.exchange_s": ("s", "lower"),
    "parallel.compute_s": ("s", "lower"),
    "parallel.control_s": ("s", "lower"),
    "parallel.exchange_frac": ("1", "lower"),
    "parallel.wire_messages": ("count", "lower"),
    "parallel.wire_bytes": ("bytes", "lower"),
    "parallel.messages_per_step": ("count", "lower"),
    "parallel.spawn_s": ("s", "lower"),
    "parallel.close_s": ("s", "lower"),
    "parallel.imbalance": ("1", "lower"),
    "parallel.speedup_vs_serial": ("1", "higher"),
    # host / harness: they explain a noisy run, nothing more
    "host.calib_s": ("s", "lower"),
    "host.calib_spread": ("1", "lower"),
    "host.raw_wall_min_s": ("s", "lower"),
    "host.raw_wall_median_s": ("s", "lower"),
    "host.raw_wall_stitched_s": ("s", "lower"),
    "host.raw_setup_min_s": ("s", "lower"),
    "host.repeat_spread": ("1", "lower"),
    "host.nproc": ("count", "higher"),
    "trace.overhead_ratio": ("1", "lower"),
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    case: Any,
    spans: Sequence[Span],
    wall_s: float,
    counters: Mapping[str, int],
    setup_counters: Mapping[str, int],
    kernels: Mapping[str, int],
    extra: Mapping[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced repeat.

    ``case`` is the closed traced case, ``wall_s`` its raw wall,
    ``counters`` / ``setup_counters`` the ``repro.obs.METRICS`` counts of
    the timed region / of set-up, ``kernels`` the backend's dispatch
    counts over the timed region, ``extra`` the metrics measured outside
    the traced repeat (companion run, checkpoint, host).
    """
    own = self_times(spans)
    calls = call_counts(spans)
    out = {name: 0.0 for name in PER_LAYER}
    out.update(extra)

    update_s = own.get("solvers.step", 0.0) + own.get("solvers.flux_divergence", 0.0)
    cell_updates = case.block_updates * case.cells_per_block
    flops = flops_for_scheme(case.scheme)
    out["solvers.update_s"] = update_s
    out["solvers.update_calls"] = calls.get("solvers.flux_divergence", 0)
    out["solvers.ns_per_cell_stage"] = ratio(
        update_s * 1e9, cell_updates * case.scheme.n_stages
    )
    if flops is not None:
        out["solvers.mflops_computed"] = ratio(
            flops.per_cell_per_step * cell_updates, update_s * 1e6
        )
    out["solvers.cfl_s"] = own.get("solvers.cfl", 0.0)
    out["kernels.dispatches"] = kernels.get("dispatches", 0)
    out["kernels.fallbacks"] = kernels.get("fallbacks", 0)

    fills = calls.get("core.ghost.fill", 0)
    out["core.ghost.fill_s"] = own.get("core.ghost.fill", 0.0)
    out["core.ghost.fills"] = fills
    out["core.ghost.us_per_fill_block"] = ratio(
        out["core.ghost.fill_s"] * 1e6, fills * case.mean_blocks
    )
    out["core.ghost.plan_hits"] = counters.get("ghost.plan_hits", 0)
    out["core.ghost.plan_misses"] = counters.get("ghost.plan_misses", 0)
    out["core.ghost.setup_plan_misses"] = setup_counters.get("ghost.plan_misses", 0)

    out["core.forest.adapt_s"] = own.get("core.forest.adapt", 0.0)
    out["core.forest.adapts"] = calls.get("core.forest.adapt", 0)
    out["core.criteria_s"] = own.get("core.criteria", 0.0)
    out["core.arena.compact_s"] = own.get("core.arena.compact", 0.0)
    out["core.arena.compactions"] = counters.get("arena.compactions", 0)
    out["core.arena.grows"] = counters.get("arena.grows", 0)
    out["core.arena.acquires"] = counters.get("arena.acquires", 0)

    out["core.reflux.apply_s"] = own.get("core.reflux.apply", 0.0)

    step_name = "parallel.advance" if "parallel.advance" in calls else "amr.step"
    step_ms = [d * 1e3 for d in durations(spans, step_name)]
    out["amr.advance_self_s"] = own.get("amr.advance", 0.0)
    out["amr.step_self_s"] = own.get("amr.step", 0.0)
    out["amr.steps"] = case.steps
    out["amr.block_updates"] = case.block_updates
    out["amr.ms_per_block_update"] = ratio(wall_s * 1e3, case.block_updates)
    out["amr.us_per_cell_update"] = ratio(wall_s * 1e6, cell_updates)
    if step_ms:
        out["amr.step_p50_ms"] = statistics.median(step_ms)
        out["amr.step_max_ms"] = max(step_ms)
    out["amr.subcycle.substeps"] = counters.get("subcycle.substeps", 0)

    out.update(case.layer_counts())
    return {name: float(value) for name, value in out.items()}


def drift_problems(
    expected_spans: Sequence[str],
    max_unattributed: Optional[float],
    spans: Sequence[Span],
    wall_s: float,
) -> List[str]:
    """Span-drift guard: a refactor that moves a call site must not be
    able to zero a layer metric silently."""
    calls = call_counts(spans)
    problems = [
        f"expected span {name!r} was never called"
        for name in expected_spans
        if not calls.get(name)
    ]
    if max_unattributed is not None:
        own = self_times(spans)
        unattributed = own.get("amr.step", 0.0) + own.get("amr.advance", 0.0)
        if unattributed > max_unattributed * wall_s:
            problems.append(
                f"unattributed driver time {unattributed:.3f}s is more than "
                f"{max_unattributed:.0%} of wall {wall_s:.3f}s"
            )
    return problems
