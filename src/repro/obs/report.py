"""Render profiled runs.

Consumes the JSONL event stream a :class:`repro.obs.recorder.RunRecorder`
wrote (``repro profile`` produces one) and renders the human-readable
side of the observability layer:

* per-engine **phase breakdown** (self-time per phase, sorted, with
  fractions — the numbers every perf PR argues from);
* **top-k hottest blocks** (residency steps: blocks advance in stacked
  tiles, so per-block time does not exist);
* **engine-vs-engine comparison** when a stream profiles both engines.

Everything here is read-only over dicts, so the renderer is equally
usable on a live run's events and on a stream read back from disk.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

__all__ = [
    "phase_breakdown",
    "top_blocks_lines",
    "engine_comparison",
    "render_report",
]


def _events_of(events: Sequence[Dict[str, Any]], kind: str) -> List[Dict[str, Any]]:
    return [e for e in events if e.get("kind") == kind]


def phase_breakdown(phases: Dict[str, float]) -> str:
    """Phase self-time table, largest first, with fractions."""
    total = sum(phases.values())
    lines = []
    for name in sorted(phases, key=lambda n: -phases[n]):
        frac = phases[name] / total if total > 0 else 0.0
        lines.append(
            f"  {name:24s} {phases[name]:10.4f}s ({100 * frac:5.1f}%)"
        )
    lines.append(f"  {'total (timed phases)':24s} {total:10.4f}s")
    return "\n".join(lines)


def top_blocks_lines(blocks: List[Dict[str, Any]], k: int) -> List[str]:
    """The top-k hottest blocks of one profile event.

    Each entry carries ``id``, ``level`` and ``steps`` — residency, how
    many steps the block existed: the cost proxy, since per-block time
    is not separable in a tiled sweep.
    """
    if not blocks:
        return ["  (no per-block data)"]
    ranked = sorted(blocks, key=lambda b: -b.get("steps", 0))[:k]
    return [
        f"  L{b.get('level', '?')} {b.get('id', '?'):<28} "
        f"{int(b.get('steps', 0))} steps"
        for b in ranked
    ]


def engine_comparison(profiles: List[Dict[str, Any]]) -> str:
    """One-line-per-engine table plus the speedup when both ran."""
    lines = [f"  {'engine':>8} {'wall s':>10} {'us/cell':>10} {'Mcells/s':>10}"]
    for p in profiles:
        us = p.get("us_per_cell")
        rate = 1.0 / us if us else 0.0
        lines.append(
            f"  {p['engine']:>8} {p['wall_s']:10.3f} "
            f"{us if us is not None else float('nan'):10.3f} {rate:10.2f}"
        )
    by_engine = {p["engine"]: p for p in profiles}
    if "blocked" in by_engine and "batched" in by_engine:
        a = by_engine["blocked"].get("us_per_cell")
        b = by_engine["batched"].get("us_per_cell")
        if a and b:
            lines.append(f"  batched speedup: {a / b:.2f}x")
    return "\n".join(lines)


def render_report(events: Sequence[Dict[str, Any]], *, top_k: int = 5) -> str:
    """Full human-readable report of one recorded run."""
    out: List[str] = []
    metas = _events_of(events, "meta")
    if metas:
        meta = metas[0]
        extra = {
            k: v for k, v in meta.items()
            if k not in ("v", "t", "kind", "source")
        }
        desc = ", ".join(f"{k}={v}" for k, v in sorted(extra.items()))
        out.append(f"== {meta['source']} run" + (f" ({desc})" if desc else "") + " ==")

    steps = _events_of(events, "step")
    if steps:
        dts = [float(e["dt"]) for e in steps]
        out.append(
            f"\nsteps: {len(steps)}   "
            f"dt min/mean/max: {min(dts):.3e} / "
            f"{sum(dts) / len(dts):.3e} / {max(dts):.3e}   "
            f"final blocks: {steps[-1]['n_blocks']}, "
            f"cells: {steps[-1]['n_cells']}"
        )
    adapts = _events_of(events, "adapt")
    if adapts:
        refined = sum(int(e["refined"]) for e in adapts)
        coarsened = sum(int(e["coarsened"]) for e in adapts)
        out.append(
            f"adaptations: {len(adapts)} "
            f"(+{refined} refined, -{coarsened} coarsened)"
        )

    profiles = _events_of(events, "profile")
    for p in profiles:
        out.append(f"\n-- engine: {p['engine']} --")
        out.append("phase breakdown (self time):")
        out.append(phase_breakdown(dict(p["phases"])))
        if p.get("mflops") is not None:
            out.append(f"estimated useful rate: {p['mflops']:.0f} MFLOP/s")
        blocks = p.get("blocks")
        if blocks is not None:
            out.append(f"hottest blocks (top {top_k}):")
            out.extend(top_blocks_lines(blocks, top_k))

    if profiles:
        out.append("\nengine comparison:")
        out.append(engine_comparison(profiles))

    exchanges = _events_of(events, "exchange")
    for ex in exchanges:
        line = (
            f"\nwire traffic: {ex['n_messages']} messages, "
            f"{ex['n_bytes'] / 1024:.0f} KB"
        )
        if ex.get("n_retries"):
            line += f", {ex['n_retries']} retransmissions"
        if ex.get("n_partner_bytes"):
            line += (
                f", partner redundancy {ex['n_partner_bytes'] / 1024:.0f} KB"
            )
        out.append(line)

    recoveries = _events_of(events, "recovery")
    for rec in recoveries:
        out.append(
            f"recovery at step {rec['step']}: {rec['fault']} "
            f"[{rec['strategy']}] replayed {rec['replayed_steps']} step(s)"
            + (" (escalated)" if rec.get("escalated") else "")
        )

    if not out:
        return "(no events)"
    return "\n".join(out)
