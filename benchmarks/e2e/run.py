#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, named metrics.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py                 # all four, one child each
    python3 benchmarks/e2e/run.py --aa 5          # two interleaved sets of 5

With ``--workload`` the process runs that workload itself and prints
every metric by name with its unit, then one JSON object as the last
line of stdout (``correct``, ``attempted``, ``failed``, ``metrics``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Exit code 0 only when every verification passed.
See README.md for what the names mean and how to state a claim.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

# One thread per process, fixed before numpy loads: the serial workloads
# are single-threaded programs and the 2-rank one owns both cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
#: ``run_seconds`` of BENCHMARK.json: timed work per run (6 repeats of
#: about 3 s on the reference host)
DEFAULT_SECONDS = 18
#: the driver's per-run cap
CHILD_TIMEOUT_S = 180


def _load_benchmark() -> Any:
    """Import the harness (and with it the program under test)."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
    except ImportError as exc:
        print(
            f"error: cannot import the program under test from {ROOT / 'src'}: {exc}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return harness


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload in this process; print metrics and the result."""
    harness = _load_benchmark()
    from layers import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        print(f"error: unknown workload {name!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    harness.warn_if_oversubscribed(workload)
    try:
        if trace:
            result, values = harness.trace(workload, seed, OUT_DIR)
            units = {k: v[0] for k, v in PER_LAYER.items()}
        else:
            result = harness.measure(workload, seed, seconds)
            values = result.end_to_end() if result.good else {}
            units = {k: v[0] for k, v in END_TO_END.items()}
    finally:
        # Nothing this run started may outlive it: a later run could be
        # served by it.  Nothing below starts a process.
        stragglers = harness.stop_children()
    if stragglers:
        result.problems.append(f"processes still running after close: {stragglers}")
    correct = not result.problems and bool(values)

    print(
        f"# workload={name} seed={seed} trace={int(trace)} "
        f"repeats={len(result.repeats)} nproc={os.cpu_count()}"
    )
    for key, value in values.items():
        print(f"{key:34s} {value:<14.6g} {units[key]}")
    if not trace:
        for key, value in result.host().items():
            print(f"  {key:32s} {value:<14.6g} {PER_LAYER[key][0]}")
    for problem in result.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


def _child(name: str, seed: int, seconds: float, trace: bool) -> Optional[Dict[str, Any]]:
    """Run one workload in a fresh process; its result object, or None."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    # Its own process group, so that a child that has to be killed takes
    # its rank processes with it.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:  # boundary: time-out or Ctrl-C, leave nothing behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        print(f"FAILED: {name} seed {seed} exceeded {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return None
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"FAILED: {name} seed {seed} printed no result", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(stdout)
        return None
    return result


def run_all(names: Sequence[str], seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own fresh process."""
    status = 0
    for name in names:
        result = _child(name, seed, seconds, trace)
        if result is None:
            status = 1
            continue
        print(f"# {name}: attempted={result['attempted']} failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"{name:18s} {key:34s} {metric['value']:<14.6g} {metric['unit']}")
    return status


def _quartiles(values: List[float]) -> "tuple[float, float, float]":
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_aa(names: Sequence[str], n: int, seconds: float) -> int:
    """Two interleaved sets of ``n`` runs of the same tree (seeds 0..n-1
    in both): per metric x workload each set's median and quartiles,
    the spread (IQR / median, the larger of the two sets), the gap
    between the medians, and the declared bound.  Non-zero exit when a
    gap or a spread exceeds its bound."""
    from layers import END_TO_END

    if n < 2:
        print("error: --aa needs at least 2 runs per set", file=sys.stderr)
        return 2
    sets: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        s: {w: {m: [] for m in END_TO_END} for w in names} for s in "AB"
    }
    for seed in range(n):
        for label in "AB":
            for name in names:
                result = _child(name, seed, seconds, False)
                if result is None:
                    return 1
                for metric, entry in result["metrics"].items():
                    sets[label][name][metric].append(entry["value"])
                print(f"# set {label} seed {seed} {name} done", file=sys.stderr)
    status = 0
    print("| workload | metric | A median [q1, q3] | B median [q1, q3] | spread | gap | bound | |")
    print("|---|---|---|---|---|---|---|---|")
    for name in names:
        for metric, (unit, _, bound) in END_TO_END.items():
            a = _quartiles(sets["A"][name][metric])
            b = _quartiles(sets["B"][name][metric])
            spread = max((q[2] - q[0]) / q[1] for q in (a, b))
            gap = abs(b[1] - a[1]) / a[1]
            # setup_s: the driver bounds its median gap but not its spread
            ok = gap <= bound and (spread <= bound or metric == "setup_s")
            status |= not ok
            print(
                f"| {name} | {metric} ({unit}) | {a[1]:.5g} [{a[0]:.5g}, {a[2]:.5g}] "
                f"| {b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}] | {spread:.2%} | {gap:.2%} "
                f"| {bound:.0%} | {'ok' if ok else 'EXCEEDED'} |"
            )
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="timed work per run; sets the number of repeats (3 to 8)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced pass, per-layer metrics; 0: end-to-end metrics",
    )
    parser.add_argument(
        "--aa", type=int, metavar="N",
        help="two interleaved sets of N runs; compare them with the bounds",
    )
    args = parser.parse_args(argv)
    if args.aa is None and args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    _load_benchmark()
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.aa is not None:
        return run_aa(names, args.aa, args.seconds)
    return run_all(names, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
