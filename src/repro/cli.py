"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Run one of the bundled problems (pulse, blasts, solar wind, comet)
    with live progress and optional checkpointing.
``info``
    Summarize a checkpoint written by ``run --save`` /
    :func:`repro.amr.save_forest`.
``scaling``
    Simulated-T3D scaled-efficiency sweep (the Figure-6 series).
``fig5``
    Measured time-per-cell vs block size (the Figure-5 series).
``emulate``
    Run a problem on the emulated distributed machine and verify the
    result against the serial driver (bit-exact check).
``sanitize``
    Debug run of a problem under the correctness tooling: the
    ghost-poison sanitizer on the serial driver, plus the sanitizer and
    the exchange race detector on the emulated machine (see
    :mod:`repro.analysis`).
``lint``
    Run the repo's AMR-specific AST lint (rules REPRO101-107) over
    source paths, as text, JSON, or GitHub workflow annotations.
``check``
    Static protocol verification: spec/code conformance, phase-effect
    contracts (REPRO106/107), and a bounded explicit-state model check
    of the supervisor/worker protocol with a seeded-mutation self-test
    (see :mod:`repro.analysis.modelcheck`).
``profile``
    Run a problem under the observability layer (metrics registry +
    JSONL event stream) and print the phase breakdown, hottest blocks,
    and engine comparison (see :mod:`repro.obs`).
``report``
    Validate and render a previously recorded ``*.jsonl`` event stream,
    optionally diffing it against the committed ``BENCH_*.json``
    performance trajectory.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]

PROBLEMS = ("pulse", "sedov", "mhd_blast", "orszag_tang", "solar_wind", "comet")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive Blocks (Stout et al., SC 1997) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a bundled AMR problem")
    run.add_argument("problem", choices=PROBLEMS)
    run.add_argument("--ndim", type=int, default=2, choices=(1, 2, 3))
    run.add_argument("--steps", type=int, default=None, help="step count")
    run.add_argument("--t-end", type=float, default=None, help="end time")
    run.add_argument("--no-adapt", action="store_true", help="static grid")
    run.add_argument("--reflux", action="store_true",
                     help="enable coarse-fine flux correction")
    run.add_argument("--save", metavar="FILE.npz", default=None,
                     help="write a checkpoint at the end")
    run.add_argument("--report-every", type=int, default=10)
    run.add_argument("--checkpoint-every", type=int, metavar="N", default=None,
                     help="write a rotating checkpoint every N steps")
    run.add_argument("--checkpoint-dir", default="checkpoints",
                     help="directory for --checkpoint-every files")
    run.add_argument("--checkpoint-keep", type=int, default=3,
                     help="rotating checkpoints to retain")
    run.add_argument("--resume", metavar="FILE.npz", default=None,
                     help="restart from a checkpoint instead of t=0")
    run.add_argument("--safe-mode", action="store_true",
                     help="health-check each step; roll back and halve "
                          "dt on NaN/Inf or negative density/pressure")
    run.add_argument("--sanitize", action="store_true",
                     help="run under the ghost-poison sanitizer (debug; "
                          "raises on any consumed unfilled ghost cell)")
    run.add_argument("--subcycle", action="store_true",
                     help="level-local time stepping: each refinement "
                          "level advances with its own CFL dt (2^delta "
                          "substeps per coarse step, time-interpolated "
                          "ghosts, time-weighted reflux) instead of one "
                          "global finest-level dt")
    run.add_argument("--scrub-every", type=int, metavar="N", default=None,
                     help="verify per-block CRC integrity tags every N "
                          "steps; silent data corruption aborts loudly "
                          "with a per-block diagnosis instead of "
                          "propagating (bit-for-bit transparent)")

    bench = sub.add_parser(
        "bench",
        help="tiled-vs-one-row sweep speedup (Fig-5-style workload)",
    )
    bench.add_argument("--quick", action="store_true",
                       help="reduced sweep for smoke runs")
    bench.add_argument("--steps", type=int, default=None,
                       help="override timed steps per case")
    bench.add_argument("--no-json", action="store_true",
                       help="skip writing BENCH_batched_engine.json")
    bench.add_argument("--subcycle", action="store_true",
                       help="also run the deep-hierarchy subcycling case: "
                            "subcycled vs global-dt updates per unit "
                            "physical time on a nested multi-level forest, "
                            "checked against the ablation-predicted factor "
                            "and for blocked/batched bitwise equivalence")

    info = sub.add_parser("info", help="summarize or audit checkpoints")
    info.add_argument("checkpoint",
                      help="a checkpoint file, or (with --checksums) a "
                           "checkpoint directory to audit")
    info.add_argument("--validate", action="store_true",
                      help="run the forest invariant validator")
    info.add_argument("--checksums", action="store_true",
                      help="report content checksums; pointing at a "
                           "directory audits every rotating checkpoint "
                           "in it, flagging corrupt files")
    info.add_argument("--prefix", default="ckpt", metavar="NAME",
                      help="rotating-checkpoint filename prefix for "
                           "directory audits (default: ckpt)")

    scaling = sub.add_parser("scaling", help="simulated-T3D efficiency sweep")
    scaling.add_argument("--steps", type=int, default=10)

    fig5 = sub.add_parser("fig5", help="measured time/cell vs block size")
    fig5.add_argument(
        "--sizes", default="2,4,8,16",
        help="comma-separated block sizes (default 2,4,8,16)",
    )

    emulate = sub.add_parser(
        "emulate",
        help="distributed-emulation run, verified against serial",
    )
    emulate.add_argument("problem", choices=PROBLEMS)
    emulate.add_argument("--ndim", type=int, default=2, choices=(1, 2, 3))
    emulate.add_argument("--ranks", type=int, default=4)
    emulate.add_argument("--steps", type=int, default=5)
    emulate.add_argument("--kill", action="append", default=[],
                         metavar="STEP:RANK",
                         help="kill RANK at the start of STEP (repeatable)")
    emulate.add_argument("--drop-message", action="append", default=[],
                         metavar="STEP:INDEX",
                         help="drop wire message INDEX during STEP")
    emulate.add_argument("--corrupt-message", action="append", default=[],
                         metavar="STEP:INDEX",
                         help="corrupt wire message INDEX during STEP")
    emulate.add_argument("--transient-message", action="append", default=[],
                         metavar="STEP:INDEX",
                         help="transiently drop wire message INDEX during "
                              "STEP (retried with backoff, see --retry-max)")
    emulate.add_argument("--flip-bits", action="append", default=[],
                         metavar="STEP:TARGET[:BLOCK[:BYTE[:BIT]]]",
                         help="flip one bit of live state before STEP "
                              "(repeatable); TARGET is interior, ghost, "
                              "mirror, or staging, BLOCK indexes the "
                              "SFC block order (wire-message order for "
                              "staging); detected by the scrubber and "
                              "repaired through the self-healing ladder")
    emulate.add_argument("--scrub-every", type=int, default=None,
                         metavar="N",
                         help="verify block and mirror CRC integrity "
                              "tags every N steps (defaults to 1 when "
                              "--flip-bits is given, else off)")
    emulate.add_argument("--refine-levels", type=int, default=0,
                         metavar="L",
                         help="statically refine L levels around the "
                              "domain center before the run (exercises "
                              "cross-level exchange; staging bitflips "
                              "ride the coarse-to-fine payloads this "
                              "creates)")
    emulate.add_argument("--checkpoint-every", type=int, default=1,
                         metavar="N",
                         help="recovery checkpoint cadence (fault runs)")
    emulate.add_argument("--checkpoint-dir", default=None,
                         help="recovery checkpoint directory "
                              "(default: a temporary directory)")
    emulate.add_argument("--recovery-strategy", default="local",
                         choices=("local", "global"),
                         help="fault recovery policy: localized "
                              "partner-copy recovery, escalating to "
                              "global on double faults (default), or "
                              "always-global checkpoint rollback")
    emulate.add_argument("--retry-max", type=int, default=2, metavar="N",
                         help="retransmissions before a transient message "
                              "fault escalates to a failure")
    emulate.add_argument("--sanitize", action="store_true",
                         help="run the emulation under the ghost-poison "
                              "sanitizer and the exchange race detector")
    emulate.add_argument("--record", metavar="FILE.jsonl", default=None,
                         help="write a structured JSONL event stream "
                              "(steps, recoveries, wire traffic; see "
                              "`repro report`)")
    emulate.add_argument("--backend", choices=("emulated", "process"),
                         default="emulated",
                         help="rank substrate: in-process emulation "
                              "(default) or one real OS process per rank "
                              "with shared-memory pools; --kill then sends "
                              "an actual SIGKILL and recovery respawns the "
                              "process")
    emulate.add_argument("--schedule", metavar="TRACE.json", default=None,
                         help="replay a `repro check` counterexample trace: "
                              "its fault injections are mapped onto the "
                              "deterministic fault plan (kill/hang -> rank "
                              "kill, mute/garble/stale -> transient message "
                              "drop) and the final-state digest is printed")

    sanitize = sub.add_parser(
        "sanitize",
        help="debug-run a problem under the full correctness tooling",
    )
    sanitize.add_argument("problem", choices=PROBLEMS)
    sanitize.add_argument("--ndim", type=int, default=2, choices=(1, 2, 3))
    sanitize.add_argument("--steps", type=int, default=5)
    sanitize.add_argument("--ranks", type=int, default=4)
    sanitize.add_argument("--no-adapt", action="store_true",
                          help="static grid for the serial phase")

    profile = sub.add_parser(
        "profile",
        help="run a problem under the observability layer and report "
             "phase breakdown, hottest blocks, and engine comparison",
    )
    profile.add_argument("problem", choices=PROBLEMS)
    profile.add_argument("--ndim", type=int, default=2, choices=(1, 2, 3))
    profile.add_argument("--steps", type=int, default=10)
    profile.add_argument("--engines", default="blocked,batched",
                         help="comma-separated rows-per-kernel-call "
                              "modes to profile: blocked (one row), "
                              "batched (a tile); default: both")
    profile.add_argument("--subcycle", action="store_true",
                         help="profile under level-local (subcycled) time "
                              "stepping instead of one global dt")
    profile.add_argument("--no-adapt", action="store_true",
                         help="static grid")
    profile.add_argument("--out", metavar="FILE.jsonl", default=None,
                         help="event-stream path (default: "
                              "profile_<problem>.jsonl)")
    profile.add_argument("--top-k", type=int, default=5,
                         help="hottest blocks to show (default 5)")
    profile.add_argument("--compare-bench", action="store_true",
                         help="diff the profiled numbers against the "
                              "committed BENCH_batched_engine.json")

    report = sub.add_parser(
        "report",
        help="validate and render a recorded run.jsonl event stream",
    )
    report.add_argument("run", metavar="RUN.jsonl")
    report.add_argument("--top-k", type=int, default=5)
    report.add_argument("--compare-bench", metavar="NAME", nargs="?",
                        const="batched_engine", default=None,
                        help="diff profiled numbers against the committed "
                             "BENCH_<NAME>.json (default name: "
                             "batched_engine)")
    report.add_argument("--strict", action="store_true",
                        help="exit non-zero when --compare-bench flags a "
                             "regression")

    lint = sub.add_parser(
        "lint", help="run the AMR-specific AST lint (REPRO101-107)"
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories (default: src/repro)")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="comma-separated rule codes to enable "
                           "(default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.add_argument("--format", default="text",
                      choices=("text", "json", "github"),
                      help="output format: human-readable lines (default), "
                           "a JSON report, or GitHub workflow error "
                           "annotations (::error file=...)")

    check = sub.add_parser(
        "check",
        help="static protocol verification: spec conformance, "
             "phase-effect contracts, bounded model check",
    )
    check.add_argument("--ranks", type=int, default=2,
                       help="model-check world size (2-4, default 2)")
    check.add_argument("--steps", type=int, default=1,
                       help="bounded step count (default 1)")
    check.add_argument("--max-faults", type=int, default=1,
                       help="fault-injection budget (default 1)")
    check.add_argument("--scheme", choices=("single", "double"),
                       default="single",
                       help="step program: single-stage or "
                            "predictor/corrector")
    check.add_argument("--no-por", action="store_true",
                       help="disable the partial-order reduction "
                            "(full interleaving exploration)")
    check.add_argument("--mutate", default=None, metavar="NAME",
                       choices=("reorder-exch2", "skip-mirror-verify",
                                "drop-probe", "unguarded-free",
                                "skip-seq-check"),
                       help="model-check a single seeded spec mutation; "
                            "succeeds when the expected violation is "
                            "found (detection self-test)")
    check.add_argument("--skip-mutations", action="store_true",
                       help="skip the all-mutations detection self-test "
                            "that normally runs after the clean check")
    check.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="write counterexample traces as "
                            "<DIR>/<kind>.json (replayable via "
                            "`repro emulate --schedule`)")
    return parser


def _make_problem(name: str, ndim: int):
    from repro.amr import (
        advecting_pulse,
        comet,
        mhd_blast,
        orszag_tang,
        sedov_blast,
        solar_wind,
    )

    factories = {
        "pulse": advecting_pulse,
        "sedov": sedov_blast,
        "mhd_blast": mhd_blast,
        "orszag_tang": lambda _ndim: orszag_tang(),
        "solar_wind": solar_wind,
        "comet": comet,
    }
    return factories[name](ndim)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.amr import (
        CheckpointError,
        Simulation,
        checkpoint_metadata,
        grid_report,
        load_forest,
        save_forest,
    )
    from repro.resilience import UnrecoverableStep

    if args.steps is None and args.t_end is None:
        print("error: give --steps and/or --t-end", file=sys.stderr)
        return 2
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        print("error: --checkpoint-every must be >= 1", file=sys.stderr)
        return 2
    if args.scrub_every is not None and args.scrub_every < 1:
        print("error: --scrub-every must be >= 1", file=sys.stderr)
        return 2
    problem = _make_problem(args.problem, args.ndim)
    if args.resume:
        try:
            forest = load_forest(args.resume)
            meta = checkpoint_metadata(args.resume)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        sim = Simulation(
            forest,
            problem.scheme,
            bc=problem.bc,
            criterion=None if args.no_adapt else problem.make_criterion(),
            adapt_interval=problem.config.adapt_interval,
            buffer_band=problem.config.buffer_band,
            hook=problem.hook,
            safe_mode=args.safe_mode,
            sanitize=args.sanitize,
            subcycle=args.subcycle,
        )
        sim.time = float(meta.get("time", 0.0))
        sim.step_count = int(meta.get("step", 0))
        print(
            f"resumed from {args.resume} at step {sim.step_count}, "
            f"t={sim.time:.5f}"
        )
    else:
        sim = problem.build(
            adaptive=not args.no_adapt,
            sanitize=args.sanitize,
            subcycle=args.subcycle,
        )
        sim.safe_mode = args.safe_mode
    sim.reflux = args.reflux
    if args.scrub_every is not None:
        from repro.resilience import Scrubber

        sim.attach_scrubber(Scrubber(every=args.scrub_every))
    with sim:
        return _drive_run(args, problem, sim)


def _drive_run(args: argparse.Namespace, problem, sim) -> int:
    """The run loop of :func:`cmd_run` (sim closed by the caller)."""
    from repro.amr import grid_report, save_forest
    from repro.resilience import CorruptionError, UnrecoverableStep

    checkpointer = None
    if args.checkpoint_every is not None:
        from repro.resilience import Checkpointer

        checkpointer = Checkpointer(
            args.checkpoint_dir, keep=args.checkpoint_keep
        )
    print(f"== {problem.name} ==")
    print(grid_report(sim.forest))
    print(f"{'step':>6} {'time':>10} {'dt':>10} {'blocks':>7} {'cells':>9}")
    target_steps = args.steps if args.steps is not None else 10**9
    while True:
        if sim.step_count >= target_steps:
            break
        if args.t_end is not None and sim.time >= args.t_end - 1e-14:
            break
        dt = sim.stable_dt()
        if args.t_end is not None:
            dt = min(dt, args.t_end - sim.time)
        try:
            rec = sim.step(dt)
        except CorruptionError as exc:
            # The serial driver has no partner/checkpoint tier to heal
            # from; the scrubber's job here is the loud, early abort.
            print(f"error: {exc}", file=sys.stderr)
            for entry in exc.entries:
                print(f"  corrupt: {entry.describe()}", file=sys.stderr)
            return 1
        except UnrecoverableStep as exc:
            f = exc.failure
            print(
                f"error: step {f.step} unrecoverable at t={f.time:.5f}: "
                f"{f.issue.reason} in block {f.issue.block} "
                f"(variable {f.issue.variable}, {f.issue.n_bad} bad cells) "
                f"after dt attempts "
                + ", ".join(f"{d:.3e}" for d in f.dt_attempts),
                file=sys.stderr,
            )
            return 1
        if (
            checkpointer is not None
            and sim.step_count % args.checkpoint_every == 0
        ):
            info = checkpointer.save(
                sim.forest, step=sim.step_count, time=sim.time
            )
            print(f"  checkpoint -> {info.path}")
        if sim.step_count % args.report_every == 0:
            print(
                f"{sim.step_count:6d} {sim.time:10.5f} {rec.dt:10.3e} "
                f"{sim.forest.n_blocks:7d} {sim.forest.n_cells:9d}"
            )
    print("\nfinal grid:")
    print(grid_report(sim.forest))
    print("\nphase timings:")
    print(sim.timer.report())
    if sim.sanitizer is not None:
        print(
            f"\nghost sanitizer: {sim.sanitizer.n_exchanges_checked} "
            f"exchanges verified, {sim.sanitizer.n_cells_poisoned} "
            f"ghost values poisoned, 0 violations"
        )
    if sim.scrubber is not None:
        s = sim.scrubber
        print(
            f"\nscrubber: {s.scrubs} scrubs, {s.blocks_verified} block "
            f"verifications, {s.mismatches} mismatches"
        )
    if args.save:
        save_forest(sim.forest, args.save, time=sim.time, step=sim.step_count)
        print(f"\ncheckpoint written to {args.save}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.analysis.engine_bench import (
        DEFAULT_CASES,
        QUICK_CASES,
        check_equivalence,
        check_subcycle_equivalence,
        run_case,
        run_subcycle_case,
    )
    from repro.util.benchio import make_bench_record, write_bench_json

    cases = list(QUICK_CASES if args.quick else DEFAULT_CASES)
    if args.steps is not None:
        if args.steps < 1:
            print("error: --steps must be >= 1", file=sys.stderr)
            return 2
        cases = [replace(c, steps=args.steps) for c in cases]

    print("tiled (batched) vs one-row (blocked) sweep speedup "
          "(uniform MHD, time per cell)")
    print(
        f"{'case':>16} {'blocked us/cell':>16} {'batched us/cell':>16} "
        f"{'speedup':>8}"
    )
    results = []
    for case in cases:
        res = run_case(case)
        results.append(res)
        print(
            f"{res['label']:>16} {res['blocked']['us_per_cell']:16.3f} "
            f"{res['batched']['us_per_cell']:16.3f} {res['speedup']:8.2f}"
        )
    ok = check_equivalence(cases[-1], steps=3)
    print(
        "bitwise engine equivalence (spot check): "
        f"{'ok' if ok else 'VIOLATED'}"
    )
    sub_result = None
    if args.subcycle:
        print("\ndeep-hierarchy subcycling (advection, nested refinement)")
        sub_result = run_subcycle_case()
        s, g = sub_result["subcycled"], sub_result["global"]
        print(
            f"  {sub_result['label']}: {sub_result['n_blocks']} blocks over "
            f"{sub_result['levels']} levels (depth {sub_result['depth']})"
        )
        print(
            f"  updates per unit time: global {g['updates_per_time']:.0f} "
            f"({g['updates']} updates), subcycled {s['updates_per_time']:.0f} "
            f"({s['updates']} updates)"
        )
        print(
            f"  work factor: measured {sub_result['measured_factor']:.2f}x "
            f"vs predicted {sub_result['predicted_factor']:.2f}x "
            f"({'ok' if sub_result['beats_global'] else 'BELOW PREDICTION'})"
        )
        print(
            f"  wall (best of {sub_result['wall_repeats']}): global "
            f"{g['wall_s']:.3f} s, subcycled {s['wall_s']:.3f} s "
            f"({'ok' if sub_result['wins_wall'] else 'SUBCYCLING SLOWER'})"
        )
        print(
            f"  L1 error: global {g['error']:.3e}, subcycled {s['error']:.3e} "
            f"(matched: {'ok' if sub_result['matched_error'] else 'VIOLATED'})"
        )
        eq = check_subcycle_equivalence()
        print(
            "  bitwise subcycled engine equivalence: "
            f"{'ok' if eq else 'VIOLATED'}"
        )
        ok = (
            ok and eq
            and sub_result["beats_global"]
            and sub_result["wins_wall"]
            and sub_result["matched_error"]
        )
    if not args.no_json:
        payload = dict(
            workload="uniform periodic MHD, Fig-5-style time per cell",
            cases=results,
            equivalence_ok=ok,
        )
        if sub_result is not None:
            payload["subcycle"] = sub_result
        record = make_bench_record("batched_engine", **payload)
        path = write_bench_json(record)
        print(f"wrote {path}")
    return 0 if ok else 1


def cmd_info(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.amr import (
        CheckpointError,
        checkpoint_metadata,
        grid_report,
        load_forest,
        verify_checkpoint,
    )

    if Path(args.checkpoint).is_dir():
        if not args.checksums:
            print(
                f"error: {args.checkpoint} is a directory "
                "(use --checksums to audit it)",
                file=sys.stderr,
            )
            return 2
        return _info_audit(args, Path(args.checkpoint))
    try:
        meta = checkpoint_metadata(args.checkpoint)
        forest = load_forest(args.checkpoint)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.checksums:
            rec = verify_checkpoint(args.checkpoint)
            if rec.get("stored_crc") is not None:
                print(
                    f"  stored crc32 {rec['stored_crc']:#010x}, "
                    f"computed {rec['computed_crc']:#010x}",
                    file=sys.stderr,
                )
        return 1
    line = f"format v{meta['format_version']}, {meta['n_blocks']} blocks"
    if "step" in meta:
        line += f", step {meta['step']}"
    if "time" in meta:
        line += f", t={meta['time']:.6g}"
    print(line)
    if args.checksums:
        rec = verify_checkpoint(args.checkpoint)
        print(f"content crc32: {rec['stored_crc']:#010x} (verified)")
    print(grid_report(forest))
    totals = []
    for block in forest:
        cell_vol = float(np.prod(block.dx))
        totals.append(block.interior.reshape(forest.nvar, -1).sum(axis=1) * cell_vol)
    total = np.sum(totals, axis=0)
    print("conserved totals:", "  ".join(f"{v:.6g}" for v in total))
    if args.validate:
        from repro.resilience import validate_forest

        violations = validate_forest(forest, check_ghosts=False)
        if violations:
            for v in violations:
                print(f"INVALID [{v.check}] {v.block}: {v.detail}", file=sys.stderr)
            return 1
        print("forest invariants: OK")
    return 0


def _info_audit(args: argparse.Namespace, directory) -> int:
    """Audit a checkpoint directory: per-file checksum verification in
    rotation order, plus the restart point recovery would pick."""
    from repro.amr import load_forest, verify_checkpoint
    from repro.resilience import Checkpointer

    ckpt = Checkpointer(directory, prefix=args.prefix)
    entries = ckpt._scan()
    if not entries:
        print(
            f"no '{args.prefix}-*.npz' checkpoints in {directory}",
            file=sys.stderr,
        )
        return 1
    print(f"checkpoint audit: {directory} ({len(entries)} file(s))")
    print(
        f"{'file':<22} {'step':>8} {'time':>12} {'blocks':>7} "
        f"{'crc32':>10}  status"
    )
    n_bad = 0
    for _, path in entries:
        rec = verify_checkpoint(path)
        if not rec["ok"]:
            n_bad += 1
            print(
                f"{path.name:<22} {'-':>8} {'-':>12} {'-':>7} {'-':>10}  "
                f"CORRUPT: {rec['error']}"
            )
            continue
        step = str(rec.get("step", "-"))
        time = rec.get("time")
        time_s = f"{time:.6g}" if time is not None else "-"
        status = "OK"
        if args.validate:
            from repro.resilience import validate_forest

            violations = validate_forest(
                load_forest(path), check_ghosts=False
            )
            if violations:
                n_bad += 1
                status = f"INVALID: {len(violations)} violation(s)"
            else:
                status = "OK (invariants valid)"
        print(
            f"{path.name:<22} {step:>8} {time_s:>12} "
            f"{rec['n_blocks']:>7} {rec['computed_crc']:#010x}  {status}"
        )
    latest = ckpt.latest()
    if latest is None:
        print("restart point: NONE USABLE", file=sys.stderr)
        return 1
    print(
        f"restart point: {latest.path.name} "
        f"(step {latest.step}, t={latest.time:.6g})"
    )
    if ckpt.quarantined:
        print(
            "quarantined: "
            + ", ".join(p.name for p in ckpt.quarantined),
            file=sys.stderr,
        )
    return 1 if n_bad else 0


def cmd_scaling(args: argparse.Namespace) -> int:
    from repro.core import BlockForest
    from repro.parallel import ParallelSimulation, scaled_efficiency
    from repro.util.geometry import Box

    times = {}
    print(f"{'PEs':>5} {'blocks':>7} {'ms/step':>9} {'comm %':>7}")
    for p, n in ((1, 2), (8, 4), (64, 8), (512, 16)):
        forest = BlockForest(
            Box((0.0,) * 3, (1.0,) * 3), (n,) * 3, (8,) * 3, nvar=1, n_ghost=2
        )
        sim = ParallelSimulation(forest, p)
        rep = sim.run(args.steps)
        times[p] = rep.time_per_step
        print(
            f"{p:5d} {forest.n_blocks:7d} {rep.time_per_step * 1e3:9.2f} "
            f"{100 * rep.comm_fraction:7.2f}"
        )
    eff = scaled_efficiency(times)
    print("efficiency:", "  ".join(f"P={p}: {e:.3f}" for p, e in eff.items()))
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    from repro.solvers import MHDScheme
    from repro.util.timing import measure

    sizes = [int(s) for s in args.sizes.split(",")]
    rng = np.random.default_rng(0)
    print(f"{'block':>7} {'cells':>7} {'us/cell':>9}")
    for m in sizes:
        g = 2
        scheme = MHDScheme(3, order=2)
        w = np.empty((8,) + (m + 2 * g,) * 3)
        w[0] = 1.0 + 0.1 * rng.random(w.shape[1:])
        w[1:4] = 0.0
        w[4] = 1.0
        w[5:8] = 0.1
        u = scheme.prim_to_cons(w)
        t = measure(lambda: scheme.step(u, (1.0 / m,) * 3, 1e-4, g), repeats=3).best
        print(f"{m:>5d}^3 {m**3:7d} {t / m**3 * 1e6:9.2f}")
    return 0


def _parse_fault_pairs(specs, flag):
    pairs = []
    for spec in specs:
        try:
            a, b = spec.split(":")
            pairs.append((int(a), int(b)))
        except ValueError:
            raise SystemExit(f"error: {flag} expects STEP:N, got {spec!r}")
    return pairs


def _parse_flip_specs(specs):
    """``STEP:TARGET[:BLOCK[:BYTE[:BIT]]]`` specs -> BitFlip records."""
    from repro.resilience.faults import _FLIP_TARGETS, BitFlip

    usage = "STEP:TARGET[:BLOCK[:BYTE[:BIT]]]"
    flips = []
    for spec in specs:
        parts = spec.split(":")
        try:
            if not 2 <= len(parts) <= 5:
                raise ValueError(spec)
            step = int(parts[0])
            nums = [int(p) for p in parts[2:]]
        except ValueError:
            raise SystemExit(
                f"error: --flip-bits expects {usage}, got {spec!r}"
            )
        target = parts[1]
        if target not in _FLIP_TARGETS:
            raise SystemExit(
                f"error: --flip-bits target must be one of "
                f"{', '.join(_FLIP_TARGETS)}, got {target!r}"
            )
        block, byte, bit = (nums + [0, 0, 0])[:3]
        flips.append(
            BitFlip(step=step, target=target, block=block, byte=byte, bit=bit)
        )
    return flips


def _refine_center(forest, levels: int) -> None:
    """Statically refine ``levels`` times at the domain center.

    Deterministic (the SFC-first leaf covering the center point, by a
    half-open containment test) so the serial reference and the
    emulated forest get bit-identical topologies.
    """
    center = tuple(
        0.5 * (lo + hi) for lo, hi in zip(forest.domain.lo, forest.domain.hi)
    )
    for _ in range(levels):
        for bid in forest.sorted_ids():
            box = forest.blocks[bid].box
            if all(l <= c < h for l, c, h in zip(box.lo, center, box.hi)):
                forest.refine(bid)
                break


#: How model-checker fault actions land on the emulator's fault plan.
_SCHEDULE_KILL_ACTIONS = ("kill", "hang", "clean-exit", "exit")
_SCHEDULE_MESSAGE_ACTIONS = ("mute", "garble", "stale", "slow")


def _merge_schedule(args: argparse.Namespace) -> int:
    """Fold a model-checker counterexample trace into the fault flags.

    Each fault action in the trace becomes the nearest emulator-level
    injection: process-death faults a ``--kill``, message-level faults a
    ``--transient-message`` (dropped once, recovered by the retry
    policy).  The mapped schedule is printed so the replay is auditable.
    """
    from pathlib import Path

    from repro.analysis.modelcheck import CounterexampleTrace, schedule_faults

    try:
        trace = CounterexampleTrace.from_json(
            Path(args.schedule).read_text(encoding="utf-8")
        )
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load --schedule: {exc}", file=sys.stderr)
        return 2
    faults = schedule_faults(trace)
    print(
        f"== replaying counterexample '{trace.kind}'"
        + (f" (mutation {trace.mutation})" if trace.mutation else "")
        + f": {len(faults)} fault(s) =="
    )
    if trace.ranks > args.ranks:
        print(
            f"note: trace was found on {trace.ranks} ranks; replaying on "
            f"{args.ranks}"
        )
    for f in faults:
        rank = int(f["rank"]) % args.ranks
        # Model step s happens after s full steps committed; the
        # emulator's fault plan indexes injection points the same way.
        step = int(f["step"])
        if step >= args.steps:
            step = args.steps - 1
        action = str(f["action"])
        if action in _SCHEDULE_KILL_ACTIONS:
            args.kill.append(f"{step}:{rank}")
            mapped = f"kill rank {rank} at step {step}"
        elif action in _SCHEDULE_MESSAGE_ACTIONS:
            args.transient_message.append(f"{step}:{rank}")
            mapped = f"transiently drop message {rank} of step {step}"
        else:
            print(f"note: fault action {action!r} has no emulator "
                  "equivalent; skipped")
            continue
        print(f"  {action} @ {f['phase']} -> {mapped}")
    return 0


def cmd_emulate(args: argparse.Namespace) -> int:
    if args.schedule is not None:
        rc = _merge_schedule(args)
        if rc:
            return rc
    kills = _parse_fault_pairs(args.kill, "--kill")
    for step, rank in kills:
        if not 0 <= rank < args.ranks:
            print(
                f"error: --kill rank {rank} out of range for "
                f"{args.ranks} ranks",
                file=sys.stderr,
            )
            return 2
    drops = _parse_fault_pairs(args.drop_message, "--drop-message")
    corrupts = _parse_fault_pairs(args.corrupt_message, "--corrupt-message")
    transients = _parse_fault_pairs(args.transient_message,
                                    "--transient-message")
    flips = _parse_flip_specs(args.flip_bits)
    if args.refine_levels < 0:
        print("error: --refine-levels must be >= 0", file=sys.stderr)
        return 2
    if any(f.target == "staging" for f in flips) and args.refine_levels < 1:
        print(
            "error: staging bitflips need --refine-levels >= 1 "
            "(staging buffers only exist for coarse-to-fine exchange)",
            file=sys.stderr,
        )
        return 2
    if args.scrub_every is None and flips:
        # An injected flip without a scrubber is exactly the silent
        # corruption this subsystem exists to prevent; default to the
        # tightest detection window.
        args.scrub_every = 1
    if args.scrub_every is not None and args.scrub_every < 1:
        print("error: --scrub-every must be >= 1", file=sys.stderr)
        return 2
    if args.retry_max < 0:
        print("error: --retry-max must be >= 0", file=sys.stderr)
        return 2

    problem = _make_problem(args.problem, args.ndim)
    with problem.build(adaptive=False) as sim:
        if args.record is not None:
            from repro.obs import RunRecorder

            with RunRecorder(args.record) as recorder:
                rc = _drive_emulate(
                    args, problem, sim, kills, drops, corrupts, transients,
                    flips, recorder,
                )
            print(f"event stream written to {args.record}")
            return rc
        return _drive_emulate(
            args, problem, sim, kills, drops, corrupts, transients, flips,
            None,
        )


def _drive_emulate(
    args: argparse.Namespace, problem, sim, kills, drops, corrupts,
    transients, flips, recorder,
) -> int:
    """The emulation loop of :func:`cmd_emulate` (sim closed by caller)."""
    import contextlib
    import tempfile

    from repro.parallel import EmulatedMachine

    if args.refine_levels:
        _refine_center(sim.forest, args.refine_levels)
        problem.init_forest(sim.forest)
    forest_emu = problem.config.make_forest(problem.scheme.nvar)
    if args.refine_levels:
        _refine_center(forest_emu, args.refine_levels)
    problem.init_forest(forest_emu)

    fault_plan = None
    if kills or drops or corrupts or transients or flips:
        from repro.resilience import FaultPlan, MessageFault, RankKill

        fault_plan = FaultPlan(
            kills=[RankKill(step=s, rank=r) for s, r in kills],
            message_faults=(
                [MessageFault(step=s, index=i, mode="drop") for s, i in drops]
                + [MessageFault(step=s, index=i, mode="corrupt")
                   for s, i in corrupts]
                + [MessageFault(step=s, index=i, mode="drop", transient=True)
                   for s, i in transients]
            ),
            bitflips=flips,
        )

    from repro.resilience import RetryPolicy

    retry_policy = RetryPolicy(max_retries=args.retry_max)
    # The process backend owns real child processes and /dev/shm segments;
    # the exit stack guarantees teardown on every path, including raises.
    with contextlib.ExitStack() as stack:
        if args.backend == "process":
            from repro.parallel import ProcessMachine

            emu = stack.enter_context(ProcessMachine(
                forest_emu, args.ranks, problem.scheme, bc=problem.bc,
                fault_plan=fault_plan,
                retry_policy=retry_policy,
                sanitize=args.sanitize,
            ))
            emu.recorder = recorder
        else:
            emu = EmulatedMachine(
                forest_emu, args.ranks, problem.scheme, bc=problem.bc,
                fault_plan=fault_plan,
                retry_policy=retry_policy,
                sanitize=args.sanitize,
            )
        if args.sanitize:
            emu.attach_race_detector()
        return _emulate_loop(args, problem, sim, emu, fault_plan, recorder)


def _emulate_loop(
    args: argparse.Namespace, problem, sim, emu, fault_plan, recorder,
) -> int:
    """Drive ``emu`` against the serial reference and compare."""
    import tempfile

    scrubber = None
    if args.scrub_every is not None:
        from repro.resilience import Scrubber

        # Attached before the run so the recovery driver can hand the
        # scrubber the partner store (mirror verification) when the
        # localized tier comes up.  Verification only reads state, so
        # the bit-for-bit comparison below still holds.
        scrubber = emu.attach_scrubber(Scrubber(every=args.scrub_every))
    dt = 0.5 * sim.stable_dt()
    backend_note = (
        " (real processes)" if args.backend == "process" else ""
    )
    print(
        f"== emulating {problem.name} on {args.ranks} ranks{backend_note}, "
        f"{args.steps} steps of dt={dt:.3e} =="
    )
    if recorder is not None:
        recorder.emit(
            "meta",
            source="emulate",
            problem=args.problem,
            ndim=args.ndim,
            ranks=args.ranks,
            steps=args.steps,
            strategy=args.recovery_strategy,
            backend=args.backend,
        )
    for _ in range(args.steps):
        sim.advance(dt)
        if sim.hook is not None:
            sim.hook(sim, dt)
    if fault_plan is not None:
        from repro.resilience import (
            Checkpointer,
            CorruptionError,
            run_with_recovery,
        )

        tmpdir = None
        if args.checkpoint_dir is None:
            tmpdir = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
            ckpt_dir = tmpdir.name
        else:
            ckpt_dir = args.checkpoint_dir
        try:
            report = run_with_recovery(
                emu,
                n_steps=args.steps,
                dt=dt,
                checkpointer=Checkpointer(ckpt_dir),
                checkpoint_every=args.checkpoint_every,
                strategy=args.recovery_strategy,
                recorder=recorder,
            )
        except CorruptionError as exc:
            print(f"error: unrecoverable corruption: {exc}", file=sys.stderr)
            for entry in exc.entries:
                print(f"  corrupt: {entry.describe()}", file=sys.stderr)
            return 1
        finally:
            if tmpdir is not None:
                tmpdir.cleanup()
        for ev in report.events:
            if ev.strategy == "local":
                how = (
                    f"restored {ev.blocks_restored} block(s) "
                    f"({ev.bytes_restored / 1024:.0f} KB) from partner "
                    f"copies of step {ev.restored_from_step}"
                )
            else:
                how = f"restored checkpoint of step {ev.restored_from_step}"
                if ev.escalated:
                    how += " (escalated: partner copies unusable)"
            print(
                f"recovered from {ev.kind} at step {ev.step}: "
                f"[{ev.strategy}] {how}, "
                f"replayed {ev.replayed_steps} step(s)  [{ev.detail}]"
            )
        print(
            f"survivors: ranks {emu.alive_ranks} "
            f"({report.checkpoints_written} checkpoints written, "
            f"{report.n_local_recoveries} local recoveries, "
            f"{report.n_escalations} escalations)"
        )
    else:
        for _ in range(args.steps):
            emu.advance(dt)
            if recorder is not None:
                recorder.emit(
                    "step",
                    step=emu.step_index,
                    t_sim=emu.time,
                    dt=dt,
                    n_blocks=emu.topology.n_blocks,
                    n_cells=emu.topology.n_cells,
                )
    if recorder is not None:
        recorder.emit(
            "exchange",
            n_messages=emu.stats.n_messages,
            n_bytes=emu.stats.n_bytes,
            n_local=emu.stats.n_local,
            n_retries=emu.stats.n_retries,
            retry_wait=emu.stats.retry_wait,
            n_partner_messages=emu.stats.n_partner_messages,
            n_partner_bytes=emu.stats.n_partner_bytes,
        )
    gathered = emu.gather()
    worst = 0.0
    for bid, block in sim.forest.blocks.items():
        worst = max(worst, float(np.abs(gathered[bid] - block.interior).max()))
    cells = emu.rank_cells()
    print(f"cells/rank: min {min(cells)}, max {max(cells)}")
    print(
        f"wire messages: {emu.stats.n_messages}  "
        f"({emu.stats.n_bytes / 1024:.0f} KB);  "
        f"local transfers: {emu.stats.n_local}"
    )
    if emu.stats.n_retries:
        print(
            f"retransmissions: {emu.stats.n_retries}  "
            f"(backoff {emu.stats.retry_wait * 1e3:.2f} ms)"
        )
    if emu.stats.n_partner_bytes:
        from repro.parallel import redundancy_overhead

        print(
            f"partner redundancy: {emu.stats.n_partner_messages} "
            f"snapshot copies ({emu.stats.n_partner_bytes / 1024:.0f} KB, "
            f"{100 * redundancy_overhead(emu.stats):.1f}% of traffic)"
        )
    if args.backend == "process":
        deaths = emu.deaths
        if deaths:
            print(
                "rank deaths: "
                + ", ".join(
                    f"rank {d.rank} at step {d.step} ({d.kind})"
                    for d in deaths
                )
            )
        total = sum(emu.phase_seconds.values())
        if total > 0:
            print(
                f"phase time: exchange {emu.phase_seconds['exchange']:.3f}s, "
                f"compute {emu.phase_seconds['compute']:.3f}s, "
                f"control {emu.phase_seconds['control']:.3f}s "
                f"(exchange fraction "
                f"{emu.phase_seconds['exchange'] / total:.1%})"
            )
    if emu.sanitizer is not None:
        print(
            f"ghost sanitizer: {emu.sanitizer.n_exchanges_checked} "
            f"exchanges verified; race detector: "
            f"{emu.race_detector.epoch} epochs, 0 violations"
        )
    if scrubber is not None:
        print(
            f"scrubber: {scrubber.scrubs} scrubs, "
            f"{scrubber.blocks_verified} block verifications, "
            f"{scrubber.mirrors_verified} mirror verifications, "
            f"{scrubber.mismatches} mismatches"
        )
    if getattr(args, "schedule", None) is not None:
        from repro.core.integrity import content_crc

        digest = 0
        for bid in sorted(gathered):
            digest = (digest * 1000003 + content_crc(gathered[bid])) & 0xFFFFFFFF
        print(f"schedule replay digest: {digest:#010x}")
    hook_note = " (driver hook runs serial-side only)" if problem.hook else ""
    print(f"max |emulated - serial| = {worst:.3e}{hook_note}")
    if problem.hook is None and worst != 0.0:
        print("MISMATCH: emulated run diverged from serial", file=sys.stderr)
        return 1
    print("OK: distributed emulation matches the serial driver" if worst == 0.0
          else "note: differences stem from the serial-only driver hook")
    return 0


def cmd_sanitize(args: argparse.Namespace) -> int:
    """Debug-run one problem under the full correctness tooling."""
    from repro.analysis import ExchangeRaceError, PoisonError
    from repro.parallel import EmulatedMachine

    problem = _make_problem(args.problem, args.ndim)
    print(f"== sanitizing {problem.name} ==")

    # Phase 1: serial driver under the ghost-poison sanitizer.
    with problem.build(adaptive=not args.no_adapt, sanitize=True) as sim:
        dt = 0.5 * sim.stable_dt()
        try:
            for _ in range(args.steps):
                sim.step(dt)
        except PoisonError as exc:
            print(f"FAIL (serial): {exc}", file=sys.stderr)
            return 1
        assert sim.sanitizer is not None
        print(
            f"serial: {args.steps} steps, "
            f"{sim.sanitizer.n_exchanges_checked} exchanges verified, "
            f"{sim.sanitizer.n_cells_poisoned} ghost values poisoned: clean"
        )

    # Phase 2: emulated machine under the sanitizer + race detector.
    forest = problem.config.make_forest(problem.scheme.nvar)
    problem.init_forest(forest)
    emu = EmulatedMachine(
        forest, args.ranks, problem.scheme, bc=problem.bc, sanitize=True
    )
    detector = emu.attach_race_detector()
    try:
        for _ in range(args.steps):
            emu.advance(dt)
    except (PoisonError, ExchangeRaceError) as exc:
        print(f"FAIL (emulated): {exc}", file=sys.stderr)
        return 1
    assert emu.sanitizer is not None
    print(
        f"emulated ({args.ranks} ranks): {args.steps} steps, "
        f"{emu.sanitizer.n_exchanges_checked} exchanges verified, "
        f"{detector.epoch} epochs race-checked: clean"
    )
    print("OK: no unfilled ghost reads, no exchange ordering violations")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import (
        METRICS,
        RunRecorder,
        compare_to_bench,
        read_events,
        render_report,
    )
    from repro.solvers.flops import flops_for_scheme
    from repro.util.timing import wall_clock

    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    bad = [e for e in engines if e not in ("blocked", "batched")]
    if bad or not engines:
        print(
            f"error: --engines must name blocked and/or batched, got "
            f"{args.engines!r}",
            file=sys.stderr,
        )
        return 2
    if args.steps < 1:
        print("error: --steps must be >= 1", file=sys.stderr)
        return 2
    problem = _make_problem(args.problem, args.ndim)
    out = Path(args.out) if args.out else Path(f"profile_{args.problem}.jsonl")
    profiles = []
    with RunRecorder(out) as recorder:
        recorder.emit(
            "meta",
            source="profile",
            problem=args.problem,
            ndim=args.ndim,
            steps=args.steps,
            engines=engines,
            adaptive=not args.no_adapt,
            subcycle=args.subcycle,
        )
        for engine in engines:
            METRICS.reset()
            with METRICS.enabled_scope():
                with problem.build(
                    adaptive=not args.no_adapt,
                    engine=engine,
                    subcycle=args.subcycle,
                ) as sim:
                    sim.recorder = recorder
                    sim.enable_block_profile()
                    t0 = wall_clock()
                    for _ in range(args.steps):
                        sim.step()
                    elapsed = wall_clock() - t0
                    cell_steps = sum(r.n_cells for r in sim.history)
                    kf = flops_for_scheme(problem.scheme)
                    mflops = None
                    if kf is not None and elapsed > 0:
                        mflops = (
                            kf.per_cell_per_step * cell_steps / elapsed / 1e6
                        )
                    blocks = sim.block_profile()
                    blocks.sort(key=lambda b: -b["steps"])
                    profiles.append(recorder.emit(
                        "profile",
                        engine=engine,
                        wall_s=elapsed,
                        us_per_cell=(
                            elapsed / cell_steps * 1e6 if cell_steps else 0.0
                        ),
                        ndim=args.ndim,
                        phases={
                            k: round(v, 6) for k, v in sim.timer.totals.items()
                        },
                        mflops=mflops,
                        counters=METRICS.snapshot(),
                        blocks=blocks[: max(args.top_k, 16)],
                    ))
        if len(profiles) > 1:
            by_engine = {
                p["engine"]: {
                    "wall_s": p["wall_s"], "us_per_cell": p["us_per_cell"]
                }
                for p in profiles
            }
            summary = {"engines": by_engine}
            if "blocked" in by_engine and "batched" in by_engine:
                b = by_engine["batched"]["us_per_cell"]
                if b:
                    summary["speedup"] = (
                        by_engine["blocked"]["us_per_cell"] / b
                    )
            recorder.emit("summary", **summary)
    print(render_report(read_events(out), top_k=args.top_k))
    if args.compare_bench:
        flags = compare_to_bench(profiles)
        if flags:
            for f in flags:
                print(f"bench regression: {f}")
        else:
            print("bench comparison: within the committed trajectory")
    print(f"\nevent stream written to {out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import (
        compare_to_bench,
        read_events,
        render_report,
        validate_events,
    )

    try:
        events = read_events(args.run)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = validate_events(events)
    if problems:
        for p in problems:
            print(f"schema: {p}", file=sys.stderr)
        print(f"error: {args.run} failed schema validation", file=sys.stderr)
        return 1
    print(render_report(events, top_k=args.top_k))
    if args.compare_bench is not None:
        profiles = [e for e in events if e.get("kind") == "profile"]
        flags = compare_to_bench(profiles, name=args.compare_bench)
        if flags:
            for f in flags:
                print(f"bench regression: {f}")
            if args.strict:
                return 1
        else:
            print("bench comparison: within the committed trajectory")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.lint import RULES, lint_paths

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0
    select = None
    if args.select is not None:
        select = frozenset(
            c.strip().upper() for c in args.select.split(",") if c.strip()
        )
        unknown = select - {r.code for r in RULES}
        if unknown:
            print(
                f"error: unknown rule code(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            f"error: no such path(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    violations = lint_paths(args.paths, select=select)
    if args.format == "json":
        import json

        print(json.dumps(
            {
                "violations": [
                    {
                        "path": v.path, "line": v.line, "col": v.col,
                        "code": v.code, "message": v.message,
                    }
                    for v in violations
                ],
                "count": len(violations),
            },
            indent=2, sort_keys=True,
        ))
    elif args.format == "github":
        for v in violations:
            # GitHub workflow-command annotations surface inline on the
            # PR diff; newlines in messages would break the command.
            message = v.message.replace("\n", " ")
            print(
                f"::error file={v.path},line={v.line},col={v.col},"
                f"title={v.code}::{message}"
            )
    else:
        for v in violations:
            print(f"{v.path}:{v.line}:{v.col}: {v.code} {v.message}")
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Static protocol verification (`repro check`).

    Three passes, each independently fatal: (1) AST conformance of the
    wire modules against the declarative protocol spec, (2) the
    REPRO106/107 lint over the effect-annotated packages, (3) a bounded
    explicit-state model check.  Unless skipped, a detection self-test
    then confirms every seeded spec mutation still yields its expected
    counterexample — guarding the checker itself against rot.
    """
    from pathlib import Path

    import repro
    from repro.analysis.lint import lint_paths
    from repro.analysis.modelcheck import (
        EXPECTED_VIOLATION,
        MUTATIONS,
        check_protocol,
    )
    from repro.analysis.protocol import check_conformance

    if not 2 <= args.ranks <= 4:
        print("error: --ranks must be in 2..4 (small-world bound)",
              file=sys.stderr)
        return 2
    if not 1 <= args.steps <= 3:
        print("error: --steps must be in 1..3 (small-world bound)",
              file=sys.stderr)
        return 2
    if not 0 <= args.max_faults <= 3:
        print("error: --max-faults must be in 0..3 (small-world bound)",
              file=sys.stderr)
        return 2
    trace_dir: Optional[Path] = None
    if args.trace_dir is not None:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)

    def _write_trace(cx) -> None:
        if trace_dir is None or cx is None:
            return
        out = trace_dir / (
            f"{cx.kind}.json" if cx.mutation is None
            else f"{cx.mutation}-{cx.kind}.json"
        )
        out.write_text(cx.to_json() + "\n", encoding="utf-8")
        print(f"  counterexample trace written to {out}")

    failures = 0

    # Pass 3 only, when a single mutation self-test was requested.
    if args.mutate is not None:
        res = check_protocol(
            ranks=args.ranks, steps=args.steps, max_faults=args.max_faults,
            scheme=args.scheme, por=not args.no_por, mutation=args.mutate,
        )
        expected = EXPECTED_VIOLATION[args.mutate]
        if res.ok:
            print(
                f"FAIL: mutation '{args.mutate}' explored {res.states} "
                f"states without finding the seeded "
                f"'{expected}' violation"
            )
            return 1
        cx = res.counterexample
        assert cx is not None
        print(
            f"mutation '{args.mutate}': found '{cx.kind}' after "
            f"{res.states} states ({len(cx.actions)}-action schedule)"
        )
        print(f"  {cx.message}")
        _write_trace(cx)
        if cx.kind != expected:
            print(f"FAIL: expected '{expected}', found '{cx.kind}'")
            return 1
        return 0

    # Pass 1: spec <-> code conformance.
    issues = check_conformance()
    if issues:
        failures += len(issues)
        print(f"conformance: {len(issues)} issue(s)")
        for issue in issues:
            print(f"  {issue.module}:{issue.line}: [{issue.kind}] "
                  f"{issue.message}")
    else:
        print("conformance: wire modules match the protocol spec")

    # Pass 2: phase-effect contracts + constructor-site lint.
    pkg = Path(repro.__file__).resolve().parent
    lint_targets = [
        str(pkg / sub) for sub in ("core", "parallel", "resilience")
        if (pkg / sub).is_dir()
    ]
    violations = lint_paths(lint_targets, select={"REPRO106", "REPRO107"})
    if violations:
        failures += len(violations)
        print(f"phase effects: {len(violations)} violation(s)")
        for v in violations:
            print(f"  {v.path}:{v.line}: {v.code} {v.message}")
    else:
        print("phase effects: all annotated functions within contract")

    # Pass 3: bounded model check of the clean spec.
    res = check_protocol(
        ranks=args.ranks, steps=args.steps, max_faults=args.max_faults,
        scheme=args.scheme, por=not args.no_por,
    )
    if res.ok:
        note = " (truncated)" if res.truncated else ""
        print(
            f"model check: {res.states} states, {res.transitions} "
            f"transitions, {res.completed} completed schedule(s), "
            f"no violations{note} "
            f"[ranks={args.ranks} steps={args.steps} "
            f"faults<={args.max_faults} {args.scheme}]"
        )
    else:
        failures += 1
        cx = res.counterexample
        assert cx is not None
        print(f"model check: VIOLATION '{cx.kind}' after {res.states} "
              f"states")
        print(f"  {cx.message}")
        print("  schedule: " + " -> ".join(
            ":".join(str(x) for x in a) for a in cx.actions
        ))
        _write_trace(cx)

    # Detection self-test: every seeded mutation must still be caught.
    if not args.skip_mutations:
        caught = 0
        for name in MUTATIONS:
            mres = check_protocol(
                ranks=args.ranks, steps=args.steps,
                max_faults=max(args.max_faults, 1),
                scheme=args.scheme, por=not args.no_por, mutation=name,
            )
            expected = EXPECTED_VIOLATION[name]
            cx = mres.counterexample
            if cx is not None and cx.kind == expected:
                caught += 1
            else:
                failures += 1
                found = cx.kind if cx is not None else "nothing"
                print(f"  mutation '{name}': expected '{expected}', "
                      f"found {found}")
                _write_trace(cx)
        print(f"mutation self-test: {caught}/{len(MUTATIONS)} seeded "
              "bugs detected")

    if failures:
        print(f"FAIL: {failures} finding(s)", file=sys.stderr)
        return 1
    print("OK: protocol spec, phase effects, and bounded model agree")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "bench": cmd_bench,
        "info": cmd_info,
        "scaling": cmd_scaling,
        "fig5": cmd_fig5,
        "emulate": cmd_emulate,
        "sanitize": cmd_sanitize,
        "lint": cmd_lint,
        "check": cmd_check,
        "profile": cmd_profile,
        "report": cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
