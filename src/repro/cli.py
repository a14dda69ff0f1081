"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Run one of the bundled problems (pulse, blasts, solar wind, comet)
    with live progress and optional checkpointing; ``--sanitize`` runs
    it under the ghost-poison sanitizer.
``info``
    Summarize a checkpoint written by ``run --save`` /
    :func:`repro.amr.save_forest`, or audit a checkpoint directory.
``scaling``
    Simulated-T3D scaled-efficiency sweep (the Figure-6 series).
``emulate``
    Run a problem on the emulated distributed machine and verify the
    result against the serial driver (bit-exact check); ``--sanitize``
    runs the ranks under the ghost-poison sanitizer (see
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
    Validate and render a previously recorded ``*.jsonl`` event stream.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.problems import PROBLEMS

if TYPE_CHECKING:
    from repro.resilience.faults import BitFlip

__all__ = ["main", "build_parser"]


def _int_from(lo: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer ``>= lo``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


_positive = _int_from(1)
_non_negative = _int_from(0)


def _step_pair(text: str) -> Tuple[int, int]:
    """``STEP:N`` -> ``(step, n)``, both non-negative."""
    try:
        step, n = (_non_negative(p) for p in text.split(":"))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"expected STEP:N with STEP, N >= 0, got {text!r}"
        ) from None
    return step, n


def _bit_flip(text: str) -> "BitFlip":
    """``STEP:TARGET[:BLOCK[:BYTE[:BIT]]]`` -> a BitFlip record."""
    from repro.resilience.faults import BitFlip

    parts = text.split(":")
    try:
        if not 2 <= len(parts) <= 5:
            raise ValueError(text)
        step, block, byte, bit = (
            _non_negative(p) for p in [parts[0], *parts[2:], "0", "0", "0"][:4]
        )
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"expected STEP:TARGET[:BLOCK[:BYTE[:BIT]]] with numbers >= 0, "
            f"got {text!r}"
        ) from None
    try:
        return BitFlip(step=step, target=parts[1], block=block, byte=byte, bit=bit)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _engine_list(text: str) -> List[str]:
    """Comma-separated rows-per-kernel-call modes."""
    engines = [e.strip() for e in text.split(",") if e.strip()]
    if not engines or any(e not in ("blocked", "batched") for e in engines):
        raise argparse.ArgumentTypeError(
            f"must name blocked and/or batched, got {text!r}"
        )
    return engines


def _rule_codes(text: str) -> FrozenSet[str]:
    """Comma-separated lint rule codes, each one the catalogue knows."""
    from repro.analysis.lint import RULES

    codes = frozenset(c.strip().upper() for c in text.split(",") if c.strip())
    unknown = codes - {r.code for r in RULES}
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown rule code(s): {', '.join(sorted(unknown))}"
        )
    return codes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive Blocks (Stout et al., SC 1997) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags several verbs share, each defined once.
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("problem", choices=PROBLEMS)
    problem.add_argument("--ndim", type=int, default=2, choices=(1, 2, 3))
    stepping = argparse.ArgumentParser(add_help=False)
    stepping.add_argument("--no-adapt", action="store_true", help="static grid")
    stepping.add_argument("--subcycle", action="store_true",
                          help="level-local time stepping: each refinement "
                               "level advances with its own CFL dt (2^delta "
                               "substeps per coarse step, time-interpolated "
                               "ghosts, time-weighted reflux) instead of one "
                               "global finest-level dt")
    checks = argparse.ArgumentParser(add_help=False)
    checks.add_argument("--sanitize", action="store_true",
                        help="run under the ghost-poison sanitizer (debug; "
                             "raises on any consumed unfilled ghost cell), "
                             "on the serial driver or on every rank")
    checks.add_argument("--scrub-every", type=_positive, metavar="N",
                        default=None,
                        help="verify per-block (and partner-mirror) CRC "
                             "integrity tags every N steps; silent data "
                             "corruption is caught with a per-block "
                             "diagnosis instead of propagating (bit-for-bit "
                             "transparent; emulate defaults to 1 when "
                             "--flip-bits is given, else off)")

    run = sub.add_parser("run", help="run a bundled AMR problem",
                         parents=[problem, stepping, checks])
    run.set_defaults(handler=cmd_run)
    run.add_argument("--steps", type=_non_negative, default=None,
                     help="step count")
    run.add_argument("--t-end", type=float, default=None, help="end time")
    run.add_argument("--reflux", action="store_true",
                     help="enable coarse-fine flux correction")
    run.add_argument("--save", metavar="FILE.npz", default=None,
                     help="write a checkpoint at the end")
    run.add_argument("--report-every", type=_positive, default=10)
    run.add_argument("--checkpoint-every", type=_positive, metavar="N",
                     default=None,
                     help="write a rotating checkpoint every N steps")
    run.add_argument("--checkpoint-dir", default="checkpoints",
                     help="directory for --checkpoint-every files")
    run.add_argument("--checkpoint-keep", type=_positive, default=3,
                     help="rotating checkpoints to retain")
    run.add_argument("--resume", metavar="FILE.npz", default=None,
                     help="restart from a checkpoint instead of t=0")
    run.add_argument("--safe-mode", action="store_true",
                     help="health-check each step; roll back and halve "
                          "dt on NaN/Inf or negative density/pressure")

    info = sub.add_parser("info", help="summarize or audit checkpoints")
    info.set_defaults(handler=cmd_info)
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
    scaling.set_defaults(handler=cmd_scaling)
    scaling.add_argument("--steps", type=_positive, default=10)

    emulate = sub.add_parser(
        "emulate",
        help="distributed-emulation run, verified against serial",
        parents=[problem, checks],
    )
    emulate.set_defaults(handler=cmd_emulate)
    emulate.add_argument("--ranks", type=_positive, default=4)
    emulate.add_argument("--steps", type=_positive, default=5)
    emulate.add_argument("--kill", action="append", default=[],
                         type=_step_pair, metavar="STEP:RANK",
                         help="kill RANK at the start of STEP (repeatable)")
    emulate.add_argument("--drop-message", action="append", default=[],
                         type=_step_pair, metavar="STEP:INDEX",
                         help="drop wire message INDEX during STEP")
    emulate.add_argument("--corrupt-message", action="append", default=[],
                         type=_step_pair, metavar="STEP:INDEX",
                         help="corrupt wire message INDEX during STEP")
    emulate.add_argument("--transient-message", action="append", default=[],
                         type=_step_pair, metavar="STEP:INDEX",
                         help="transiently drop wire message INDEX during "
                              "STEP (retried with backoff, see --retry-max)")
    emulate.add_argument("--flip-bits", action="append", default=[],
                         type=_bit_flip,
                         metavar="STEP:TARGET[:BLOCK[:BYTE[:BIT]]]",
                         help="flip one bit of live state before STEP "
                              "(repeatable); TARGET is interior, ghost, "
                              "mirror, or staging, BLOCK indexes the "
                              "SFC block order (wire-message order for "
                              "staging); detected by the scrubber and "
                              "repaired through the self-healing ladder")
    emulate.add_argument("--refine-levels", type=_non_negative, default=0,
                         metavar="L",
                         help="statically refine L levels around the "
                              "domain center before the run (exercises "
                              "cross-level exchange; staging bitflips "
                              "ride the coarse-to-fine payloads this "
                              "creates)")
    emulate.add_argument("--checkpoint-every", type=_positive, default=1,
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
    emulate.add_argument("--retry-max", type=_non_negative, default=2,
                         metavar="N",
                         help="retransmissions before a transient message "
                              "fault escalates to a failure")
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

    profile = sub.add_parser(
        "profile",
        help="run a problem under the observability layer and report "
             "phase breakdown, hottest blocks, and engine comparison",
        parents=[problem, stepping],
    )
    profile.set_defaults(handler=cmd_profile)
    profile.add_argument("--steps", type=_positive, default=10)
    profile.add_argument("--engines", type=_engine_list,
                         default="blocked,batched",
                         help="comma-separated rows-per-kernel-call "
                              "modes to profile: blocked (one row), "
                              "batched (a tile); default: both")
    profile.add_argument("--out", metavar="FILE.jsonl", default=None,
                         help="event-stream path (default: "
                              "profile_<problem>.jsonl)")
    profile.add_argument("--top-k", type=_non_negative, default=5,
                         help="hottest blocks to show (default 5)")

    report = sub.add_parser(
        "report",
        help="validate and render a recorded run.jsonl event stream",
    )
    report.set_defaults(handler=cmd_report)
    report.add_argument("run", metavar="RUN.jsonl")
    report.add_argument("--top-k", type=_non_negative, default=5)

    lint = sub.add_parser(
        "lint", help="run the AMR-specific AST lint (REPRO101-107)"
    )
    lint.set_defaults(handler=cmd_lint)
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories (default: src/repro)")
    lint.add_argument("--select", type=_rule_codes, default=None,
                      metavar="CODES",
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
    check.set_defaults(handler=cmd_check)
    check.add_argument("--ranks", type=int, default=2, choices=range(2, 5),
                       help="model-check world size (small-world bound, "
                            "default 2)")
    check.add_argument("--steps", type=int, default=1, choices=range(1, 4),
                       help="bounded step count (default 1)")
    check.add_argument("--max-faults", type=int, default=1,
                       choices=range(0, 4),
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


def _check_rules(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """The rules that span flags; a violation is a usage error (exit 2).

    Builds the named problem into ``args.setup`` for the handler.
    """
    if args.command == "run" and args.steps is None and args.t_end is None:
        parser.error("run: give --steps and/or --t-end")
    if args.command == "emulate":
        for _, rank in args.kill:
            if rank >= args.ranks:
                parser.error(
                    f"--kill rank {rank} out of range for {args.ranks} ranks"
                )
        if args.refine_levels < 1 and any(
            f.target == "staging" for f in args.flip_bits
        ):
            parser.error(
                "staging bitflips need --refine-levels >= 1 (staging "
                "buffers only exist for coarse-to-fine exchange)"
            )
    if "problem" in args:
        args.setup = PROBLEMS[args.problem](args.ndim)
        if args.setup.config.ndim != args.ndim:
            parser.error(
                f"{args.problem} is {args.setup.config.ndim}-D only, "
                f"got --ndim {args.ndim}"
            )
        if args.command == "emulate" and args.setup.hook is not None:
            # The hook edits serial state between steps and no machine
            # runs it, so the bit-for-bit check could only fail.
            parser.error(
                f"emulate cannot verify {args.problem}: its step hook "
                "runs on the serial driver only"
            )


def cmd_run(args: argparse.Namespace) -> int:
    from repro.amr import (
        CheckpointError,
        Simulation,
        checkpoint_metadata,
        grid_report,
        load_forest,
        save_forest,
    )
    from repro.resilience import (
        Checkpointer,
        CorruptionError,
        Scrubber,
        UnrecoverableStep,
    )

    problem = args.setup
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
        sim.attach_scrubber(Scrubber(every=args.scrub_every))
    checkpointer = None
    if args.checkpoint_every is not None:
        checkpointer = Checkpointer(args.checkpoint_dir, keep=args.checkpoint_keep)
    target_steps = args.steps if args.steps is not None else 10**9
    t_end = args.t_end if args.t_end is not None else float("inf")
    with sim:
        print(f"== {problem.name} ==")
        print(grid_report(sim.forest))
        print(f"{'step':>6} {'time':>10} {'dt':>10} {'blocks':>7} {'cells':>9}")
        while sim.step_count < target_steps and sim.time < t_end - 1e-14:
            try:
                rec = sim.step(dt_max=t_end - sim.time)
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


def cmd_info(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.amr import (
        CheckpointError,
        checkpoint_metadata,
        grid_report,
        integrate,
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
    print("conserved totals:", "  ".join(f"{v:.6g}" for v in integrate(forest)))
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
        step = min(int(f["step"]), args.steps - 1)
        action = str(f["action"])
        if action in _SCHEDULE_KILL_ACTIONS:
            args.kill.append((step, rank))
            mapped = f"kill rank {rank} at step {step}"
        elif action in _SCHEDULE_MESSAGE_ACTIONS:
            args.transient_message.append((step, rank))
            mapped = f"transiently drop message {rank} of step {step}"
        else:
            print(f"note: fault action {action!r} has no emulator "
                  "equivalent; skipped")
            continue
        print(f"  {action} @ {f['phase']} -> {mapped}")
    return 0


def cmd_emulate(args: argparse.Namespace) -> int:
    """Run the problem on a rank machine and the serial driver side by
    side, then compare the final states bit for bit."""
    import contextlib
    import dataclasses
    import tempfile

    from repro.core.integrity import content_crc
    from repro.obs import RunRecorder
    from repro.parallel import EmulatedMachine, ProcessMachine, redundancy_overhead
    from repro.resilience import (
        Checkpointer,
        CorruptionError,
        FaultPlan,
        MessageFault,
        RankKill,
        RetryPolicy,
        Scrubber,
        run_with_recovery,
    )

    if args.schedule is not None:
        rc = _merge_schedule(args)
        if rc:
            return rc
    if args.flip_bits and args.scrub_every is None:
        # An injected flip without a scrubber is exactly the silent
        # corruption this subsystem exists to prevent; default to the
        # tightest detection window.
        args.scrub_every = 1
    fault_plan = None
    if (args.kill or args.drop_message or args.corrupt_message
            or args.transient_message or args.flip_bits):
        fault_plan = FaultPlan(
            kills=[RankKill(step=s, rank=r) for s, r in args.kill],
            message_faults=(
                [MessageFault(step=s, index=i, mode="drop")
                 for s, i in args.drop_message]
                + [MessageFault(step=s, index=i, mode="corrupt")
                   for s, i in args.corrupt_message]
                + [MessageFault(step=s, index=i, mode="drop", transient=True)
                   for s, i in args.transient_message]
            ),
            bitflips=args.flip_bits,
        )

    problem = args.setup
    # One exit stack closes everything on every path, raises included:
    # the process backend's child processes and /dev/shm segments, the
    # checkpoint directory, the event stream and the serial reference.
    with contextlib.ExitStack() as stack:
        sim = stack.enter_context(problem.build(adaptive=False))
        recorder = None
        if args.record is not None:
            stack.callback(print, f"event stream written to {args.record}")
            recorder = stack.enter_context(RunRecorder(args.record))
        forest_emu = problem.config.make_forest(problem.scheme.nvar)
        for forest in (sim.forest, forest_emu):
            _refine_center(forest, args.refine_levels)
            problem.init_forest(forest)
        emu = (ProcessMachine if args.backend == "process" else EmulatedMachine)(
            forest_emu, args.ranks, problem.scheme, bc=problem.bc,
            fault_plan=fault_plan,
            retry_policy=RetryPolicy(max_retries=args.retry_max),
            sanitize=args.sanitize,
        )
        if isinstance(emu, ProcessMachine):
            stack.enter_context(emu)
            emu.recorder = recorder
        scrubber = None
        if args.scrub_every is not None:
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
        if fault_plan is not None:
            ckpt_dir = args.checkpoint_dir
            if ckpt_dir is None:
                ckpt_dir = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-ckpt-")
                )
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
        stats = emu.stats
        if recorder is not None:
            recorder.emit("exchange", **dataclasses.asdict(stats))
        gathered = emu.gather()
        worst = 0.0
        for bid, block in sim.forest.blocks.items():
            worst = max(worst, float(np.abs(gathered[bid] - block.interior).max()))
        cells = emu.rank_cells()
        print(f"cells/rank: min {min(cells)}, max {max(cells)}")
        print(
            f"wire messages: {stats.n_messages}  "
            f"({stats.n_bytes / 1024:.0f} KB);  "
            f"local transfers: {stats.n_local}"
        )
        if stats.n_retries:
            print(
                f"retransmissions: {stats.n_retries}  "
                f"(backoff {stats.retry_wait * 1e3:.2f} ms)"
            )
        if stats.n_partner_bytes:
            print(
                f"partner redundancy: {stats.n_partner_messages} "
                f"snapshot copies ({stats.n_partner_bytes / 1024:.0f} KB, "
                f"{100 * redundancy_overhead(stats):.1f}% of traffic)"
            )
        if isinstance(emu, ProcessMachine):
            if emu.deaths:
                print(
                    "rank deaths: "
                    + ", ".join(
                        f"rank {d.rank} at step {d.step} ({d.kind})"
                        for d in emu.deaths
                    )
                )
            phase = emu.phase_seconds
            total = sum(phase.values())
            if total > 0:
                print(
                    f"phase time: exchange {phase['exchange']:.3f}s, "
                    f"compute {phase['compute']:.3f}s, "
                    f"control {phase['control']:.3f}s "
                    f"(exchange fraction {phase['exchange'] / total:.1%})"
                )
        if emu.sanitizer is not None:
            print(
                f"ghost sanitizer: {emu.sanitizer.n_exchanges_checked} "
                f"exchanges verified, {emu.sanitizer.n_cells_poisoned} "
                f"ghost values poisoned, 0 violations"
            )
        if scrubber is not None:
            print(
                f"scrubber: {scrubber.scrubs} scrubs, "
                f"{scrubber.blocks_verified} block verifications, "
                f"{scrubber.mirrors_verified} mirror verifications, "
                f"{scrubber.mismatches} mismatches"
            )
        if args.schedule is not None:
            digest = 0
            for bid in sorted(gathered):
                digest = (digest * 1000003 + content_crc(gathered[bid])) & 0xFFFFFFFF
            print(f"schedule replay digest: {digest:#010x}")
        print(f"max |emulated - serial| = {worst:.3e}")
        if worst != 0.0:
            print("MISMATCH: emulated run diverged from serial", file=sys.stderr)
            return 1
        print("OK: distributed emulation matches the serial driver")
        return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import (
        METRICS,
        RunRecorder,
        read_events,
        render_report,
    )
    from repro.solvers.flops import flops_for_scheme
    from repro.util.timing import wall_clock

    problem = args.setup
    out = Path(args.out) if args.out else Path(f"profile_{args.problem}.jsonl")
    profiles = []
    with RunRecorder(out) as recorder:
        recorder.emit(
            "meta",
            source="profile",
            problem=args.problem,
            ndim=args.ndim,
            steps=args.steps,
            engines=args.engines,
            adaptive=not args.no_adapt,
            subcycle=args.subcycle,
        )
        for engine in args.engines:
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
    print(f"\nevent stream written to {out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import read_events, render_report, validate_events

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
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.lint import RULES, lint_paths

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            f"error: no such path(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    violations = lint_paths(args.paths, select=args.select)
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
    """Run one verb and return its exit status: 0 ok, 1 run or
    verification failure, 2 usage error (from argparse or a rule)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_rules(parser, args)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
        return int(exc.code or 0)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
