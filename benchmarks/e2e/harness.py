"""Timing protocol, verification and failure accounting for one workload.

One *repeat* is: build + warm-up step (``setup``), advance to the
workload's end time (``wall``), verify, close.  A run is a calibration,
then K repeats with a calibration after each, then set-up-only cycles
until ``SETUP_SAMPLES`` set-ups are timed; times are reported as
``best over repeats / best calibration * CALIB_REF_S``, the best ``wall``
being stitched from per-step minima and the best calibration from
per-sweep minima (see ``calib.py``).  An *operation* is one step of one
repeat.
"""

from __future__ import annotations

import gc
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.amr.io import load_forest, save_forest
from repro.obs.metrics import METRICS

from calib import (
    Calibrator, Sample, calib_total, calibrated, pooled_min, range_over_median,
    stitched_calib, stitched_min,
)
from layers import PER_LAYER, drift_problems, layer_metrics, ratio
from spans import SpanRecorder, write_chrome_trace
from workloads import Workload, state_crc, sweep_own_segments

__all__ = [
    "Repeat", "run_repeat", "measure", "trace", "Measurement", "peak_rss_mb",
    "warn_if_oversubscribed", "stop_children",
]

#: Never fewer repeats than this, however slow the host.
MIN_REPEATS = 3
#: More repeats than this add time without steadying the minimum.
MAX_REPEATS = 8
#: Set-ups timed per run: those of the repeats, then set-up-only cycles.
#: A set-up is one timed region of up to a second, so its minimum needs
#: more samples than the K repeats give to meet an undisturbed one.
SETUP_SAMPLES = 12
#: ... for at most this many seconds of set-up-only cycles.
SETUP_EXTRA_S = 4.0


@dataclass
class Repeat:
    """Outcome of one repeat."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    #: seconds of each step of the timed region (they sum to ``wall_s``)
    step_s: List[float] = field(default_factory=list)
    #: operations attempted / failed (one operation = one step)
    attempted: int = 0
    failed: int = 0
    crc: Optional[int] = None
    l1_error: Optional[float] = None
    problems: List[str] = field(default_factory=list)
    #: the closed case, kept only when asked (its counters feed layers.py)
    case: Any = None
    interiors: Optional[List[np.ndarray]] = None


def run_repeat(
    workload: Workload,
    seed: int,
    *,
    variant: Optional[str] = None,
    recorder: Optional[SpanRecorder] = None,
    keep_case: bool = False,
    keep_interiors: bool = False,
    after_setup: Optional[Callable[[Any], None]] = None,
) -> Repeat:
    """Run one repeat; never raises for a failure of the program under
    test — the failure is counted and described in the result."""
    rep = Repeat()
    clock = time.perf_counter
    t0 = clock()
    try:
        case = workload.setup(seed, variant)
    except Exception as exc:  # boundary: the benchmark must report, not die
        rep.attempted = rep.failed = workload.nominal_steps
        rep.problems.append(f"setup raised {type(exc).__name__}: {exc}")
        sweep_own_segments()
        return rep
    rep.setup_s = clock() - t0
    try:
        if after_setup is not None:
            after_setup(case)
        if recorder is not None:
            case.instrument(recorder)
        marks = [clock()]
        try:
            for _ in case.advance():
                marks.append(clock())
        except Exception as exc:  # boundary, as above
            rep.problems.append(
                f"step {len(marks)} raised {type(exc).__name__}: {exc}"
            )
        rep.wall_s = clock() - marks[0]
        rep.step_s = [b - a for a, b in zip(marks, marks[1:])]
        steps = len(rep.step_s)
        if recorder is not None:
            recorder.unwrap_all()
        if rep.problems:
            # The failing step and every step the repeat never reached.
            rep.attempted = max(workload.nominal_steps, steps + 1)
            rep.failed = rep.attempted - steps
        else:
            rep.attempted = steps
            _verify(workload, case, rep, keep_interiors)
            if rep.problems:
                rep.failed = steps  # every step led to a wrong answer
    finally:
        try:
            case.close()
        except Exception as exc:  # boundary: teardown must not mask the result
            rep.problems.append(f"close raised {type(exc).__name__}: {exc}")
            rep.failed = max(rep.failed, 1)
        leaked = sweep_own_segments()
        if leaked:
            rep.problems.append(f"leaked shared segments: {leaked}")
            rep.failed = max(rep.failed, 1)
    if keep_case:
        rep.case = case
    del case
    gc.collect()  # every repeat starts from the same heap
    return rep


def time_setup(workload: Workload, seed: int) -> float:
    """One set-up-only cycle: build, warm up, close; seconds of set-up."""
    t0 = time.perf_counter()
    case = workload.setup(seed, None)
    elapsed = time.perf_counter() - t0
    case.close()
    del case
    gc.collect()
    return elapsed


def _verify(workload: Workload, case: Any, rep: Repeat, keep_interiors: bool) -> None:
    interiors = case.interiors()
    if not all(np.isfinite(a).all() for a in interiors):
        rep.problems.append("non-finite state")
        return
    rep.crc = state_crc(interiors)
    rep.l1_error = case.l1_error()
    if not rep.l1_error <= workload.l1_ceiling:
        rep.problems.append(
            f"l1_error {rep.l1_error:.6e} above ceiling {workload.l1_ceiling:.1e}"
        )
    rep.problems.extend(case.verify())
    if keep_interiors:
        rep.interiors = [a.copy() for a in interiors]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


@dataclass
class Measurement:
    """All repeats of one run, with their calibrations."""

    workload: Workload
    repeats: List[Repeat]
    calibs: List[Sample]
    peak_rss_mb: float
    problems: List[str]
    #: seconds of the set-up-only cycles
    extra_setups: List[float] = field(default_factory=list)
    #: the reference-variant repeat the first repeat was compared with
    reference: Optional[Repeat] = None

    @property
    def attempted(self) -> int:
        return max(1, sum(r.attempted for r in self.repeats))

    @property
    def failed(self) -> int:
        failed = sum(r.failed for r in self.repeats)
        # A problem no single repeat owns (repeats disagree, reference
        # differs, span drift) condemns every operation of the run.
        return failed if failed or not self.problems else self.attempted

    @property
    def good(self) -> List[Repeat]:
        return [r for r in self.repeats if not r.problems]

    def _best_wall(self, repeats: List[Repeat]) -> float:
        best = pooled_min if self.workload.uniform_steps else stitched_min
        return best([r.step_s for r in repeats])

    def _best_setup(self, repeats: List[Repeat]) -> float:
        return min([r.setup_s for r in repeats] + self.extra_setups)

    def end_to_end(self) -> Dict[str, float]:
        good = self.good
        return {
            "setup_s": calibrated(self._best_setup(good), self.calibs),
            "wall_s": calibrated(self._best_wall(good), self.calibs),
            "peak_rss_mb": self.peak_rss_mb,
            "l1_error": float(good[0].l1_error),
        }

    def host(self) -> Dict[str, float]:
        """Raw seconds and spreads: they explain a noisy run."""
        good = self.good or self.repeats
        walls = [r.wall_s for r in good]
        return {
            "host.calib_s": stitched_calib(self.calibs),
            "host.calib_spread": range_over_median(
                [calib_total(c) for c in self.calibs]
            ),
            "host.raw_wall_min_s": min(walls),
            "host.raw_wall_median_s": statistics.median(walls),
            "host.raw_wall_stitched_s": self._best_wall(good),
            "host.raw_setup_min_s": self._best_setup(good),
            "host.repeat_spread": range_over_median(walls),
            "host.nproc": float(os.cpu_count() or 1),
        }


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    min_repeats: int = MIN_REPEATS,
    max_repeats: int = MAX_REPEATS,
    setup_samples: int = SETUP_SAMPLES,
    calibrator: Optional[Calibrator] = None,
) -> Measurement:
    """Calibrate, then repeat until ``seconds`` of timed work are spent
    (between ``min_repeats`` and ``max_repeats``), calibrating after
    every repeat; time set-up alone until ``setup_samples`` set-ups are
    timed; cross-check the repeats."""
    calibrator = calibrator or Calibrator()
    calibrator()  # first touch of the calibration arrays is not a timing
    calibs = [calibrator()]
    repeats: List[Repeat] = []
    spent = 0.0
    keep = workload.reference is not None  # compared array by array below
    while len(repeats) < min_repeats or (
        len(repeats) < max_repeats and spent * (1 + 0.5 / len(repeats)) < seconds
    ):
        rep = run_repeat(workload, seed, keep_interiors=keep and not repeats)
        repeats.append(rep)
        calibs.append(calibrator())
        spent += rep.setup_s + rep.wall_s
        if rep.problems:
            break  # a failure that repeats would only burn the time cap
    rss = peak_rss_mb()
    problems = [p for r in repeats for p in r.problems]
    extra_setups: List[float] = []
    try:
        while (
            not problems
            and len(repeats) + len(extra_setups) < setup_samples
            and sum(extra_setups) < SETUP_EXTRA_S
        ):
            extra_setups.append(time_setup(workload, seed))
    except Exception as exc:  # boundary: the benchmark must report, not die
        problems.append(f"set-up-only cycle raised {type(exc).__name__}: {exc}")
    finally:
        sweep_own_segments()
    crcs = {r.crc for r in repeats if r.crc is not None}
    if len(crcs) > 1:
        problems.append(
            f"final state differs between repeats: CRCs {sorted(crcs)}"
        )
    reference = None
    if workload.reference is not None and repeats[0].interiors is not None:
        reference = run_repeat(
            workload, seed, variant=workload.reference,
            keep_interiors=True, keep_case=True,
        )
        problems.extend(f"reference run: {p}" for p in reference.problems)
        if reference.interiors is not None and not all(
            np.array_equal(a, b)
            for a, b in zip(repeats[0].interiors, reference.interiors, strict=True)
        ):
            problems.append(
                f"state is not bit-identical to the {workload.reference} driver"
            )
    return Measurement(
        workload, repeats, calibs, rss, problems, extra_setups, reference
    )


def trace(workload: Workload, seed: int, out_dir: Path) -> "tuple[Measurement, Dict[str, float]]":
    """The traced pass: two untraced repeats for the baseline, one
    repeat under spans + ``METRICS``, the workload's companion variant,
    and (on an adapting forest) one checkpoint round trip.

    Returns the untraced measurement, with every problem found appended
    to its ``problems``, and the per-layer metrics (all 0 when the
    traced repeat failed).  Writes ``out_dir/trace-<workload>.json``.
    """
    base = measure(workload, seed, 0.0, min_repeats=2, max_repeats=2, setup_samples=0)
    zeros = {name: 0.0 for name in PER_LAYER}
    if base.problems:
        return base, zeros

    recorder = SpanRecorder()
    setup_counters: Dict[str, int] = {}
    kernels0: Dict[str, Any] = {}

    def after_setup(case: Any) -> None:
        setup_counters.update(METRICS.counters)
        kernels0.update(case.scheme.kernels.stats())

    METRICS.reset()
    with METRICS.enabled_scope():
        traced = run_repeat(
            workload, seed, recorder=recorder, keep_case=True, after_setup=after_setup
        )
    recorder.unwrap_all()  # a repeat that died in set-up or mid-step
    spans = recorder.spans
    write_chrome_trace(
        spans, out_dir / f"trace-{workload.name}.json", process=workload.name
    )
    extra = base.host()  # before the traced repeat joins the list
    untraced_wall = min(r.wall_s for r in base.repeats)
    base.repeats.append(traced)  # its operations count as attempted too
    base.problems.extend(f"traced run: {p}" for p in traced.problems)
    if traced.problems:
        return base, zeros
    if traced.crc != base.repeats[0].crc:
        base.problems.append("traced final state differs from the untraced one")
    base.problems.extend(
        f"span drift: {p}"
        for p in drift_problems(
            workload.expected_spans, workload.max_unattributed, spans, traced.wall_s
        )
    )

    case = traced.case
    counters = {
        k: v - setup_counters.get(k, 0) for k, v in METRICS.counters.items()
    }
    kernels1 = case.scheme.kernels.stats()
    kernels = {k: kernels1[k] - kernels0[k] for k in ("dispatches", "fallbacks")}
    extra["trace.overhead_ratio"] = traced.wall_s / untraced_wall

    variant, metric = workload.companion
    companion = (
        base.reference
        if variant == workload.reference
        else run_repeat(workload, seed, variant=variant, keep_case=True)
    )
    assert companion is not None
    base.problems.extend(f"{variant} run: {p}" for p in companion.problems)
    if not companion.problems:
        extra[metric] = companion.wall_s / untraced_wall
        if metric.startswith("amr.subcycle."):
            extra["amr.subcycle.update_factor"] = ratio(
                companion.case.block_updates, case.block_updates
            )
    sim = getattr(case, "sim", None)
    if sim is not None and sim.criterion is not None:
        try:
            extra.update(_checkpoint_round_trip(sim.forest, out_dir))
        except Exception as exc:  # boundary: report, like any failed operation
            base.problems.append(
                f"checkpoint round trip raised {type(exc).__name__}: {exc}"
            )
    return base, layer_metrics(
        case, spans, traced.wall_s, counters, setup_counters, kernels, extra
    )


def _checkpoint_round_trip(forest: Any, out_dir: Path) -> Dict[str, float]:
    """Time ``save_forest`` / ``load_forest`` of one forest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"checkpoint-{os.getpid()}.npz"
    clock = time.perf_counter
    try:
        t0 = clock()
        save_forest(forest, path)
        write_s = clock() - t0
        n_bytes = path.stat().st_size
        t0 = clock()
        loaded = load_forest(path)
        read_s = clock() - t0
    finally:
        path.unlink(missing_ok=True)
    if loaded.n_blocks != forest.n_blocks:
        raise RuntimeError("checkpoint round trip changed the block count")
    return {
        "amr.io.checkpoint_write_s": write_s,
        "amr.io.checkpoint_read_s": read_s,
        "amr.io.checkpoint_bytes": float(n_bytes),
    }


def _child_pids() -> List[int]:
    """Every process whose parent is this one, zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid ...; comm may itself hold ") "
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we were listing
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> List[int]:
    """Stop every process this one started and wait until each has ended.

    ``ProcessMachine.close`` reaps the ranks, but ``SharedMemory`` also
    starts multiprocessing's resource tracker, which ends only once its
    parent has closed their pipe — normally at interpreter exit, so it
    *outlives* the benchmark.  Close that pipe now and reap the tracker;
    then kill and reap whatever child is left (the backstop for an exit
    path that never reached ``close``).  Call it last: a later
    ``SharedMemory`` would start a new tracker.  Returns the pids that
    had to be killed.
    """
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, RuntimeError):
            pass  # the sweep below ends it instead
    killed = []
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            continue  # ended, or somebody already waited for it
        if os.WIFSIGNALED(status):  # a zombie reports its own exit instead
            killed.append(pid)
    return killed


def warn_if_oversubscribed(workload: Workload) -> None:
    nproc = os.cpu_count() or 1
    if nproc < workload.n_ranks:
        print(
            f"warning: {workload.name} runs {workload.n_ranks} ranks on "
            f"nproc={nproc}; ranks will time-share and wall_s will not compare "
            "with the committed bounds",
            file=sys.stderr,
        )
