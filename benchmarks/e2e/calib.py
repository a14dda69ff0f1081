"""Host-speed calibration and the min-of-K estimators.

A shared host's speed drifts between sessions (the 2-vCPU host the
bounds were measured on moved by up to 1.5x), so raw seconds from two
runs of the *same* tree do not agree to 10 %.  Every timed repeat is
therefore bracketed by a calibration: two fixed numpy kernels that do
no work from this repository, one bound by array traffic like the tiled
solver kernels and one bound by dispatch like the ghost and driver
loops.  Reported times are ``best(raw) / best(calib) * CALIB_REF_S`` —
seconds at the speed of the reference host.  ``best`` is a minimum
taken piece by piece, because noise only ever adds time and a
disturbance rarely hits the same piece twice: step by step over the K
repeats for ``wall_s``, sweep by sweep over the K + 1 calibrations.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "CALIB_REF_S", "Calibrator", "Sample", "calib_total", "stitched_calib",
    "calibrated", "stitched_min", "pooled_min", "range_over_median",
]

#: Stitched calibration time on the host where the bounds in
#: ``BENCHMARK.json`` were measured.  Frozen: changing it rescales every
#: reported time, so it changes only together with a re-measured baseline.
CALIB_REF_S = 0.1765

_BIG_SHAPE = (48, 8, 12, 12, 12)
_BIG_SWEEPS = 56
_SMALL_SHAPE = (8, 12, 12)
_SMALL_COUNT = 64
_SMALL_SWEEPS = 540

#: One calibration: seconds of each sweep of the big and of the small kernel.
Sample = Tuple[List[float], List[float]]


class Calibrator:
    """Owns the calibration arrays; calling it times one calibration."""

    def __init__(self) -> None:
        n = math.prod(_BIG_SHAPE)
        self._big = np.linspace(0.0, 1.0, n).reshape(_BIG_SHAPE)
        self._scratch = np.empty_like(self._big[..., 1:-1])
        self._small = [
            np.full(_SMALL_SHAPE, 1.0 + 0.01 * i) for i in range(_SMALL_COUNT)
        ]

    def big(self) -> List[float]:
        """In-place three-point smoothing over a 5 MB array: bound by
        array traffic, one numpy call per 2-5 MB like a kernel tile."""
        big, scratch = self._big, self._scratch
        inner, lo, hi = big[..., 1:-1], big[..., :-2], big[..., 2:]
        clock = time.perf_counter
        marks = [clock()]
        for _ in range(_BIG_SWEEPS):
            np.add(lo, hi, out=scratch)
            scratch *= 0.25
            inner *= 0.5
            inner += scratch
            marks.append(clock())
        return [b - a for a, b in zip(marks, marks[1:])]

    def small(self) -> List[float]:
        """Slice, allocate and reduce many block-sized arrays: bound by
        interpreter and numpy dispatch like the ghost and driver loops."""
        acc = 0.0
        clock = time.perf_counter
        marks = [clock()]
        for _ in range(_SMALL_SWEEPS):
            for a in self._small:
                b = a[:, 2:-2, 2:-2] * 0.5
                b += a[:, 1:-3, 2:-2]
                acc += float(b.sum())
            marks.append(clock())
        if not math.isfinite(acc):
            raise ArithmeticError("calibration kernel produced a non-finite sum")
        return [b - a for a, b in zip(marks, marks[1:])]

    def __call__(self) -> Sample:
        return self.big(), self.small()


def calib_total(sample: Sample) -> float:
    """One calibration as it ran: ``sqrt(big * small)`` seconds."""
    big, small = sample
    return math.sqrt(sum(big) * sum(small))


def stitched_calib(samples: Sequence[Sample]) -> float:
    """The undisturbed calibration: each kernel stitched from the fastest
    time any of the calibrations took for each of its sweeps."""
    if not samples:
        raise ValueError("need at least one calibration")
    return math.sqrt(
        stitched_min([big for big, _ in samples])
        * stitched_min([small for _, small in samples])
    )


def calibrated(
    best_raw: float, samples: Sequence[Sample], ref: float = CALIB_REF_S
) -> float:
    """``best_raw / stitched_calib * ref``: both are the best estimate of
    an undisturbed cost, and their ratio cancels a host that is uniformly
    slower or faster."""
    return best_raw / stitched_calib(samples) * ref


def stitched_min(step_times: Sequence[Sequence[float]]) -> float:
    """Sum over steps of the fastest time any repeat took for that step.

    The repeats run the same steps on the same input, so step ``j`` costs
    the same in each; a disturbance that hits step 3 of one repeat and
    step 7 of another spoils both whole-repeat times but neither
    per-step minimum.  Falls back to the fastest whole repeat when the
    repeats disagree on the number of steps.
    """
    if not step_times:
        raise ValueError("need at least one repeat")
    if len({len(steps) for steps in step_times}) != 1:
        return min(sum(steps) for steps in step_times)
    return sum(min(column) for column in zip(*step_times))


def pooled_min(step_times: Sequence[Sequence[float]]) -> float:
    """Steps of a repeat times the fastest step of any repeat: for a
    workload whose steps are all the *same* operation, so that every step
    time of every repeat samples one cost.  ``stitched_min`` needs each
    step to run undisturbed once; this needs one undisturbed step."""
    if not step_times or not all(step_times):
        raise ValueError("need at least one repeat with at least one step")
    return min(len(steps) for steps in step_times) * min(
        t for steps in step_times for t in steps
    )


def range_over_median(values: Sequence[float]) -> float:
    """(max - min) / median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    return (max(values) - min(values)) / statistics.median(values)
