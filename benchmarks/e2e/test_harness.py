"""Tests of the benchmark harness itself.

Run explicitly (not part of tier-1, which collects ``tests/`` only):

    python3 -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _p in (str(ROOT / "src"), str(HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import harness  # noqa: E402
import run as run_cli  # noqa: E402
from calib import (  # noqa: E402
    CALIB_REF_S, Calibrator, calib_total, calibrated, pooled_min, range_over_median,
    stitched_calib, stitched_min,
)
from layers import END_TO_END, PER_LAYER, drift_problems  # noqa: E402
from spans import Span, SpanRecorder, call_counts, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, state_crc  # noqa: E402

from repro.parallel.shared_arena import leaked_segments  # noqa: E402


# ----------------------------------------------------------------------
# estimator
# ----------------------------------------------------------------------


def _scaled(samples, factor):
    return [([t * factor for t in big], [t * factor for t in small]) for big, small in samples]


def test_uniformly_slower_host_leaves_the_estimate_unchanged():
    # two calibrations of (2 big sweeps, 3 small sweeps); each was hit once
    calib = [([0.10, 0.30], [0.02, 0.02, 0.02]), ([0.12, 0.10], [0.02, 0.05, 0.02])]
    assert stitched_calib(calib) == pytest.approx((0.20 * 0.06) ** 0.5)
    assert min(calib_total(c) for c in calib) > stitched_calib(calib)  # whole-sample min is spoiled
    base = calibrated(2.05, calib)
    assert base == pytest.approx(2.05 / stitched_calib(calib) * CALIB_REF_S)
    for factor in (0.7, 1.5):
        assert calibrated(2.05 * factor, _scaled(calib, factor)) == pytest.approx(base, rel=1e-12)


def test_one_slow_outlier_does_not_move_the_minimum():
    calib = [([0.1, 0.1], [0.02, 0.02])] * 3
    assert stitched_calib(calib + _scaled(calib[:1], 4.5)) == stitched_calib(calib)
    steps = [[0.5, 0.1, 0.4], [0.5, 0.1, 0.4]]
    assert stitched_min(steps + [[9.0, 9.0, 9.0]]) == stitched_min(steps)
    assert pooled_min(steps + [[9.0, 9.0, 9.0]]) == pooled_min(steps)


def test_pooled_minimum_needs_one_undisturbed_step_only():
    # four steps of one 0.1 s operation; every step index is hit in both repeats but one
    repeats = [[0.3, 0.2, 0.1, 0.4], [0.2, 0.3, 0.2, 0.3]]
    assert pooled_min(repeats) == pytest.approx(4 * 0.1)
    assert stitched_min(repeats) == pytest.approx(0.2 + 0.2 + 0.1 + 0.3)


def test_calibrator_times_every_sweep_of_both_kernels():
    big, small = Calibrator()()
    assert len(big) > 10 and len(small) > 10 and min(big + small) > 0.0
    assert calib_total((big, small)) == pytest.approx((sum(big) * sum(small)) ** 0.5)


def test_stitched_minimum_ignores_disturbances_that_hit_different_steps():
    clean = [0.5, 0.1, 0.4]
    hit_step_0 = [0.9, 0.1, 0.4]
    hit_step_2 = [0.5, 0.1, 1.4]
    assert stitched_min([hit_step_0, hit_step_2]) == pytest.approx(sum(clean))
    assert min(sum(hit_step_0), sum(hit_step_2)) > sum(clean)  # whole-repeat min is spoiled
    assert stitched_min([[2 * t for t in r] for r in (hit_step_0, hit_step_2)]) == (
        pytest.approx(2 * sum(clean))
    )
    # repeats that disagree on the step count: fastest whole repeat
    assert stitched_min([[1.0, 1.0], [0.5, 0.5, 0.5]]) == pytest.approx(1.5)


def test_estimator_rejects_empty_input():
    with pytest.raises(ValueError):
        stitched_min([])
    with pytest.raises(ValueError):
        stitched_calib([])
    with pytest.raises(ValueError):
        pooled_min([[]])
    assert range_over_median([1.0]) == 0.0
    assert range_over_median([1.0, 2.0, 3.0]) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


def test_self_time_nested_adjacent_and_fully_covering():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),     # nested, with its own child
        Span("leaf", 2.0, 3.0, 1),
        Span("a", 4.0, 6.0, 0),     # adjacent to the first "a"
        Span("cover", 20.0, 25.0, None),
        Span("all", 20.0, 25.0, 4),  # child covers its parent fully
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own["a"] == pytest.approx((3.0 - 1.0) + 2.0)
    assert own["leaf"] == pytest.approx(1.0)
    assert own["cover"] == pytest.approx(0.0)
    assert own["all"] == pytest.approx(5.0)
    assert sum(own.values()) == pytest.approx(10.0 + 5.0)  # nothing counted twice
    assert call_counts(spans) == {"root": 1, "a": 2, "leaf": 1, "cover": 1, "all": 1}


def test_recorder_wraps_instances_and_classes_and_restores_them():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))

    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    seen = []
    obj = Layer()
    rec.wrap(obj, "outer", "layer.outer")
    rec.wrap(Layer, "inner", "layer.inner", lambda result, *a: seen.append(result))
    assert obj.outer() == 2
    assert [s.name for s in rec.spans] == ["layer.outer", "layer.inner", "layer.inner"]
    assert [s.parent for s in rec.spans] == [None, 0, 0]
    assert seen == [1, 1]
    own = self_times(rec.spans)
    assert own["layer.outer"] == pytest.approx(5.0 - 2.0)  # ticks 0..5, two unit children
    rec.unwrap_all()
    assert "outer" not in vars(obj) and Layer.inner.__name__ == "inner"
    assert obj.outer() == 2 and len(rec.spans) == 3


def test_recorder_closes_the_span_when_the_call_raises():
    rec = SpanRecorder()

    class Boom:
        def go(self):
            raise KeyError("x")

    obj = Boom()
    rec.wrap(obj, "go", "boom")
    with pytest.raises(KeyError):
        obj.go()
    assert rec.spans[0].end >= rec.spans[0].start > 0.0
    assert rec._open == []


def test_drift_guard_flags_a_missing_span_and_unattributed_time():
    spans = [Span("amr.step", 0.0, 10.0, None), Span("solvers.step", 0.0, 6.0, 0)]
    assert drift_problems(("amr.step", "solvers.step"), 0.5, spans, 10.0) == []
    problems = drift_problems(("amr.step", "core.ghost.fill"), 0.3, spans, 10.0)
    assert any("core.ghost.fill" in p for p in problems)
    assert any("unattributed" in p for p in problems)


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------


class _FakeCase:
    def __init__(self, steps, fail_at=None, verify_problems=()):
        self.steps, self.fail_at, self.problems = steps, fail_at, list(verify_problems)
        self.closed = False

    def advance(self):
        for i in range(self.steps):
            if i == self.fail_at:
                raise FloatingPointError("blew up")
            yield

    def interiors(self):
        import numpy as np
        return [np.ones(4)]

    def l1_error(self):
        return 0.5

    def verify(self):
        return self.problems

    def close(self):
        self.closed = True


def _fake_workload(case):
    return Workload(
        "fake", "test double", lambda seed, variant: case, nominal_steps=10,
        l1_ceiling=1.0, companion=("x", "y"), expected_spans=(),
    )


def test_repeat_that_raises_mid_run_counts_the_remaining_steps_as_failed():
    case = _FakeCase(steps=10, fail_at=2)
    rep = harness.run_repeat(_fake_workload(case), 0)
    assert (rep.attempted, rep.failed) == (10, 8)  # 2 done; step 3 and 7 unreached
    assert "step 3 raised FloatingPointError" in rep.problems[0]
    assert case.closed and rep.crc is None


def test_failed_verification_fails_every_step_of_the_repeat():
    rep = harness.run_repeat(_fake_workload(_FakeCase(6, verify_problems=["bad"])), 0)
    assert (rep.attempted, rep.failed, rep.problems) == (6, 6, ["bad"])
    good = harness.run_repeat(_fake_workload(_FakeCase(6)), 0)
    assert (good.attempted, good.failed, good.problems) == (6, 0, [])


def test_failing_setup_is_counted_not_raised():
    def setup(seed, variant):
        raise RuntimeError("no forest")

    workload = Workload("fake", "test double", setup, 7, 1.0, ("x", "y"), ())
    rep = harness.run_repeat(workload, 0)
    assert (rep.attempted, rep.failed) == (7, 7) and "no forest" in rep.problems[0]


def test_measure_stops_at_the_first_failed_repeat_and_reports_it():
    class Calib:
        def __call__(self):
            return [0.1], [0.4]

    case = _FakeCase(steps=10, fail_at=5)
    result = harness.measure(_fake_workload(case), 0, 60.0, calibrator=Calib())
    assert len(result.repeats) == 1 and result.good == []
    assert (result.attempted, result.failed) == (10, 5)


def test_measure_times_set_up_alone_until_it_has_enough_samples():
    class Calib:
        def __call__(self):
            return [0.1], [0.4]

    result = harness.measure(
        _fake_workload(_FakeCase(steps=4)), 0, 0.0, max_repeats=3, calibrator=Calib()
    )
    assert len(result.repeats) == 3 and not result.problems
    assert len(result.extra_setups) == harness.SETUP_SAMPLES - 3
    values = result.end_to_end()
    assert values["setup_s"] == pytest.approx(
        min([r.setup_s for r in result.repeats] + result.extra_setups) / 0.2 * CALIB_REF_S
    )
    assert (result.attempted, result.failed) == (12, 0)  # set-up-only cycles run no step


def test_rank_death_is_failed_operations_not_a_hang_or_a_leak():
    base = WORKLOADS["proc_pulse2d_r2"]

    def setup(seed, variant):
        case = base.setup(seed, variant)
        healthy = case.advance

        def advance():
            for i, _ in enumerate(healthy()):
                if i == 2:
                    multiprocessing.active_children()[0].kill()
                yield

        case.advance = advance
        return case

    doomed = Workload(
        base.name, base.why, setup, base.nominal_steps, base.l1_ceiling,
        base.companion, base.expected_spans, n_ranks=2,
    )
    rep = harness.run_repeat(doomed, 0)
    assert rep.problems and rep.failed == rep.attempted - 3 > 0
    assert multiprocessing.active_children() == []
    assert leaked_segments() == []


def test_stop_children_reaps_the_resource_tracker_and_kills_stragglers():
    shm = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
    shm.close()
    shm.unlink()
    straggler = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert len(harness._child_pids()) == 2
    assert harness.stop_children() == [straggler.pid]
    assert harness._child_pids() == []


def test_no_process_outlives_a_run_of_the_process_workload():
    # Own session, so whatever the run started is in its process group.
    run = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "proc_pulse2d_r2",
         "--seconds", "0"],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    stdout, _ = run.communicate(timeout=run_cli.CHILD_TIMEOUT_S)
    assert run.returncode == 0 and json.loads(stdout.splitlines()[-1])["correct"]
    with pytest.raises(ProcessLookupError):
        os.killpg(run.pid, 0)


# ----------------------------------------------------------------------
# seeds and the committed contract
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reproducibility(name):
    def crc(seed):
        case = WORKLOADS[name].setup(seed, None)
        try:
            return state_crc(case.interiors())
        finally:
            case.close()

    assert crc(3) == crc(3)
    assert crc(3) != crc(4)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["run_seconds"] == run_cli.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
