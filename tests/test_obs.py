"""Tests for the observability layer (repro.obs).

Covers the metrics registry, the JSONL event recorder and its schema
validator, report rendering, and the load-bearing contract of the whole
subsystem: an instrumented run is bit-for-bit identical to an
uninstrumented one on both engines.
"""

import io
import json

import numpy as np
import pytest

from repro.amr import advecting_pulse
from repro.core import BlockForest
from repro.obs import (
    EVENT_SCHEMA,
    METRICS,
    MetricsRegistry,
    RunRecorder,
    SCHEMA_VERSION,
    Summary,
    engine_comparison,
    phase_breakdown,
    read_events,
    render_report,
    top_blocks_lines,
    validate_events,
)
from repro.util.geometry import Box


@pytest.fixture(autouse=True)
def clean_global_registry():
    """Tests toggle the process-global METRICS; always restore it."""
    yield
    METRICS.disable()
    METRICS.reset()


def scripted_clock(*times):
    """A clock callable yielding the given instants in order."""
    it = iter(times)
    return lambda: next(it)


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestSummary:
    def test_running_stats(self):
        s = Summary()
        for v in (2.0, -1.0, 5.0):
            s.add(v)
        assert s.count == 3
        assert s.total == pytest.approx(6.0)
        assert s.mean == pytest.approx(2.0)
        assert s.vmin == -1.0
        assert s.vmax == 5.0

    def test_empty_as_dict_has_finite_bounds(self):
        d = Summary().as_dict()
        assert d["count"] == 0
        assert d["min"] == 0.0 and d["max"] == 0.0
        assert d["mean"] == 0.0


class TestMetricsRegistry:
    def test_disabled_mutators_record_nothing(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.gauge("b", 1.0)
        reg.observe("c", 2.0)
        assert not reg.counters and not reg.gauges and not reg.summaries

    def test_enabled_mutators(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("hits")
        reg.inc("hits", 4)
        reg.gauge("cap", 32)
        reg.gauge("cap", 64)
        reg.observe("dt", 0.1)
        reg.observe("dt", 0.3)
        assert reg.counters["hits"] == 5
        assert reg.gauges["cap"] == 64.0
        assert reg.summaries["dt"].mean == pytest.approx(0.2)

    def test_reset_keeps_enabled_flag(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("x")
        reg.reset()
        assert reg.enabled
        assert not reg.counters

    def test_enabled_scope_restores_state(self):
        reg = MetricsRegistry()
        with reg.enabled_scope():
            reg.inc("inside")
        reg.inc("outside")
        assert reg.counters == {"inside": 1}
        assert not reg.enabled

    def test_enabled_scope_restores_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.enabled_scope():
                raise RuntimeError("boom")
        assert not reg.enabled

    def test_snapshot_is_json_ready_copy(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("n")
        reg.observe("v", 1.5)
        snap = reg.snapshot()
        json.dumps(snap)  # must serialize
        reg.inc("n")
        assert snap["counters"]["n"] == 1  # copy, not a view
        assert snap["summaries"]["v"]["count"] == 1


class TestHotPathInstrumentation:
    def test_arena_counters_and_gauges(self):
        with METRICS.enabled_scope():
            METRICS.reset()
            forest = BlockForest(
                Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), nvar=1,
                n_ghost=2, periodic=(True, True), max_level=2,
            )
            forest.adapt(list(forest.blocks))  # forces growth
            snap = METRICS.snapshot()
        assert snap["counters"]["arena.acquires"] >= 4
        assert snap["counters"]["arena.grows"] >= 1
        assert snap["gauges"]["arena.capacity"] > 0
        assert 0.0 < snap["gauges"]["arena.occupancy"] <= 1.0

    def test_driver_and_ghost_metrics(self):
        with METRICS.enabled_scope():
            METRICS.reset()
            with advecting_pulse(2).build(engine="batched") as sim:
                sim.run(n_steps=2)
            snap = METRICS.snapshot()
        assert snap["counters"]["step.count"] == 2
        assert snap["counters"]["ghost.plan_misses"] >= 1
        assert snap["counters"]["ghost.plan_hits"] >= 1
        assert snap["summaries"]["step.dt"]["count"] == 2


# ---------------------------------------------------------------------------
# recorder + schema
# ---------------------------------------------------------------------------


class TestRunRecorder:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunRecorder(path, clock=scripted_clock(1.0, 2.0)) as rec:
            rec.emit("meta", source="test")
            rec.emit("step", step=1, t_sim=0.1, dt=0.1,
                     n_blocks=4, n_cells=64)
        events = read_events(path)
        assert [e["kind"] for e in events] == ["meta", "step"]
        assert [e["t"] for e in events] == [1.0, 2.0]
        assert all(e["v"] == SCHEMA_VERSION for e in events)
        assert validate_events(events) == []

    def test_stream_target_not_closed(self):
        buf = io.StringIO()
        with RunRecorder(buf, clock=scripted_clock(0.0)) as rec:
            rec.emit("meta", source="test")
        assert not buf.closed
        assert json.loads(buf.getvalue())["source"] == "test"

    def test_unknown_kind_rejected(self):
        rec = RunRecorder(io.StringIO())
        with pytest.raises(ValueError, match="unknown event kind"):
            rec.emit("explosion", boom=True)

    def test_missing_required_field_rejected(self):
        rec = RunRecorder(io.StringIO())
        with pytest.raises(ValueError, match="requires field"):
            rec.emit("step", step=1)

    def test_extra_fields_allowed(self):
        buf = io.StringIO()
        RunRecorder(buf, clock=scripted_clock(0.0)).emit(
            "exchange", n_messages=2, n_bytes=100, n_retries=1)
        assert json.loads(buf.getvalue())["n_retries"] == 1

    def test_emit_after_close_rejected(self, tmp_path):
        rec = RunRecorder(tmp_path / "r.jsonl")
        rec.close()
        rec.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            rec.emit("meta", source="late")

    def test_crashed_run_leaves_parseable_prefix(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        rec = RunRecorder(path, clock=scripted_clock(0.0, 1.0))
        rec.emit("meta", source="test")
        rec.emit("adapt", step=1, refined=4, coarsened=0)
        # simulate a truncated final line from a crash
        with path.open("a") as f:
            f.write('{"v": 1, "t": 2.0, "ki')
        with pytest.raises(ValueError, match="not valid JSON"):
            read_events(path)


class TestValidateEvents:
    def _ok(self, **over):
        ev = {"v": SCHEMA_VERSION, "t": 1.0, "kind": "meta", "source": "x"}
        ev.update(over)
        return ev

    def test_valid_stream(self):
        assert validate_events([self._ok(), self._ok(t=2.0)]) == []

    def test_missing_envelope(self):
        problems = validate_events([{"kind": "meta", "source": "x"}])
        assert any("missing envelope field 'v'" in p for p in problems)
        assert any("missing envelope field 't'" in p for p in problems)

    def test_wrong_version(self):
        problems = validate_events([self._ok(v=99)])
        assert any("schema version" in p for p in problems)

    def test_unknown_kind(self):
        problems = validate_events([self._ok(kind="warp")])
        assert problems == ["event 0: unknown kind 'warp'"]

    def test_missing_payload_field(self):
        ev = {"v": SCHEMA_VERSION, "t": 1.0, "kind": "recovery", "step": 3}
        problems = validate_events([ev])
        assert len(problems) == 1
        assert "fault" in problems[0] and "strategy" in problems[0]

    def test_decreasing_timestamps_flagged(self):
        problems = validate_events([self._ok(t=5.0), self._ok(t=4.0)])
        assert any("decreases" in p for p in problems)

    def test_non_numeric_timestamp_flagged(self):
        problems = validate_events([self._ok(t="noon")])
        assert any("not a number" in p for p in problems)

    def test_every_schema_kind_is_emittable(self):
        payloads = {
            "meta": {"source": "s"},
            "step": {"step": 1, "t_sim": 0.0, "dt": 0.1,
                     "n_blocks": 1, "n_cells": 16},
            "adapt": {"step": 1, "refined": 0, "coarsened": 0},
            "exchange": {"n_messages": 0, "n_bytes": 0},
            "recovery": {"step": 1, "fault": "rank-failure",
                         "strategy": "local", "replayed_steps": 1},
            "profile": {"engine": "blocked", "wall_s": 0.1, "phases": {}},
            "summary": {"engines": {}},
            "supervisor": {"event": "rank-death", "rank": 1},
            "corruption": {"step": 2, "regions": ["interior"],
                           "action": "mirror-repair"},
        }
        assert set(payloads) == set(EVENT_SCHEMA)
        buf = io.StringIO()
        rec = RunRecorder(buf, clock=scripted_clock(*range(len(payloads))))
        for kind, payload in payloads.items():
            rec.emit(kind, **payload)
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert validate_events(events) == []


# ---------------------------------------------------------------------------
# instrumentation must not perturb the simulation
# ---------------------------------------------------------------------------


class TestBitForBit:
    @pytest.mark.parametrize("engine", ["blocked", "batched"])
    def test_instrumented_run_identical(self, engine, tmp_path):
        problem = advecting_pulse(2)
        with problem.build(engine=engine) as plain:
            plain.run(n_steps=4)
        with METRICS.enabled_scope(), \
                RunRecorder(tmp_path / "run.jsonl") as rec, \
                problem.build(engine=engine) as instrumented:
            instrumented.recorder = rec
            instrumented.enable_block_profile()
            instrumented.run(n_steps=4)
        assert sorted(plain.forest.blocks) == sorted(
            instrumented.forest.blocks)
        for bid in plain.forest.blocks:
            np.testing.assert_array_equal(
                plain.forest.blocks[bid].interior,
                instrumented.forest.blocks[bid].interior,
            )
        # the stream recorded the run and validates clean
        events = read_events(tmp_path / "run.jsonl")
        steps = [e for e in events if e["kind"] == "step"]
        assert len(steps) == 4
        assert steps[-1]["engine"] == engine
        assert validate_events(events) == []

    @pytest.mark.parametrize("engine", ["blocked", "batched"])
    def test_instrumented_sanitized_run_identical(self, engine):
        # The sanitizer already reproduces plain runs bit-for-bit;
        # metrics on top must not break that.
        problem = advecting_pulse(2)
        with problem.build(engine=engine) as plain:
            plain.run(n_steps=3)
        with METRICS.enabled_scope(), \
                problem.build(engine=engine, sanitize=True) as sanitized:
            sanitized.run(n_steps=3)
        for bid in plain.forest.blocks:
            np.testing.assert_array_equal(
                plain.forest.blocks[bid].interior,
                sanitized.forest.blocks[bid].interior,
            )

    def test_instrumented_race_checked_emulation_matches_serial(self):
        from repro.parallel import EmulatedMachine
        from repro.solvers import AdvectionScheme

        scheme = AdvectionScheme((1.0, 0.5), order=2)

        def seeded_forest():
            forest = BlockForest(
                Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=1,
                n_ghost=2, periodic=(True, True),
            )
            rng = np.random.default_rng(5)
            for b in forest:
                b.interior[...] = rng.random(b.interior.shape)
            return forest

        reference = seeded_forest()
        emu_plain = EmulatedMachine(seeded_forest(), 3, scheme)
        with METRICS.enabled_scope():
            emu_obs = EmulatedMachine(seeded_forest(), 3, scheme,
                                      sanitize=True)
            for _ in range(3):
                emu_plain.advance(1e-3)
                emu_obs.advance(1e-3)
            assert METRICS.counters["exchange.messages"] > 0
        plain, observed = emu_plain.gather(), emu_obs.gather()
        for bid in reference.blocks:
            np.testing.assert_array_equal(plain[bid], observed[bid])

    def test_driver_emits_adapt_events(self, tmp_path):
        problem = advecting_pulse(2)
        with RunRecorder(tmp_path / "run.jsonl") as rec, \
                problem.build() as sim:
            sim.recorder = rec
            sim.run(n_steps=4)
        events = read_events(tmp_path / "run.jsonl")
        adapts = [e for e in events if e["kind"] == "adapt"]
        assert adapts  # the pulse problem adapts within a few steps
        assert all(e["refined"] + e["coarsened"] > 0 for e in adapts)

    def test_block_profile_shapes(self):
        problem = advecting_pulse(2)
        with problem.build() as sim:
            assert sim.block_profile() == []  # off until enabled
            sim.enable_block_profile()
            sim.run(n_steps=2)
            blocks = sim.block_profile()
        assert blocks
        for entry in blocks:
            assert set(entry) == {"id", "level", "steps"}
            assert entry["steps"] >= 1


class TestRecoveryRecorder:
    def test_recovery_events_recorded(self, tmp_path):
        from repro.parallel import EmulatedMachine
        from repro.resilience import (
            Checkpointer,
            FaultPlan,
            RankKill,
            run_with_recovery,
        )
        from repro.solvers import AdvectionScheme

        forest = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=1,
            n_ghost=2, periodic=(True, True),
        )
        rng = np.random.default_rng(7)
        for b in forest:
            b.interior[...] = rng.random(b.interior.shape)
        plan = FaultPlan(kills=[RankKill(step=2, rank=1)])
        emu = EmulatedMachine(
            forest, 4, AdvectionScheme((1.0, 0.5), order=2), fault_plan=plan)
        path = tmp_path / "rec.jsonl"
        with RunRecorder(path) as rec:
            run_with_recovery(
                emu, n_steps=4, dt=1e-3,
                checkpointer=Checkpointer(tmp_path / "ckpt"),
                strategy="local", recorder=rec,
            )
        events = read_events(path)
        assert validate_events(events) == []
        recoveries = [e for e in events if e["kind"] == "recovery"]
        assert len(recoveries) == 1
        assert recoveries[0]["fault"] == "rank-failure"
        assert recoveries[0]["step"] == 2
        steps = [e for e in events if e["kind"] == "step"]
        assert len(steps) == 4


# ---------------------------------------------------------------------------
# report rendering + bench comparison
# ---------------------------------------------------------------------------


class TestRendering:
    def test_phase_breakdown_sorted_with_fractions(self):
        text = phase_breakdown({"solve": 3.0, "ghosts": 1.0})
        lines = text.splitlines()
        assert lines[0].lstrip().startswith("solve")
        assert "75.0%" in lines[0]
        assert "total (timed phases)" in lines[-1]

    def test_top_blocks_by_steps(self):
        blocks = [{"id": "a", "level": 0, "steps": 2},
                  {"id": "b", "level": 1, "steps": 9}]
        assert "9 steps" in top_blocks_lines(blocks, k=2)[0]
        top = top_blocks_lines(blocks, k=1)
        assert len(top) == 1 and "b" in top[0]
        assert top_blocks_lines([], k=3) == ["  (no per-block data)"]

    def test_engine_comparison_speedup_line(self):
        text = engine_comparison([
            {"engine": "blocked", "wall_s": 1.0, "us_per_cell": 4.0},
            {"engine": "batched", "wall_s": 0.5, "us_per_cell": 2.0},
        ])
        assert "batched speedup: 2.00x" in text

    def test_render_report_sections(self):
        events = [
            {"v": 1, "t": 0.0, "kind": "meta", "source": "profile",
             "problem": "pulse"},
            {"v": 1, "t": 1.0, "kind": "step", "step": 1, "t_sim": 0.1,
             "dt": 0.1, "n_blocks": 4, "n_cells": 64},
            {"v": 1, "t": 1.5, "kind": "adapt", "step": 1,
             "refined": 4, "coarsened": 0},
            {"v": 1, "t": 2.0, "kind": "profile", "engine": "blocked",
             "wall_s": 0.5, "us_per_cell": 3.0,
             "phases": {"solve": 0.4, "ghosts": 0.1}, "mflops": 120.0,
             "blocks": [{"id": "b", "level": 1, "steps": 2}]},
            {"v": 1, "t": 3.0, "kind": "exchange", "n_messages": 10,
             "n_bytes": 4096, "n_retries": 2},
            {"v": 1, "t": 4.0, "kind": "recovery", "step": 2,
             "fault": "rank-failure", "strategy": "local",
             "replayed_steps": 1},
        ]
        assert validate_events(events) == []
        text = render_report(events)
        assert "profile run (problem=pulse)" in text
        assert "steps: 1" in text
        assert "adaptations: 1 (+4 refined, -0 coarsened)" in text
        assert "engine: blocked" in text
        assert "120 MFLOP/s" in text
        assert "hottest blocks" in text
        assert "2 retransmissions" in text
        assert "recovery at step 2: rank-failure [local]" in text

    def test_render_report_empty(self):
        assert render_report([]) == "(no events)"
