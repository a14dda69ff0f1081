"""Tests for time-step subcycling (repro.amr.subcycle)."""

import numpy as np
import pytest

from repro.amr import Simulation, advecting_pulse
from repro.core import BlockID


def build_sim(levels=3, **kw):
    """Multi-level pulse forest driven by ``Simulation(**kw)``."""
    p = advecting_pulse(2)
    forest = p.config.make_forest(p.scheme.nvar)
    forest.adapt([BlockID(0, (0, 0)), BlockID(0, (1, 1))])
    if levels >= 3:
        forest.adapt([BlockID(1, (1, 1))])
    p.init_forest(forest)
    return p, Simulation(forest, p.scheme, **kw)


def build(subcycle):
    return build_sim(3, subcycle=subcycle)


def run_to(sim, t_end):
    while sim.time < t_end - 1e-12:
        dt = min(sim.stable_dt(), t_end - sim.time)
        sim.advance(dt)


class TestStableDt:
    def test_coarse_dt_larger_than_global(self):
        _, sim_g = build(False)
        _, sim_s = build(True)
        from repro.solvers.timestep import stable_dt

        dt_global = stable_dt(sim_g.forest, sim_g.scheme)
        dt_coarse = sim_s.stable_dt()
        # Two levels present -> the coarse step is twice the fine limit.
        assert dt_coarse == pytest.approx(2.0 * dt_global, rel=1e-9)

    def test_uniform_forest_matches_global(self):
        p = advecting_pulse(2)
        forest = p.config.make_forest(p.scheme.nvar)
        p.init_forest(forest)
        sim = Simulation(forest, p.scheme, subcycle=True)
        from repro.solvers.timestep import stable_dt

        assert sim.stable_dt() == pytest.approx(
            stable_dt(forest, p.scheme), rel=1e-12
        )


class TestAccuracy:
    def test_comparable_to_global_stepping(self):
        t_end = 0.08
        p, sim_g = build(False)
        sim_g.run(t_end=t_end, dt_max=2e-3)
        err_g = sim_g.error_vs(p.exact(t_end))
        p, sim_s = build(True)
        run_to(sim_s, t_end)
        err_s = sim_s.error_vs(p.exact(t_end))
        assert err_s < 2.0 * err_g + 1e-5

    def test_constant_state_preserved(self):
        _, sim = build(True)
        for b in sim.forest:
            b.interior[...] = 4.0
        run_to(sim, 0.05)
        for b in sim.forest:
            np.testing.assert_allclose(b.interior, 4.0, rtol=1e-12)

    def test_finite_and_bounded(self):
        _, sim = build(True)
        run_to(sim, 0.1)
        for b in sim.forest:
            assert np.all(np.isfinite(b.interior))
            assert b.interior.max() < 1.5  # TVD-ish: no blowup

    def test_mass_drift_small(self):
        _, sim = build(True)
        m0 = sim.total()
        run_to(sim, 0.08)
        assert abs(sim.total() - m0) / m0 < 1e-2

    def test_time_advances_exactly(self):
        _, sim = build(True)
        sim.advance(1e-3)
        assert sim.time == pytest.approx(1e-3)


class TestWorkSavings:
    def test_fewer_updates_than_global(self):
        """The point of subcycling: per unit physical time, coarse blocks
        take exponentially fewer steps."""
        t_end = 0.06
        p, sim_g = build(False)
        sim_g.run(t_end=t_end)
        global_updates = sim_g.step_count * sim_g.forest.n_blocks

        _, sim_s = build(True)
        coarse_steps = 0
        while sim_s.time < t_end - 1e-12:
            dt = min(sim_s.stable_dt(), t_end - sim_s.time)
            sim_s.advance(dt)
            coarse_steps += 1
        sub_updates = coarse_steps * sim_s.updates_per_step()
        assert sub_updates < 0.7 * global_updates

    def test_updates_per_step_counts_levels(self):
        _, sim = build(True)
        hist = sim.forest.level_histogram()
        levels = sorted(hist)
        expect = sum(hist[l] * (1 << (l - levels[0])) for l in levels)
        assert sim.updates_per_step() == expect


class TestSparseLevels:
    def test_level_gap_handled(self):
        """Levels {0, 2} with no level-1 blocks: the finer group takes
        four substeps of dt/4."""
        p = advecting_pulse(2)
        forest = p.config.make_forest(p.scheme.nvar)
        p.init_forest(forest)
        # Refine one block twice; its siblings keep level 1 around it,
        # so build a gap artificially by checking histogram afterwards.
        forest.adapt([BlockID(0, (0, 0))])
        forest.adapt([BlockID(1, (0, 0))])
        p.init_forest(forest)
        sim = Simulation(forest, p.scheme, subcycle=True)
        run_to(sim, 0.02)
        for b in sim.forest:
            assert np.all(np.isfinite(b.interior))
        assert sim.time == pytest.approx(0.02)


def assert_uniform_degeneracy(**kw):
    """On a uniform forest subcycling degenerates to exactly the global
    midpoint step — the results must be bit-identical."""
    results = {}
    for subcycle in (False, True):
        p = advecting_pulse(2)
        forest = p.config.make_forest(p.scheme.nvar)
        p.init_forest(forest)
        sim = Simulation(forest, p.scheme, subcycle=subcycle, **kw)
        for _ in range(5):
            sim.advance(1e-3)
        results[subcycle] = sim.forest
    assert_forests_identical(results[False], results[True])


class TestUniformEquivalence:
    def test_single_level_matches_global_bitwise(self):
        assert_uniform_degeneracy()


# ---------------------------------------------------------------------------
# first-class driver mode (Simulation(subcycle=True)): engines,
# reflux conservation, and regressions for the old stub's correctness holes
# ---------------------------------------------------------------------------

from test_sweep_oracle import make_forest

from repro.amr.config import SimulationConfig
from repro.amr.subcycle import interval_spans, level_divisors
from repro.solvers import AdvectionScheme
from repro.solvers.euler import EulerScheme
from repro.solvers.mhd import MHDScheme
from repro.solvers.shallow_water import ShallowWaterScheme
from repro.util.geometry import Box

ENGINES = ("blocked", "batched")


def assert_forests_identical(a, b):
    assert sorted(a.blocks) == sorted(b.blocks)
    for bid in a.blocks:
        np.testing.assert_array_equal(
            a.blocks[bid].interior, b.blocks[bid].interior, err_msg=str(bid)
        )


def assert_engines_identical(make_sim, n_steps):
    """One pool row per kernel call (``blocked``) and a tile of rows
    (``batched``): same dt sequence, same final state."""
    runs = []
    for engine in ENGINES:
        sim = make_sim(engine)
        dts = []
        for _ in range(n_steps):
            dts.append(sim.stable_dt())
            sim.advance(dts[-1])
        runs.append((dts, sim.forest))
    assert runs[0][0] == runs[1][0]
    assert_forests_identical(runs[0][1], runs[1][1])


class TestFirstClassMode:
    def test_config_threads_through_problem_build(self):
        p = advecting_pulse(2)
        assert SimulationConfig.__dataclass_fields__["subcycle"].default is False
        with p.build(adaptive=False, subcycle=True) as sim:
            assert sim.subcycle
        p.config.subcycle = True
        with p.build(adaptive=False) as sim:
            assert sim.subcycle
        with p.build(adaptive=False, subcycle=False) as sim:
            assert not sim.subcycle


def build_euler_floored(levels=3, rho_floor=1.6, **kw):
    """Euler forest whose initial density dips *below* ``rho_floor``, so
    any update stage that skips ``apply_floors`` leaves cells under it."""
    cfg = SimulationConfig(
        domain=Box((0.0, 0.0), (1.0, 1.0)),
        n_root=(2, 2),
        m=(8, 8),
        periodic=(True, True),
        max_level=3,
    )
    scheme = EulerScheme(2, rho_floor=rho_floor)
    forest = cfg.make_forest(scheme.nvar)
    forest.adapt([BlockID(0, (0, 0))])
    if levels >= 3:
        forest.adapt([BlockID(1, (0, 0))])
    for b in forest:
        x, y = b.meshgrid()
        w = np.empty((scheme.nvar,) + x.shape)
        w[0] = 1.5 + 0.4 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        w[1] = 0.2
        w[2] = 0.1
        w[3] = 1.0
        b.interior[...] = scheme.prim_to_cons(w)
    return Simulation(forest, scheme, **kw)


class TestFloorsUnderSubcycling:
    """Regression: the old subcycled corrector wrote ``u_old + dt*rate``
    without ever calling ``scheme.apply_floors``, so configured floors
    were silently ignored on every final stage."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_floors_enforced_after_every_substep(self, engine):
        sim = build_euler_floored(3, subcycle=True, engine=engine)
        floor = sim.scheme.rho_floor
        assert min(float(b.interior[0].min()) for b in sim.forest) < floor
        for _ in range(2):
            sim.advance(sim.stable_dt())
        worst = min(float(b.interior[0].min()) for b in sim.forest)
        assert worst >= floor - 1e-12

    @pytest.mark.parametrize("engine", ENGINES)
    def test_floored_engines_bitwise_identical(self, engine):
        del engine  # parametrization documents both run below
        assert_engines_identical(
            lambda eng: build_euler_floored(3, subcycle=True, engine=eng), 2
        )


class TestSanitizerUnderSubcycling:
    """Regression: the old ``advance`` skipped ``_finish_advance``, so
    ``sanitize=True`` never ran the post-stage interior check."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_after_stage_runs_every_substep(self, engine):
        _, sim = build_sim(3, subcycle=True, engine=engine, sanitize=True)
        assert sim.sanitizer is not None
        calls = []
        orig = sim.sanitizer.after_stage

        def spy(blocks):
            calls.append(1)
            orig(blocks)

        sim.sanitizer.after_stage = spy
        n = 3
        for _ in range(n):
            sim.advance(sim.stable_dt())
        levels = sorted(sim.forest.level_histogram())
        divisor = level_divisors(levels)
        substeps = sum(divisor[lvl] for lvl in levels)
        # one check per (level, substep) plus one in _finish_advance
        assert len(calls) == n * (substeps + 1)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sanitized_run_bitwise_identical(self, engine):
        _, plain = build_sim(3, subcycle=True, engine=engine)
        _, sane = build_sim(3, subcycle=True, engine=engine, sanitize=True)
        for _ in range(3):
            dt = plain.stable_dt()
            assert sane.stable_dt() == dt
            plain.advance(dt)
            sane.advance(dt)
        assert_forests_identical(plain.forest, sane.forest)


class TestEngineRouting:
    """Regression: the old stub silently ignored ``engine=`` — bogus
    values sailed through and ``batched`` quietly ran the blocked
    path."""

    def test_unknown_engine_raises(self):
        p = advecting_pulse(2)
        forest = p.config.make_forest(p.scheme.nvar)
        p.init_forest(forest)
        with pytest.raises(ValueError, match="engine"):
            Simulation(forest, p.scheme, subcycle=True, engine="vectorized")

    def test_batched_engine_actually_batches(self):
        """The batched subcycled sweep compacts the arena level-major:
        after an advance every level is a contiguous run of rows."""
        _, sim = build_sim(3, subcycle=True, engine="batched")
        sim.advance(sim.stable_dt())
        blocks = [sim.forest.blocks[bid] for bid in sim.forest.sorted_ids()]
        blocks.sort(key=lambda b: b.level)
        assert [b.arena_row for b in blocks] == list(range(len(blocks)))

    def test_engines_bitwise_identical_multilevel(self):
        assert_engines_identical(
            lambda engine: build_sim(3, subcycle=True, engine=engine)[1], 4
        )


class TestInterpToleranceAndState:
    """Regression: the old ``_interp_fill`` used an absolute ``1e-14``
    time tolerance (misclassifying spanning intervals at tiny dt) and
    ``advance`` left the ``_t_old``/``_t_new`` dicts populated."""

    def test_interval_spans_is_dt_relative(self):
        # A tiny step still spans its own start (the old absolute
        # epsilon said it did not once dt < 1e-14).
        assert interval_spans(0.0, 0.0, 1e-15)
        assert interval_spans(0.0, 0.0, 1e-300)
        # The interval end and degenerate intervals never span.
        assert not interval_spans(1e-15, 0.0, 1e-15)
        assert not interval_spans(0.5, 0.5, 0.5)
        # Within the relative tolerance of the end: treated as the end.
        assert not interval_spans(1.0 + 1e-9 - 1e-22, 1.0, 1.0 + 1e-9)
        # Scale invariance: same classification at any magnitude.
        for scale in (1e-12, 1.0, 1e12):
            assert interval_spans(0.25 * scale, 0.0, scale)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_tiny_dt_multilevel_finite(self, engine):
        _, sim = build_sim(3, subcycle=True, engine=engine)
        before = {b.id: b.interior.copy() for b in sim.forest}
        sim.advance(1e-13)
        assert sim.time == pytest.approx(1e-13)
        for b in sim.forest:
            assert np.all(np.isfinite(b.interior))
            # a 1e-13 step must still be a real (interpolated) update,
            # not a frozen state from misclassified intervals
            assert b.interior.shape == before[b.id].shape

    def test_no_stale_per_step_state(self):
        """Per-step interpolation state lives and dies with one advance:
        nothing keyed by BlockID survives to go stale across adapts."""
        _, sim = build_sim(3, subcycle=True)
        sim.advance(sim.stable_dt())
        for attr in ("_u_old", "_t_old", "_t_new"):
            assert not hasattr(sim, attr)
        levels = sorted(sim.forest.level_histogram())
        assert sim._last_substeps == level_divisors(levels)

    def test_level_divisors_shared_and_sparse(self):
        assert level_divisors([0, 1, 2]) == {0: 1, 1: 2, 2: 4}
        assert level_divisors([0, 2, 5]) == {0: 1, 2: 4, 5: 32}
        assert level_divisors([3]) == {3: 1}
        _, sim = build_sim(3, subcycle=True)
        hist = sim.forest.level_histogram()
        divisor = level_divisors(sorted(hist))
        assert sim.updates_per_step() == sum(
            hist[lvl] * divisor[lvl] for lvl in hist
        )


class TestSubcycledReflux:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_conservation_matches_global_reflux(self, engine):
        """Time-weighted per-substep flux accumulation keeps subcycled
        AMR runs conservative to round-off, exactly like global-dt
        refluxing."""
        totals = {}
        t_end = 0.05
        for subcycle in (False, True):
            _, sim = build_sim(
                3, subcycle=subcycle, engine=engine, reflux=True
            )
            m0 = sim.total()
            run_to(sim, t_end)
            totals[subcycle] = (m0, sim.total())
        for m0, m1 in totals.values():
            assert abs(m1 - m0) < 1e-13
        assert abs(totals[True][1] - totals[False][1]) < 1e-13

    def test_unrefluxed_drift_is_visible(self):
        """Control: without the register the same run drifts measurably,
        so the conservation assertion above has teeth."""
        _, sim = build_sim(3, subcycle=True, reflux=False)
        m0 = sim.total()
        run_to(sim, 0.05)
        assert abs(sim.total() - m0) > 1e-9


class TestMidRunAdaptation:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_subcycled_run_adapts(self, engine):
        p = advecting_pulse(2)
        with p.build(subcycle=True, engine=engine) as sim:
            for _ in range(6):
                sim.step()
            assert any(r.adapted is not None for r in sim.history)
            for b in sim.forest:
                assert np.all(np.isfinite(b.interior))

    def test_adapting_engines_bitwise_identical(self):
        sims = {}
        for engine in ENGINES:
            p = advecting_pulse(2)
            sim = p.build(subcycle=True, engine=engine)
            with sim:
                for _ in range(6):
                    sim.step()
            sims[engine] = sim
        a, b = sims["blocked"], sims["batched"]
        assert [r.dt for r in a.history] == [r.dt for r in b.history]
        assert_forests_identical(a.forest, b.forest)


class TestUniformDegeneracyMatrix:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_subcycled_equals_global_bitwise(self, engine):
        """...per rows-per-call mode."""
        assert_uniform_degeneracy(engine=engine)


MATRIX_SCHEMES = {
    "advection-o1": lambda: AdvectionScheme((1.0, 0.5), order=1),
    "advection-minmod": lambda: AdvectionScheme(
        (1.0, 0.5), order=2, limiter="minmod"
    ),
    "euler": lambda: EulerScheme(2),
    "shallow-water": lambda: ShallowWaterScheme(2),
    "mhd-mc": lambda: MHDScheme(2, limiter="mc"),
}


class TestPhysicsMatrix:
    """Subcycled one-row and tiled sweeps are bit-for-bit identical
    across physics x order x limiter (against the per-block oracle:
    ``test_sweep_oracle.py``, whose forest this borrows)."""

    @pytest.mark.parametrize("name", sorted(MATRIX_SCHEMES))
    def test_engines_bitwise_identical(self, name):
        def make_sim(engine):
            scheme = MATRIX_SCHEMES[name]()
            return Simulation(
                make_forest(scheme, 2), scheme, subcycle=True, engine=engine
            )

        assert_engines_identical(make_sim, 2)


class TestRankKillRecovery:
    def test_recovered_run_matches_subcycled_serial(self, tmp_path):
        """Degeneracy bridge: on a uniform forest the subcycled serial
        driver, the global serial driver, and the emulated machine with
        a mid-run rank kill + local recovery all agree bit-for-bit."""
        from repro.parallel import EmulatedMachine
        from repro.resilience import (
            Checkpointer,
            FaultPlan,
            RankKill,
            run_with_recovery,
        )

        def make_forest():
            from repro.core import BlockForest

            forest = BlockForest(
                Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=1,
                n_ghost=2, periodic=(True, True),
            )
            rng = np.random.default_rng(3)
            for b in forest:
                b.interior[...] = rng.random(b.interior.shape)
            return forest

        serial = Simulation(
            make_forest(), AdvectionScheme((1.0, 0.5), order=2),
            subcycle=True,
        )
        for _ in range(4):
            serial.advance(1e-3)

        plan = FaultPlan(kills=[RankKill(step=2, rank=1)])
        emu = EmulatedMachine(
            make_forest(), 4, AdvectionScheme((1.0, 0.5), order=2),
            fault_plan=plan,
        )
        report = run_with_recovery(
            emu, n_steps=4, dt=1e-3,
            checkpointer=Checkpointer(tmp_path / "ckpt"), strategy="local",
        )
        assert report.n_recoveries
        state = emu.gather()
        assert sorted(state) == sorted(serial.forest.blocks)
        for bid, arr in state.items():
            np.testing.assert_array_equal(
                arr, serial.forest.blocks[bid].interior, err_msg=str(bid)
            )
