"""Integration tests for the AMR driver (repro.amr.driver).

The key oracle: solving on an adaptively refined forest must agree with
solving the same problem on a uniformly fine grid, and conserved totals
must be preserved on periodic domains.
"""

import numpy as np
import pytest

from repro.amr import SimulationConfig, Simulation, advecting_pulse
from repro.amr.boundary import OutflowBC
from repro.core import BlockForest, BlockID
from repro.core.refine_criteria import RefinementCriterion
from repro.solvers import AdvectionScheme, EulerScheme
from repro.util.geometry import Box


class TestStepping:
    def test_ghost_requirement_checked(self):
        f = BlockForest(Box((0.0,), (1.0,)), (2,), (4,), 1, n_ghost=1)
        with pytest.raises(ValueError):
            Simulation(f, AdvectionScheme((1.0,), order=2))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"adapt_interval": 0}, "adapt_interval"),
            ({"adapt_interval": -3}, "adapt_interval"),
            ({"buffer_band": -1}, "buffer_band"),
        ],
    )
    def test_bad_adaptation_settings_rejected(self, kwargs, message):
        p = advecting_pulse(2)
        forest = p.config.make_forest(p.scheme.nvar)
        with pytest.raises(ValueError, match=message):
            Simulation(forest, p.scheme, criterion=p.make_criterion(), **kwargs)

    def test_reflux_on_unbalanced_forest_rejected(self):
        # refluxing corrects 2:1 faces only: refuse at construction, not
        # inside the first step
        f = BlockForest(Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), 1,
                        n_ghost=2, periodic=(True, True), max_level_jump=2)
        with pytest.raises(ValueError, match="max_level_jump=2"):
            Simulation(f, AdvectionScheme((1.0, 0.5)), reflux=True)
        Simulation(f, AdvectionScheme((1.0, 0.5)))  # fine without reflux

    def test_run_requires_target(self):
        f = BlockForest(Box((0.0,), (1.0,)), (2,), (4,), 1, n_ghost=2,
                        periodic=(True,))
        sim = Simulation(f, AdvectionScheme((1.0,)))
        with pytest.raises(ValueError):
            sim.run()

    def test_run_to_time(self):
        p = advecting_pulse(1, velocity=(1.0,))
        sim = p.build(adaptive=False)
        sim.run(t_end=0.1)
        assert sim.time == pytest.approx(0.1)

    def test_run_step_count(self):
        p = advecting_pulse(1, velocity=(1.0,))
        sim = p.build(adaptive=False)
        sim.run(n_steps=5)
        assert sim.step_count == 5
        assert len(sim.history) == 5

    def test_history_records(self):
        p = advecting_pulse(2)
        sim = p.build(adaptive=False)
        sim.run(n_steps=3)
        rec = sim.history[-1]
        assert rec.step == 3
        assert rec.n_blocks == sim.forest.n_blocks
        assert rec.dt > 0

    def test_run_steps_with_the_adapted_forests_dt(self):
        """Each step's dt respects the CFL limit of the forest that step
        advances, after its adaptation refined a finer level."""
        forest = BlockForest(Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), 1,
                             n_ghost=2, periodic=(True, True), max_level=3)
        for b in forest:
            b.interior[...] = 1.0
        sim = Simulation(
            forest, AdvectionScheme((1.0, 0.5)), adapt_interval=2, buffer_band=0,
            criterion=RefinementCriterion(
                lambda b: float(all(lo <= 0.3 <= hi for lo, hi in zip(b.box.lo, b.box.hi))),
                0.5, 0.25, max_level=3,
            ),
        )
        advance, checked = sim.advance, []

        def spy(dt):
            checked.append((dt, sim.stable_dt()))
            advance(dt)

        sim.advance = spy
        sim.run(n_steps=5)
        assert sim.forest.level_histogram()[3] > 0  # refined at steps 1, 3 and 5
        assert len(checked) == 5
        assert all(dt <= limit for dt, limit in checked), checked

    def test_run_without_steps_reports_the_current_step(self):
        p = advecting_pulse(2)
        sim = p.build(adaptive=False)
        sim.step_count, sim.time = 7, 0.25  # as resumed from a checkpoint
        rec = sim.run(t_end=0.25)
        assert (rec.step, rec.time, rec.n_blocks) == (7, 0.25, sim.forest.n_blocks)

    def test_timer_phases_populated(self):
        p = advecting_pulse(2)
        sim = p.build(adaptive=False)
        sim.run(n_steps=2)
        assert sim.timer.totals["compute"] > 0
        assert sim.timer.totals["ghost_exchange"] > 0


class TestConservation:
    def test_mass_conserved_periodic_uniform(self):
        p = advecting_pulse(2)
        sim = p.build(adaptive=False)
        m0 = sim.total()
        sim.run(n_steps=10)
        assert sim.total() == pytest.approx(m0, rel=1e-12)

    def test_mass_nearly_conserved_with_amr(self):
        # Across refinement-level interfaces the unsynchronized fluxes
        # introduce a small conservation error (the paper's codes accept
        # this; flux fixup is an extension) — it must stay tiny.
        p = advecting_pulse(2)
        sim = p.build()
        m0 = sim.total()
        sim.run(n_steps=12)
        assert abs(sim.total() - m0) / m0 < 5e-3

    def test_euler_energy_conserved_periodic(self):
        cfg = SimulationConfig(
            domain=Box((0.0, 0.0), (1.0, 1.0)),
            n_root=(2, 2),
            m=(8, 8),
            periodic=(True, True),
        )
        scheme = EulerScheme(2, order=2)
        forest = cfg.make_forest(scheme.nvar)
        rng = np.random.default_rng(0)
        for b in forest:
            X, Y = b.meshgrid()
            w = np.stack(
                [
                    1.0 + 0.2 * np.sin(2 * np.pi * X),
                    0.3 * np.cos(2 * np.pi * Y),
                    np.zeros_like(X),
                    np.ones_like(X),
                ]
            )
            b.interior[...] = scheme.prim_to_cons(w)
        sim = Simulation(forest, scheme)
        e0 = sim.total(var=3)
        sim.run(n_steps=8)
        assert sim.total(var=3) == pytest.approx(e0, rel=1e-12)


class TestAMRvsUniform:
    def test_amr_matches_uniform_fine_solution(self):
        """Oracle: an AMR run with the pulse fully refined around it
        matches the uniformly fine run to tight tolerance."""
        # Uniform fine: level-2 everywhere.
        p_uni = advecting_pulse(2)
        sim_uni = p_uni.build(adaptive=False)
        sim_uni.forest.refine_uniformly(2)
        # AMR: adapt around the pulse (max level 2).
        cfg = SimulationConfig(
            domain=Box((0.0, 0.0), (1.0, 1.0)),
            n_root=(2, 2),
            m=(8, 8),
            periodic=(True, True),
            max_level=2,
            refine_threshold=0.04,   # aggressive: refine the whole pulse
            coarsen_threshold=0.005,
            adapt_interval=2,
        )
        p_amr = advecting_pulse(2, config=cfg)
        sim_amr = p_amr.build()
        assert sim_amr.forest.n_blocks <= sim_uni.forest.n_blocks

        t_end = 0.06
        sim_uni.run(t_end=t_end, dt_max=2e-3)
        sim_amr.run(t_end=t_end, dt_max=2e-3)
        e_uni = sim_uni.error_vs(p_uni.exact(t_end))
        e_amr = sim_amr.error_vs(p_amr.exact(t_end))
        # AMR error is within a small factor of the uniform-fine error.
        assert e_amr < 3.0 * e_uni + 1e-6

    def test_amr_beats_uniform_coarse(self):
        t_end = 0.08
        p_coarse = advecting_pulse(2)
        sim_coarse = p_coarse.build(adaptive=False)  # level 0 only
        sim_coarse.run(t_end=t_end, dt_max=2e-3)
        p_amr = advecting_pulse(2)
        sim_amr = p_amr.build()
        sim_amr.run(t_end=t_end, dt_max=2e-3)
        assert sim_amr.error_vs(p_amr.exact(t_end)) < sim_coarse.error_vs(
            p_coarse.exact(t_end)
        )


class TestAdaptationDynamics:
    def test_refinement_follows_the_pulse(self):
        p = advecting_pulse(2, velocity=(2.0, 0.0))
        sim = p.build()

        def fine_centroid_x():
            xs = []
            for b in sim.forest:
                if b.level == sim.forest.levels[1]:
                    xs.append(b.box.center[0])
            return np.mean(xs)

        x0 = fine_centroid_x()
        sim.run(t_end=0.15)
        x1 = fine_centroid_x()
        assert x1 > x0  # the refined region moved with the pulse

    def test_adapt_interval_respected(self):
        p = advecting_pulse(2)
        sim = p.build()
        sim.adapt_interval = 3
        sim.run(n_steps=7)
        checks = [r for r in sim.history if r.adapted is not None]
        assert len(checks) == 3  # steps 0, 3, 6 (0-based count at check)

    def test_blocks_stay_balanced_throughout(self):
        p = advecting_pulse(2)
        sim = p.build()
        for _ in range(6):
            sim.step()
            sim.forest.check_balance()
            sim.forest.check_coverage()


class TestThreadedExecution:
    def test_threads_constructor_arg(self):
        """``threads=`` went with the per-block path it parallelised
        (it was slower than no threads); so did the tile knobs."""
        p = advecting_pulse(2)
        forest = p.config.make_forest(p.scheme.nvar)
        for removed in ("threads", "batch_tile"):
            with pytest.raises(TypeError, match=removed):
                Simulation(forest, p.scheme, **{removed: 2})
        assert Simulation(forest, p.scheme).engine == "batched"


class TestStableDtRobustness:
    def test_ghost_garbage_does_not_throttle_dt(self):
        """Regression: CFL is computed over computational cells only.
        Extrapolation BCs can legitimately write unphysical states into
        ghost cells at strong boundary gradients (found by the solar-wind
        CME run, where dt collapsed to ~1e-14 when the shock reached the
        outer boundary); those ghosts must not drive the time step."""
        from repro.solvers import EulerScheme
        from repro.solvers.timestep import stable_dt as forest_dt

        scheme = EulerScheme(2, order=2)
        f = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4),
            nvar=4, n_ghost=2,
        )
        for b in f:
            w = np.zeros((4,) + b.interior.shape[1:])
            w[0], w[3] = 1.0, 1.0
            b.interior[...] = scheme.prim_to_cons(w)
        dt_clean = forest_dt(f, scheme)
        # Poison one ghost cell with a near-vacuum insane state.
        blk = next(iter(f))
        blk.data[:, 0, 0] = [1e-12, 1e3, -1e3, 1e6]
        assert forest_dt(f, scheme) == pytest.approx(dt_clean)
