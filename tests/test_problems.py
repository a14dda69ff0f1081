"""Tests for the bundled problems (repro.amr.problems)."""

import numpy as np
import pytest

from repro.amr import (
    SimulationConfig,
    advecting_pulse,
    comet,
    mhd_blast,
    sedov_blast,
    solar_wind,
)
from repro.util.geometry import Box


def assert_finite(sim):
    for b in sim.forest:
        assert np.all(np.isfinite(b.interior)), f"non-finite state in {b.id}"


class TestAdvectingPulse:
    def test_exact_solution_at_t0(self):
        p = advecting_pulse(2)
        sim = p.build(adaptive=False)
        assert sim.error_vs(p.exact(0.0)) < 1e-12

    def test_periodic_exact_wraps(self):
        p = advecting_pulse(1, velocity=(1.0,))
        # After exactly one period the exact solution returns.
        f0 = p.exact(0.0)
        f1 = p.exact(1.0)
        x = np.linspace(0.05, 0.95, 7)
        np.testing.assert_allclose(f0(x), f1(x), rtol=1e-12)

    def test_error_stays_small(self):
        p = advecting_pulse(2)
        sim = p.build()
        sim.run(t_end=0.1)
        assert sim.error_vs(p.exact(sim.time)) < 5e-3


class TestBlasts:
    @pytest.mark.parametrize("factory", [sedov_blast, mhd_blast])
    def test_shock_expands_and_grid_follows(self, factory):
        p = factory(2)
        sim = p.build(initial_adapt_rounds=2)

        def fine_extent():
            # Largest center radius among the finest blocks: tracks the
            # outward-moving shock front.
            rmax = 0.0
            top = sim.forest.levels[1]
            for b in sim.forest:
                if b.level == top:
                    c = b.box.center
                    rmax = max(rmax, sum(x * x for x in c) ** 0.5)
            return rmax

        n_fine0 = sum(1 for b in sim.forest if b.level >= 2)
        assert n_fine0 > 0  # initial adaptation found the blast
        sim.run(t_end=0.02)
        assert_finite(sim)
        # The run deepened refinement at the shock, and the finest blocks
        # sit well outside the initial blast sphere (r = 0.1): the grid
        # follows the front outward.
        assert sim.forest.levels[1] == 3
        assert fine_extent() > 0.2

    def test_sedov_pressure_positive(self):
        p = sedov_blast(2)
        sim = p.build(initial_adapt_rounds=1)
        sim.run(n_steps=8)
        for b in sim.forest:
            w = p.scheme.cons_to_prim(b.interior)
            assert w[0].min() > 0 and w[-1].min() > 0

    def test_mhd_blast_field_anisotropy(self):
        # The blast in an oblique field expands preferentially along B
        # (x=y diagonal): the over-pressured region elongates along the
        # field — its second moment along B exceeds the one across it
        # (1.27 at t=0.03, 1.79 at t=0.05; the unmagnetised blast is 1).
        from repro.amr.sampling import resample_uniform

        p = mhd_blast(2, b0=2.0)
        sim = p.build(initial_adapt_rounds=2)
        sim.run(t_end=0.03)
        assert_finite(sim)
        level = max(b.level for b in sim.forest)
        pressure = p.scheme.cons_to_prim(resample_uniform(sim.forest, level))[4]
        n = pressure.shape[0]
        x = (np.arange(n) + 0.5) / n - 0.5
        X, Y = np.meshgrid(x, x, indexing="ij")
        excess = np.maximum(pressure - np.median(pressure), 0.0)
        along = (excess * (X + Y) ** 2).sum()
        across = (excess * (X - Y) ** 2).sum()
        assert along > 1.15 * across

    def test_sedov_radial_symmetry(self):
        p = sedov_blast(2)
        sim = p.build(initial_adapt_rounds=2)
        sim.run(n_steps=6)
        # Density at symmetric probe points matches.
        probes = [(0.2, 0.0), (-0.2, 0.0), (0.0, 0.2), (0.0, -0.2)]
        vals = []
        for pt in probes:
            b = sim.forest.block_at(pt)
            X, Y = b.meshgrid()
            idx = np.unravel_index(
                np.argmin((X - pt[0]) ** 2 + (Y - pt[1]) ** 2), X.shape
            )
            vals.append(b.interior[0][idx])
        assert np.ptp(vals) / np.mean(vals) < 0.05


class TestSolarWind:
    def test_inner_boundary_held_fixed(self):
        p = solar_wind(2)
        sim = p.build(initial_adapt_rounds=1)
        sim.run(n_steps=5)
        # Cells well inside the body retain the prescribed wind density.
        b = sim.forest.block_at((0.0, 0.0))
        X, Y = b.meshgrid()
        inside = X**2 + Y**2 < 0.5**2
        if inside.any():
            w = p.scheme.cons_to_prim(b.interior)
            assert w[0][inside].min() > 0.5  # near rho0 = 1 at r <= r_body

    def test_wind_is_supersonic_outflow(self):
        p = solar_wind(2)
        sim = p.build(adaptive=False)
        sim.run(n_steps=8)
        assert_finite(sim)
        # Radial momentum points outward away from the body.
        b = sim.forest.block_at((2.5, 0.0))
        w = p.scheme.cons_to_prim(b.interior)
        assert w[1].mean() > 0  # ux > 0 on the +x side

    def test_steady_wind_changes_slowly(self):
        p = solar_wind(2)
        sim = p.build(adaptive=False)
        sim.run(n_steps=4)
        snap = {b.id: b.interior.copy() for b in sim.forest}
        rec = sim.step()
        drift = max(
            float(np.abs(b.interior - snap[b.id]).max()) for b in sim.forest
        )
        # Near-equilibrium initial state: one step changes little.
        assert drift < 0.5

    def test_cme_pulse_raises_density(self):
        base = solar_wind(2)
        cme = solar_wind(2, cme_time=0.0, cme_duration=10.0, cme_factor=4.0)
        sims = [q.build(adaptive=False) for q in (base, cme)]
        for s in sims:
            s.run(n_steps=6)
        probe = (1.3, 0.0)
        dens = []
        for s in sims:
            b = s.forest.block_at(probe)
            dens.append(float(b.interior[0].mean()))
        assert dens[1] > 1.5 * dens[0]


class TestComet:
    def test_mass_loading_grows_total_mass(self):
        p = comet(2)
        sim = p.build(adaptive=False)
        m0 = sim.total()
        sim.run(n_steps=5)
        assert sim.total() > m0

    def test_flow_decelerates_in_cloud(self):
        p = comet(2, loading_rate=5.0)
        sim = p.build(adaptive=False)
        sim.run(n_steps=10)
        assert_finite(sim)
        w_cloud = p.scheme.cons_to_prim(sim.forest.block_at((0.1, 0.1)).interior)
        w_up = p.scheme.cons_to_prim(sim.forest.block_at((-1.8, 0.1)).interior)
        assert w_cloud[1].mean() < w_up[1].mean()  # slower inside the cloud

    def test_inflow_boundary_enforced(self):
        p = comet(2)
        sim = p.build(adaptive=False)
        sim.run(n_steps=5)
        b = sim.forest.block_at((-1.9, 0.0))
        w = p.scheme.cons_to_prim(b.interior)
        assert abs(w[1][0].mean() - 4.0) < 0.5  # inflow speed maintained


class TestProblemConfigs:
    def test_custom_config_respected(self):
        cfg = SimulationConfig(
            domain=Box((0.0, 0.0), (1.0, 1.0)),
            n_root=(4, 4),
            m=(4, 4),
            periodic=(True, True),
            max_level=1,
        )
        p = advecting_pulse(2, config=cfg)
        sim = p.build(adaptive=False)
        assert sim.forest.n_blocks == 16
        assert sim.forest.m == (4, 4)

    def test_3d_variants_construct(self):
        for factory in (advecting_pulse, sedov_blast, mhd_blast):
            p = factory(3)
            sim = p.build(adaptive=False)
            sim.run(n_steps=1)
            assert_finite(sim)


class TestOrszagTang:
    def test_initial_state_periodic_consistent(self):
        from repro.amr import orszag_tang

        p = orszag_tang()
        sim = p.build(adaptive=False)
        sim.fill_ghosts()
        # Periodic initial data: ghost exchange must be seamless (the
        # initializer itself is periodic on the unit square).
        for b in sim.forest:
            assert np.all(np.isfinite(b.data))

    def test_vortex_develops_structure(self):
        from repro.amr import orszag_tang
        from repro.amr.sampling import resample_uniform

        p = orszag_tang()
        sim = p.build(adaptive=False)
        rho0 = resample_uniform(sim.forest, 0, var=0)
        assert np.ptp(rho0) < 1e-12  # initially uniform density
        sim.run(t_end=0.1)
        rho1 = resample_uniform(sim.forest, 0, var=0)
        assert np.ptp(rho1) > 0.1 * rho1.mean()  # compressions formed
        assert_finite(sim)

    def test_mass_and_energy_conserved(self):
        from repro.amr import orszag_tang

        p = orszag_tang()
        sim = p.build(adaptive=False)
        m0, e0 = sim.total(0), sim.total(4)
        sim.run(n_steps=10)
        # Mass is exactly conserved (the Powell source has no density
        # component); energy only approximately — the 8-wave source term
        # trades strict conservation for divergence control by design.
        assert sim.total(0) == pytest.approx(m0, rel=1e-12)
        assert sim.total(4) == pytest.approx(e0, rel=1e-3)

    def test_point_symmetry(self):
        # The OT vortex is symmetric under 180-degree rotation about the
        # domain center: rho(x, y) == rho(1-x, 1-y).
        from repro.amr import orszag_tang
        from repro.amr.sampling import resample_uniform

        p = orszag_tang()
        sim = p.build(adaptive=False)
        sim.run(t_end=0.05)
        rho = resample_uniform(sim.forest, 0, var=0)
        np.testing.assert_allclose(rho, rho[::-1, ::-1], rtol=1e-8, atol=1e-10)


class TestAlfvenWave:
    def test_initial_condition_exact(self):
        from repro.amr import alfven_wave

        p = alfven_wave()
        sim = p.build(adaptive=False)
        assert sim.error_vs(p.exact(0.0), var=6) < 1e-12

    def test_mhd_second_order_convergence(self):
        """The circularly polarized Alfven wave is an exact nonlinear
        MHD solution: the full 8-wave solver must converge at design
        order on it."""
        from repro.amr import SimulationConfig, alfven_wave

        errs = []
        for m in (16, 32):
            cfg = SimulationConfig(
                domain=Box((0.0,), (1.0,)), n_root=(2,), m=(m,),
                periodic=(True,), limiter="mc", cfl=0.3,
            )
            p = alfven_wave(config=cfg)
            sim = p.build(adaptive=False)
            sim.run(t_end=0.25, dt_max=0.05 / m)
            errs.append(sim.error_vs(p.exact(sim.time), var=6))
        rate = np.log2(errs[0] / errs[1])
        assert rate > 1.7

    def test_wave_speed_is_alfvenic(self):
        # After t = 0.5 (half a period at vA = 1) By is inverted.
        from repro.amr import SimulationConfig, alfven_wave

        cfg = SimulationConfig(
            domain=Box((0.0,), (1.0,)), n_root=(2,), m=(32,),
            periodic=(True,), limiter="mc", cfl=0.3,
        )
        p = alfven_wave(config=cfg)
        sim = p.build(adaptive=False)
        sim.run(t_end=0.5)
        err_half = sim.error_vs(p.exact(0.5), var=6)
        err_zero = sim.error_vs(p.exact(0.0), var=6)
        assert err_half < 0.2 * err_zero  # phase matches t=0.5, not t=0

    def test_density_stays_uniform(self):
        from repro.amr import alfven_wave

        p = alfven_wave()
        sim = p.build(adaptive=False)
        sim.run(t_end=0.2)
        for b in sim.forest:
            np.testing.assert_allclose(b.interior[0], 1.0, rtol=5e-3)


class TestRayleighTaylor:
    def test_hydrostatic_balance_without_seed(self):
        """With zero seed amplitude the layered atmosphere must stay
        (numerically) static: the gravity source balances the pressure
        gradient to truncation error."""
        from repro.amr import rayleigh_taylor

        p = rayleigh_taylor(amplitude=0.0)
        sim = p.build(adaptive=False)
        sim.run(t_end=0.2)
        vmax = 0.0
        for b in sim.forest:
            w = p.scheme.cons_to_prim(b.interior)
            vmax = max(vmax, float(np.abs(w[1:3]).max()))
        assert vmax < 0.02  # far below the seeded-run velocities

    def test_instability_grows(self):
        from dataclasses import replace

        from repro.amr import rayleigh_taylor

        # The seeded mode's horizontal velocity is the clean signal: it
        # is exactly zero without the seed (the atmosphere is uniform in
        # x) and grows exponentially with it once the start-up transient
        # has passed (t = 0.4).  Atwood 0.5 at g = 1.5 keeps the
        # hydrostatic pressure positive up to the top wall; two
        # refinement levels resolve the mode (sigma ~ 2.3 against the
        # inviscid 3.1).
        drive = dict(gravity=1.5, rho_heavy=3.0)
        cfg = replace(rayleigh_taylor().config, max_level=2)

        def max_ux(sim):
            return max(
                float(np.abs(sim.scheme.cons_to_prim(b.interior)[1]).max())
                for b in sim.forest
            )

        still = rayleigh_taylor(amplitude=0.0, config=cfg, **drive).build(
            initial_adapt_rounds=1
        )
        still.run(t_end=0.1)
        assert max_ux(still) == 0.0
        sim = rayleigh_taylor(amplitude=0.01, config=cfg, **drive).build(
            initial_adapt_rounds=1
        )
        sim.run(t_end=0.4)
        v0 = max_ux(sim)
        sim.run(t_end=1.0)
        assert_finite(sim)
        assert max_ux(sim) > 2.5 * v0 > 0.0  # exponential buoyant growth

    def test_reflecting_walls_trap_mass(self):
        from repro.amr import rayleigh_taylor

        p = rayleigh_taylor()
        sim = p.build(adaptive=False)
        m0 = sim.total()
        sim.run(t_end=0.5)
        assert sim.total() == pytest.approx(m0, rel=1e-10)

    def test_mirror_symmetry(self):
        # The cosine seed is even in x: the solution stays x-mirror
        # symmetric about the domain center.
        from repro.amr import rayleigh_taylor
        from repro.amr.sampling import resample_uniform

        p = rayleigh_taylor()
        sim = p.build(adaptive=False)
        sim.run(t_end=0.6)
        rho = resample_uniform(sim.forest, 0, var=0)
        np.testing.assert_allclose(rho, rho[::-1, :], rtol=1e-7, atol=1e-9)

    def test_gravity_validation(self):
        from repro.solvers import EulerScheme

        with pytest.raises(ValueError):
            EulerScheme(2, gravity=(1.0,))
        # All-zero gravity is dropped (no source allocated).
        sch = EulerScheme(2, gravity=(0.0, 0.0))
        assert sch.gravity is None


class TestKelvinHelmholtz:
    def test_shear_layer_rolls_up(self):
        from repro.amr import kelvin_helmholtz
        from repro.amr.sampling import resample_uniform

        # KH needs resolution: 64^2 uniform (numerical diffusion kills
        # the mode on very coarse grids).  The seed radiates a sound
        # transient first, so growth is measured after t = 0.4.
        cfg = SimulationConfig(
            domain=Box((0.0, 0.0), (1.0, 1.0)), n_root=(8, 8), m=(8, 8),
            periodic=(True, True), max_level=1,
        )
        p = kelvin_helmholtz(amplitude=0.05, config=cfg)
        sim = p.build(adaptive=False)
        sim.run(t_end=0.4)
        uy0 = np.abs(resample_uniform(sim.forest, 0)[2]).max()
        sim.run(t_end=1.2)
        assert_finite(sim)
        uy1 = np.abs(resample_uniform(sim.forest, 0)[2]).max()
        assert uy1 > 1.8 * uy0  # the billows grew

    def test_mass_and_x_momentum_conserved(self):
        from repro.amr import kelvin_helmholtz

        p = kelvin_helmholtz()
        sim = p.build(adaptive=False)
        m0, px0 = sim.total(0), sim.total(1)
        sim.run(n_steps=10)
        assert sim.total(0) == pytest.approx(m0, rel=1e-12)
        assert sim.total(1) == pytest.approx(px0, abs=1e-12)

    def test_amr_tracks_the_interface(self):
        from repro.amr import kelvin_helmholtz

        p = kelvin_helmholtz()
        sim = p.build(initial_adapt_rounds=2)
        # Finest blocks hug the two shear interfaces (y = 0.25, 0.75).
        top = sim.forest.levels[1]
        assert top >= 2
        for b in sim.forest:
            if b.level == top:
                yc = b.box.center[1]
                assert min(abs(yc - 0.25), abs(yc - 0.75)) < 0.2


class TestMHDRotor:
    def test_rotor_stable_and_positive(self):
        from repro.amr import mhd_rotor

        p = mhd_rotor()
        sim = p.build(initial_adapt_rounds=2)
        sim.run(t_end=0.05)
        assert_finite(sim)
        for b in sim.forest:
            w = p.scheme.cons_to_prim(b.interior)
            assert w[0].min() > 0 and w[4].min() > 0

    def test_torsional_waves_launch(self):
        # The spinning disc twists the field: By (initially zero)
        # develops as Alfven waves carry angular momentum outward.
        from repro.amr import mhd_rotor
        from repro.amr.sampling import resample_uniform

        p = mhd_rotor()
        sim = p.build(adaptive=False)
        by0 = np.abs(resample_uniform(sim.forest, 0)[6]).max()
        assert by0 < 1e-12
        sim.run(t_end=0.05)
        by1 = np.abs(resample_uniform(sim.forest, 0)[6]).max()
        assert by1 > 0.05

    def test_rotational_antisymmetry(self):
        # Initial uy is odd under (x, y) -> (-x, -y); the dynamics keep
        # the point antisymmetry (Bx background is even).
        from repro.amr import mhd_rotor
        from repro.amr.sampling import resample_uniform

        p = mhd_rotor()
        sim = p.build(adaptive=False)
        sim.run(t_end=0.03)
        uy = resample_uniform(sim.forest, 0)[2]
        np.testing.assert_allclose(uy, -uy[::-1, ::-1], atol=1e-8)
