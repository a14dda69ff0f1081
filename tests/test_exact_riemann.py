"""Tests for the exact Euler Riemann solver and the HLLC flux."""

import numpy as np
import pytest

from repro.solvers import EulerScheme
from repro.solvers.exact import exact_riemann, sample_riemann, sod_solution
from repro.solvers.riemann import hllc


class TestExactRiemann:
    def test_sod_star_state(self):
        # Toro, Table 4.1 test 1.
        s = exact_riemann(1.0, 0.0, 1.0, 0.125, 0.0, 0.1)
        assert s.p_star == pytest.approx(0.30313, abs=1e-4)
        assert s.u_star == pytest.approx(0.92745, abs=1e-4)
        assert s.rho_star_l == pytest.approx(0.42632, abs=1e-4)
        assert s.rho_star_r == pytest.approx(0.26557, abs=1e-4)

    def test_123_problem(self):
        # Toro test 2: double rarefaction, near-vacuum star region.
        s = exact_riemann(1.0, -2.0, 0.4, 1.0, 2.0, 0.4)
        assert s.p_star == pytest.approx(0.00189, abs=2e-4)
        assert s.u_star == pytest.approx(0.0, abs=1e-6)

    def test_strong_shock(self):
        # Toro test 3: left blast, p* ~ 460.894.
        s = exact_riemann(1.0, 0.0, 1000.0, 1.0, 0.0, 0.01)
        assert s.p_star == pytest.approx(460.894, rel=1e-3)
        assert s.u_star == pytest.approx(19.5975, rel=1e-3)

    def test_symmetric_collision(self):
        s = exact_riemann(1.0, 2.0, 1.0, 1.0, -2.0, 1.0)
        assert s.u_star == pytest.approx(0.0, abs=1e-10)
        assert s.rho_star_l == pytest.approx(s.rho_star_r, rel=1e-10)
        assert s.p_star > 1.0  # compression

    def test_trivial_contact(self):
        # Identical pressure/velocity, different density: pure contact.
        s = exact_riemann(1.0, 0.5, 1.0, 0.25, 0.5, 1.0)
        assert s.p_star == pytest.approx(1.0, rel=1e-10)
        assert s.u_star == pytest.approx(0.5, rel=1e-10)

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError, match="vacuum"):
            exact_riemann(1.0, -10.0, 0.01, 1.0, 10.0, 0.01)

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            exact_riemann(-1.0, 0.0, 1.0, 1.0, 0.0, 1.0)


class TestSampling:
    def test_sod_regions(self):
        x = np.linspace(0, 1, 1001)
        rho, u, p = sod_solution(x, 0.2)
        # Undisturbed states far left/right.
        assert rho[0] == pytest.approx(1.0)
        assert rho[-1] == pytest.approx(0.125)
        # Star states between contact (x~0.685) and shock (x~0.850).
        mid = (x > 0.70) & (x < 0.84)
        np.testing.assert_allclose(rho[mid], 0.26557, rtol=1e-3)
        np.testing.assert_allclose(p[mid], 0.30313, rtol=1e-3)
        # The rarefaction fan is smooth and monotone.
        fan = (x > 0.27) & (x < 0.48)
        assert np.all(np.diff(rho[fan]) < 0)

    def test_t0_is_initial_condition(self):
        x = np.array([0.2, 0.8])
        rho, u, p = sod_solution(x, 0.0)
        np.testing.assert_allclose(rho, [1.0, 0.125])
        np.testing.assert_allclose(u, 0.0)

    def test_self_similarity(self):
        x = np.linspace(0, 1, 101)
        r1 = sod_solution(x, 0.1)[0]
        # Doubling both (x - x0) and t gives the same solution.
        x2 = 0.5 + 2 * (x - 0.5)
        r2 = sod_solution(x2, 0.2)[0]
        np.testing.assert_allclose(r1, r2, rtol=1e-12)

    def test_shock_satisfies_rankine_hugoniot(self):
        rho_l, u_l, p_l = 1.0, 0.0, 1000.0
        rho_r, u_r, p_r = 1.0, 0.0, 0.01
        gamma = 1.4
        star = exact_riemann(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma)
        # Right shock speed from mass conservation across the jump.
        s = (star.rho_star_r * star.u_star - rho_r * u_r) / (
            star.rho_star_r - rho_r
        )
        # Momentum flux continuity across the shock.
        left_flux = star.rho_star_r * star.u_star * (star.u_star - s) + star.p_star
        right_flux = rho_r * u_r * (u_r - s) + p_r
        assert left_flux == pytest.approx(right_flux, rel=1e-6)


class TestHLLCFlux:
    def setup_method(self):
        self.scheme = EulerScheme(1, 1.4, riemann="hllc")

    def test_consistency_with_physical_flux(self):
        # Identical left/right states: the numerical flux is the flux.
        w = np.array([[1.0], [0.5], [2.0]])
        f = hllc(self.scheme, np.stack((w, w), axis=1), 0)
        np.testing.assert_allclose(f, self.scheme.flux(w, 0), rtol=1e-12)

    def test_supersonic_upwinding(self):
        wl = np.array([[1.0], [10.0], [1.0]])   # fast rightward flow
        wr = np.array([[0.5], [10.0], [0.5]])
        f = hllc(self.scheme, np.stack((wl, wr), axis=1), 0)
        np.testing.assert_allclose(f, self.scheme.flux(wl, 0), rtol=1e-12)

    def test_resolves_stationary_contact_exactly(self):
        # HLLC's defining property (HLL smears this).
        wl = np.array([[1.0], [0.0], [1.0]])
        wr = np.array([[0.25], [0.0], [1.0]])
        from repro.solvers.riemann import hll

        f_hllc = hllc(self.scheme, np.stack((wl, wr), axis=1), 0)
        f_hll = hll(self.scheme, np.stack((wl, wr), axis=1), 0)
        assert abs(f_hllc[0, 0]) < 1e-12            # no mass flux
        assert abs(f_hll[0, 0]) > 1e-3              # HLL leaks mass

    def test_sod_more_accurate_than_hll(self):
        def sod_err(riemann, n=200):
            g = 2
            sch = EulerScheme(1, 1.4, order=2, riemann=riemann, limiter="mc")
            xs = (np.arange(n) + 0.5) / n
            w = np.stack(
                [
                    np.where(xs < 0.5, 1.0, 0.125),
                    np.zeros(n),
                    np.where(xs < 0.5, 1.0, 0.1),
                ]
            )
            u = np.zeros((3, n + 4))
            u[:, 2:-2] = sch.prim_to_cons(w)

            def fill(a):
                a[:, :2] = a[:, 2:3]
                a[:, -2:] = a[:, -3:-2]

            t = 0.0
            while t < 0.2 - 1e-14:
                dt = min(sch.stable_dt(u, (1 / n,), 1), 0.2 - t)
                sch.step_midpoint(u, (1 / n,), dt, 2, fill)
                t += dt
            we = sch.cons_to_prim(u[:, 2:-2])
            rho_exact, _, _ = sod_solution(xs, 0.2)
            return float(np.abs(we[0] - rho_exact).mean())

        assert sod_err("hllc") < sod_err("hll") < sod_err("rusanov")

    def test_mhd_scheme_falls_back_to_hll(self):
        from repro.solvers import MHDScheme
        from repro.solvers.riemann import hll

        mhd = MHDScheme(1, riemann="hllc")
        w = np.zeros((8, 3))
        w[0], w[4] = 1.0, 1.0
        w[5] = 0.5
        wl, wr = w.copy(), w.copy()
        wr[0] = 0.5
        np.testing.assert_allclose(
            hllc(mhd, np.stack((wl, wr), axis=1), 0),
            hll(mhd, np.stack((wl, wr), axis=1), 0), rtol=1e-12
        )
