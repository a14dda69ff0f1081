"""Kernel-backend registry, numba-missing fallback, and per-op contract.

The registry (`repro.kernels`) must hand out cached process-wide
backends, reject unknown names with the available list, and degrade
``numba`` to the numpy reference (one warning, identical results) when
the jit extra is absent.  The per-op tests pin the `KernelBackend`
contract the engines rely on: hooks may decline (returning ``None``),
always-implemented ops match the reference arithmetic exactly, and the
numba ops — exercised only where the extra is installed, via
``pytest.importorskip`` (REPRO108 bans a bare import here) — are
bit-for-bit against the numpy machinery.
"""

import pickle
import sys
import warnings

import numpy as np
import pytest

from repro.amr import Simulation, advecting_pulse
from repro.kernels import (
    BACKEND_NAMES,
    NumpyBackend,
    available_backends,
    get_backend,
    numba_available,
    reset_backends,
)
from repro.solvers import AdvectionScheme, EulerScheme
from repro.solvers.mhd import MHDScheme
from repro.solvers.sweep import BATCH_TILE_BYTES, tile_rows


def assert_forests_identical(a, b):
    assert sorted(a.blocks) == sorted(b.blocks)
    for bid in a.blocks:
        assert np.array_equal(a.blocks[bid].interior, b.blocks[bid].interior), bid


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_default_is_numpy(self):
        b = get_backend()
        assert b.name == "numpy"
        assert isinstance(b, NumpyBackend)
        assert b is get_backend("numpy")

    def test_instances_are_process_wide(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_backend_lists_registry(self):
        with pytest.raises(ValueError, match="unknown kernel backend 'bogus'"):
            get_backend("bogus")
        with pytest.raises(ValueError, match="numpy, numba"):
            get_backend("bogus")

    def test_backend_names_registry(self):
        assert BACKEND_NAMES == ("numpy", "numba")
        avail = available_backends()
        assert "numpy" in avail
        assert set(avail) <= set(BACKEND_NAMES)
        # numba's availability report must agree with the listing
        assert ("numba" in avail) == numba_available()

    def test_pickle_resolves_process_instance(self):
        # schemes (and their backend) cross process boundaries in the
        # process-parallel backend; compiled JIT kernels are not
        # picklable, so backends pickle by name
        b = get_backend("numpy")
        assert pickle.loads(pickle.dumps(b)) is b

    def test_stats_shape(self):
        s = get_backend("numpy").stats()
        assert set(s) == {
            "backend", "dispatches", "fallbacks", "compile_s", "n_compiled",
        }
        assert s["backend"] == "numpy"


# ---------------------------------------------------------------------------
# numba-missing fallback
# ---------------------------------------------------------------------------


@pytest.fixture
def no_numba(monkeypatch):
    """Simulate an environment without the jit extra installed."""
    # A None entry makes `import numba` raise ImportError; dropping the
    # backend module forces get_backend to re-attempt that import.
    monkeypatch.setitem(sys.modules, "numba", None)
    monkeypatch.delitem(sys.modules, "repro.kernels.numba_backend", raising=False)
    reset_backends()
    yield
    reset_backends()


class TestNumbaFallback:
    def test_fallback_selects_numpy_and_warns_once(self, no_numba):
        with pytest.warns(RuntimeWarning, match="falling back to the 'numpy'"):
            b = get_backend("numba")
        assert b is get_backend("numpy")
        # the warning is one-time: later requests are silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend("numba") is b

    def test_fallback_reported_unavailable(self, no_numba):
        assert not numba_available()
        assert available_backends() == ("numpy",)

    def test_fallback_results_identical(self, no_numba):
        problem = advecting_pulse(ndim=2)
        ref = problem.build(engine="batched", kernel_backend="numpy")
        with ref:
            for _ in range(4):
                ref.step()
        with pytest.warns(RuntimeWarning, match="falling back"):
            fell = problem.build(engine="batched", kernel_backend="numba")
        with fell:
            for _ in range(4):
                fell.step()
        assert fell.scheme.kernels.name == "numpy"
        assert_forests_identical(ref.forest, fell.forest)
        assert [r.dt for r in ref.history] == [r.dt for r in fell.history]

    def test_reset_rearms_the_warning(self, no_numba):
        with pytest.warns(RuntimeWarning):
            get_backend("numba")
        reset_backends()
        with pytest.warns(RuntimeWarning):
            get_backend("numba")


# ---------------------------------------------------------------------------
# per-op contract (numpy reference backend)
# ---------------------------------------------------------------------------


class TestNumpyOps:
    def test_hooks_decline_and_count(self):
        b = NumpyBackend()
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        u = np.zeros((3, 1, 12, 12))
        before = b.dispatches
        assert b.flux_divergence(scheme, u, [0.1, 0.1], 2, ndim=2) is None
        assert b.max_signal_speed_tile(scheme, u, 2) is None
        assert b.dispatches == before + 2

    def test_scatter_ghosts_is_flat_assignment(self):
        b = NumpyBackend()
        rng = np.random.default_rng(7)
        flat = rng.random(64)
        dst = np.array([1, 5, 9], dtype=np.intp)
        src = np.array([40, 41, 42], dtype=np.intp)
        want = flat.copy()
        want[dst] = want[src]
        b.scatter_ghosts(flat, dst, src)
        assert np.array_equal(flat, want)

    @pytest.mark.parametrize("limiter", ["minmod", "van_leer", "mc", "superbee"])
    def test_apply_limiter_matches_scheme(self, limiter):
        scheme = EulerScheme(2, limiter=limiter)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 9))
        bb = rng.standard_normal((4, 9))
        got = NumpyBackend().apply_limiter(scheme, a, bb)
        assert np.array_equal(got, scheme.limiter(a, bb))

    def test_riemann_flux_matches_scheme(self):
        scheme = EulerScheme(2)
        rng = np.random.default_rng(13)
        wl = np.abs(rng.standard_normal((4, 6))) + 0.5
        wr = np.abs(rng.standard_normal((4, 6))) + 0.5
        got = NumpyBackend().riemann_flux(scheme, wl, wr, 0)
        assert np.array_equal(got, scheme.riemann(scheme, wl, wr, 0))


# ---------------------------------------------------------------------------
# numba backend ops (skipped without the jit extra)
# ---------------------------------------------------------------------------


def _padded_state(scheme, ndim, g=2, m=8, b=3, seed=5):
    rng = np.random.default_rng(seed)
    shape = (b, scheme.nvar) + (m + 2 * g,) * ndim
    w = np.abs(rng.standard_normal(shape)) + 0.5
    u = np.empty_like(w)
    for i in range(b):
        u[i] = scheme.prim_to_cons(w[i])
    return np.ascontiguousarray(u)


class TestNumbaOps:
    @pytest.mark.parametrize(
        "scheme_factory",
        [
            lambda: AdvectionScheme((1.0, 0.5), order=2),
            lambda: EulerScheme(2),
            lambda: MHDScheme(2),
        ],
    )
    def test_flux_divergence_bitwise(self, scheme_factory):
        pytest.importorskip("numba")
        nb = get_backend("numba")
        scheme = scheme_factory()
        u = _padded_state(scheme, ndim=2)
        got = nb.flux_divergence(scheme, u.copy(), [0.1, 0.2], 2, ndim=2)
        assert got is not None
        ref = scheme.flux_divergence(u.copy(), [0.1, 0.2], 2, ndim=2)
        assert np.array_equal(got, ref)

    def test_flux_divergence_honors_out(self):
        pytest.importorskip("numba")
        nb = get_backend("numba")
        scheme = MHDScheme(2)
        u = _padded_state(scheme, ndim=2)
        out = np.empty((u.shape[0], scheme.nvar, 8, 8))
        got = nb.flux_divergence(scheme, u, [0.1, 0.1], 2, ndim=2, out=out)
        assert got is out

    def test_max_signal_speed_tile_bitwise(self):
        pytest.importorskip("numba")
        nb = get_backend("numba")
        scheme = MHDScheme(2)
        u = _padded_state(scheme, ndim=2)
        tile = np.ascontiguousarray(u[:, :, 2:-2, 2:-2])
        got = nb.max_signal_speed_tile(scheme, tile, 2)
        assert got is not None
        ref = scheme.max_signal_speed_batched(
            np.moveaxis(tile, 0, 1).copy(), 2
        )
        assert np.array_equal(got, ref)

    def test_compile_accounting(self):
        pytest.importorskip("numba")
        nb = get_backend("numba")
        scheme = EulerScheme(2)
        u = _padded_state(scheme, ndim=2)
        assert nb.flux_divergence(scheme, u, [0.1, 0.1], 2, ndim=2) is not None
        stats = nb.stats()
        assert stats["backend"] == "numba"
        assert stats["n_compiled"] >= 1
        assert stats["compile_s"] > 0.0

    def test_declines_unsupported_combo(self):
        pytest.importorskip("numba")
        nb = get_backend("numba")
        scheme = EulerScheme(2, riemann="hllc")
        u = _padded_state(scheme, ndim=2)
        before = nb.fallbacks
        assert nb.flux_divergence(scheme, u, [0.1, 0.1], 2, ndim=2) is None
        assert nb.fallbacks > before


# ---------------------------------------------------------------------------
# Simulation / tile-size wiring
# ---------------------------------------------------------------------------


class TestSimulationWiring:
    def test_kernel_backend_attaches_to_scheme(self):
        problem = advecting_pulse(ndim=2)
        sim = problem.build(kernel_backend="numpy")
        assert sim.scheme.kernels is get_backend("numpy")
        sim.close()

    def test_config_rejects_unknown_backend(self):
        from dataclasses import replace

        problem = advecting_pulse(ndim=2)
        with pytest.raises(ValueError, match="kernel_backend"):
            replace(problem.config, kernel_backend="warp")

    def test_tile_bytes_param(self):
        # the tile is not a setting any more: constructor and CLI reject it
        problem = advecting_pulse(ndim=2)
        forest = problem.config.make_forest(problem.scheme.nvar)
        with pytest.raises(TypeError, match="batch_tile_bytes"):
            Simulation(forest, problem.scheme, batch_tile_bytes=8192)
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--tile-bytes", "8192"])

    def test_tile_bytes_env_var(self, monkeypatch, capsys):
        # ...and neither library nor CLI reads the old env var
        from repro.cli import main

        monkeypatch.setenv("REPRO_BATCH_TILE_BYTES", "zork")
        assert main(["run", "pulse", "--steps", "1"]) == 0
        assert "final grid" in capsys.readouterr().out

    def test_default_tile_bytes(self):
        # both rows-per-call modes, computed exactly as the rank workers do
        with advecting_pulse(ndim=2).build() as sim:
            row_bytes = sim.forest.arena.pool[:1].nbytes
            assert sim.sweep_tile() == tile_rows(row_bytes)
            assert tile_rows(row_bytes) == max(8, BATCH_TILE_BYTES // row_bytes)
            sim.engine = "blocked"
            assert sim.sweep_tile() == 1

    def test_tile_bytes_reaches_tile_rows(self):
        assert tile_rows(1024, 4096) == 8  # the floor
        assert tile_rows(1024, 4096 * 64) == 256
        assert tile_rows(10**9) == 8


# ---------------------------------------------------------------------------
# per-backend bench comparison
# ---------------------------------------------------------------------------


class TestBenchPerBackend:
    RECORD = {
        "name": "batched_engine",
        "workload": "w",
        "cases": [
            {
                "ndim": 2,
                "kernel_backend": "numpy",
                "speedup": 4.0,
                "blocked": {"us_per_cell": 2.0},
                "batched": {"us_per_cell": 0.5},
            },
            {
                "ndim": 2,
                "kernel_backend": "numba",
                "speedup": 10.0,
                "blocked": {"us_per_cell": 2.0},
                "batched": {"us_per_cell": 0.2},
            },
        ],
    }

    def test_backends_compared_independently(self):
        from repro.obs.report import compare_to_bench

        # 0.6 us/cell would be fine against numpy's 0.5 but is 3x the
        # numba reference — the numba profile must flag, numpy must not.
        profiles = [
            {"engine": "batched", "us_per_cell": 0.6, "ndim": 2,
             "workload": "w", "kernel_backend": "numpy"},
            {"engine": "batched", "us_per_cell": 0.6, "ndim": 2,
             "workload": "w", "kernel_backend": "numba"},
        ]
        flags = compare_to_bench(profiles, self.RECORD)
        assert len(flags) == 1
        assert flags[0].startswith("batched[numba]:")

    def test_speedup_floor_is_per_backend(self):
        from repro.obs.report import compare_to_bench

        profiles = [
            {"engine": "blocked", "us_per_cell": 2.0,
             "kernel_backend": "numba"},
            {"engine": "batched", "us_per_cell": 1.0,
             "kernel_backend": "numba"},
        ]
        # 2x observed vs a 10x committed numba floor (5x after tolerance)
        flags = compare_to_bench(profiles, self.RECORD)
        assert any(f.startswith("batched[numba] speedup") for f in flags)
        # same numbers under numpy (4x floor -> 2x tolerance) pass
        profiles = [
            {"engine": "blocked", "us_per_cell": 2.0},
            {"engine": "batched", "us_per_cell": 1.0},
        ]
        assert compare_to_bench(profiles, self.RECORD) == []

    def test_untagged_record_treated_as_numpy(self):
        from repro.obs.report import compare_to_bench

        record = {
            "name": "batched_engine",
            "workload": "w",
            "cases": [
                {"ndim": 2, "speedup": 4.0,
                 "blocked": {"us_per_cell": 2.0},
                 "batched": {"us_per_cell": 0.5}},
            ],
        }
        profiles = [
            {"engine": "batched", "us_per_cell": 10.0, "ndim": 2,
             "workload": "w"},
        ]
        flags = compare_to_bench(profiles, record)
        assert len(flags) == 1 and flags[0].startswith("batched:")

    def test_backend_equivalence_check_trivial_without_numba(self):
        from repro.analysis.engine_bench import (
            BenchCase,
            check_backend_equivalence,
        )

        # with one backend available the check degenerates to True
        assert check_backend_equivalence(
            BenchCase(2, 4, 2, 2), steps=1, backends=["numpy"]
        )
