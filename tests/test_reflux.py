"""Tests for coarse–fine flux correction (repro.core.reflux)."""

import numpy as np
import pytest

from oracle import apply_reflux_reference
from repro.amr import Simulation, advecting_pulse
from repro.amr.driver import Simulation as Sim
from repro.core import BlockForest, BlockID, FluxRegister
from repro.solvers import AdvectionScheme, EulerScheme
from repro.util.geometry import Box


def amr_forest(nvar=1, periodic=(True, True), m=(8, 8)):
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (2, 2), m, nvar=nvar,
        n_ghost=2, periodic=periodic, max_level=3,
    )
    f.adapt([BlockID(0, (0, 0)), BlockID(0, (1, 1))])
    f.adapt([BlockID(1, (1, 1)), BlockID(1, (0, 1))])
    return f


class TestFluxRegister:
    def test_interfaces_found(self):
        f = amr_forest()
        reg = FluxRegister(f)
        assert reg.n_interfaces > 0
        # Every interface's coarse side lists fine neighbors one level up.
        for (cid, face), fine_ids in reg.interfaces.items():
            for nid in fine_ids:
                assert nid.level == cid.level + 1

    def test_uniform_forest_has_no_interfaces(self):
        f = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=1, n_ghost=2
        )
        assert FluxRegister(f).n_interfaces == 0

    def test_jump2_rejected(self):
        f = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=1,
            n_ghost=2, max_level_jump=2,
        )
        with pytest.raises(ValueError):
            FluxRegister(f)

    def test_stale_register_rejected(self):
        f = amr_forest()
        reg = FluxRegister(f)
        f.adapt([next(iter(f.blocks))])
        with pytest.raises(RuntimeError):
            reg.apply(0.1)

    def test_missing_flux_rejected(self):
        f = amr_forest()
        reg = FluxRegister(f)
        reg.start_step()
        with pytest.raises(RuntimeError, match="no recorded flux"):
            reg.apply(0.1)

    def test_needed_faces_cover_both_sides(self):
        f = amr_forest()
        reg = FluxRegister(f)
        for (cid, face), fine_ids in reg.interfaces.items():
            assert face in reg.needed_faces[cid]
            for nid in fine_ids:
                assert (face ^ 1) in reg.needed_faces[nid]


def random_forest(ndim, seed):
    """A balanced forest refined at random cells, three rounds deep,
    with random data and some periodic axes."""
    rng = np.random.default_rng(seed)
    f = BlockForest(
        Box((0.0,) * ndim, (1.0,) * ndim), (2,) * ndim, (4, 6, 8)[:ndim], nvar=2,
        n_ghost=2, periodic=tuple(bool(p) for p in rng.integers(0, 2, ndim)),
        max_level=3,
    )
    for _ in range(3):
        ids = sorted(f.blocks)
        f.adapt([ids[i] for i in rng.choice(len(ids), len(ids) // 4 + 1, replace=False)])
    for b in f:
        b.data[...] = rng.standard_normal(b.data.shape)
    return f, rng


@pytest.mark.parametrize("accumulate", [False, True], ids=["record", "accumulate"])
@pytest.mark.parametrize("ndim,seed", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_compiled_apply_matches_reference(ndim, seed, accumulate):
    """The compiled ``apply`` ≡ the geometry-walking one, byte for byte,
    on the first call (which compiles), and on a later one after the
    arena moved every row."""
    f, rng = random_forest(ndim, seed)
    reg = FluxRegister(f)
    assert reg.n_interfaces > 0
    reg.start_step()
    for bid, faces in reg.needed_faces.items():
        for face in sorted(faces):
            shape = (f.nvar,) + tuple(mi for a, mi in enumerate(f.m) if a != face // 2)
            if accumulate:  # two substeps' worth, as subcycling feeds it
                for weight in rng.uniform(0.01, 0.1, 2):
                    reg.accumulate(bid, {face: rng.standard_normal(shape)}, float(weight))
            else:
                reg.record(bid, {face: rng.standard_normal(shape)})
    dt = 1.0 if accumulate else float(rng.uniform(0.01, 0.1))
    start = {bid: b.data.copy() for bid, b in f.blocks.items()}

    def state():
        return b"".join(f.blocks[bid].data.tobytes() for bid in sorted(f.blocks))

    apply_reflux_reference(reg, dt)
    want = state()
    assert want != b"".join(start[bid].tobytes() for bid in sorted(f.blocks))
    for reorder in (False, True):
        if reorder:
            f.arena.ensure_compact([f.blocks[bid] for bid in sorted(f.blocks, reverse=True)])
        for bid, b in f.blocks.items():
            b.data[...] = start[bid]
        reg.apply(dt)
        assert state() == want


def run_conservation(scheme_factory, init, reflux, steps=15):
    f = amr_forest(nvar=scheme_factory().nvar)
    scheme = scheme_factory()
    for b in f:
        X, Y = b.meshgrid()
        b.interior[...] = scheme.prim_to_cons(init(X, Y))
    sim = Sim(f, scheme, reflux=reflux)
    m0 = sim.total()
    sim.run(n_steps=steps)
    return abs(sim.total() - m0) / abs(m0)


class TestConservation:
    def test_advection_reflux_exact(self):
        def init(X, Y):
            return np.exp(-60 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))[np.newaxis]

        drift_off = run_conservation(lambda: AdvectionScheme((1.0, 0.5)), init, False)
        drift_on = run_conservation(lambda: AdvectionScheme((1.0, 0.5)), init, True)
        assert drift_off > 1e-6      # interface error is real
        assert drift_on < 1e-13      # and refluxing removes it

    def test_euler_mass_reflux_exact(self):
        def init(X, Y):
            return np.stack(
                [
                    1.0 + 0.3 * np.exp(-60 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)),
                    0.4 * np.ones_like(X),
                    0.2 * np.ones_like(X),
                    np.ones_like(X),
                ]
            )

        drift_on = run_conservation(lambda: EulerScheme(2, order=2), init, True)
        assert drift_on < 1e-12

    def test_first_order_scheme_reflux(self):
        def init(X, Y):
            return np.exp(-60 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))[np.newaxis]

        drift_on = run_conservation(
            lambda: AdvectionScheme((1.0, 0.0), order=1), init, True
        )
        assert drift_on < 1e-13

    def test_constant_state_unchanged_by_reflux(self):
        f = amr_forest()
        scheme = AdvectionScheme((1.0, 1.0))
        for b in f:
            b.interior[...] = 2.5
        sim = Sim(f, scheme, reflux=True)
        sim.run(n_steps=3)
        for b in f:
            np.testing.assert_allclose(b.interior, 2.5, rtol=1e-13)

    def test_reflux_solution_still_accurate(self):
        # Refluxing must not degrade accuracy: error with reflux stays
        # within a hair of the error without.
        p = advecting_pulse(2)
        errs = {}
        for reflux in (False, True):
            q = advecting_pulse(2)
            sim = q.build()
            sim.reflux = reflux
            sim.run(t_end=0.1)
            errs[reflux] = sim.error_vs(q.exact(sim.time))
        assert errs[True] < 1.5 * errs[False] + 1e-6

    def test_register_rebuilt_after_adapt(self):
        p = advecting_pulse(2)
        sim = p.build()
        sim.reflux = True
        sim.run(n_steps=6)  # includes adaptation steps
        # If the register were stale this would have raised; sanity:
        assert sim._register is not None
        assert sim._register.revision == sim.forest.revision
