"""Production ``PoolSweep`` against the per-block oracle, bit for bit.

Every stage update in ``src/`` is :class:`repro.solvers.sweep.PoolSweep`;
``tests/oracle.py`` is the hand-written per-block update it replaced.
Each case runs the same simulation twice — once with the oracle patched
in — through mid-run adaptations, and compares every dt and the final
state exactly.  (Tile invariance of ``PoolSweep`` itself is pinned in
``test_batched_engine.py::test_batch_tile_invariance``.)
"""

import numpy as np
import pytest

from oracle import use_oracle
from repro.amr import Simulation
from repro.core import BlockForest, BlockID
from repro.core.refine_criteria import RefinementCriterion
from repro.parallel import EmulatedMachine
from repro.solvers import AdvectionScheme, stable_dt
from repro.solvers.euler import EulerScheme
from repro.solvers.mhd import MHDScheme
from repro.solvers.shallow_water import ShallowWaterScheme
from repro.util.geometry import Box

FLOOR = 1.1  # inside the initial density range [1.0, 1.2]: it fires
#: name -> (factory(ndim), dimensions it runs in)
SCHEMES = {
    "advection-o1": (lambda d: AdvectionScheme((1.0, 0.5, 0.25)[:d], order=1), (1, 2, 3)),
    "advection-minmod": (
        lambda d: AdvectionScheme((1.0, 0.5, 0.25)[:d], limiter="minmod"), (1, 2, 3)),
    "euler-o1": (lambda d: EulerScheme(d, order=1), (2,)),
    "euler-superbee": (lambda d: EulerScheme(d, limiter="superbee"), (1, 2, 3)),
    "euler-floored": (lambda d: EulerScheme(d, rho_floor=FLOOR), (2,)),
    "shallow-water": (lambda d: ShallowWaterScheme(d), (1, 2)),
    "mhd-mc": (lambda d: MHDScheme(d, limiter="mc"), (2, 3)),
    "mhd-o1": (lambda d: MHDScheme(d, order=1), (1,)),
}
CASES = [(name, d) for name, (_, dims) in SCHEMES.items() for d in dims]
MODES = pytest.mark.parametrize("subcycle", [False, True], ids=["global", "subcycled"])


def make_forest(scheme, ndim):
    """Two-level periodic forest carrying a smooth bump."""
    forest = BlockForest(
        Box((0.0,) * ndim, (1.0,) * ndim), (2,) * ndim, (4,) * ndim,
        nvar=scheme.nvar, n_ghost=2, periodic=(True,) * ndim, max_level=2,
    )
    forest.adapt([BlockID(0, (1,) * ndim)])
    for b in forest:
        bump = np.exp(-sum((x - 0.5) ** 2 for x in b.meshgrid()) / 0.02)
        w = np.full((scheme.nvar,) + bump.shape, 0.1)
        w[0] = 1.0 + 0.2 * bump
        if isinstance(scheme, EulerScheme):
            w[-1] = 1.0  # pressure
        if isinstance(scheme, MHDScheme):
            w[4], w[5:] = 1.0, 0.2  # pressure, field
        b.interior[...] = scheme.prim_to_cons(w)
    return forest


def near_corner(block):
    """Refine around a fixed point, coarsen everywhere else: every check
    changes the topology (rows are acquired, released and recompacted)."""
    return float(all(lo <= 0.3 <= hi for lo, hi in zip(block.box.lo, block.box.hi)))


def run(scheme, ndim, **kw):
    """Four CFL-limited steps adapting at steps 0 and 2; returns
    (dts, {block id: interior})."""
    sim = Simulation(
        make_forest(scheme, ndim), scheme, adapt_interval=2, buffer_band=0,
        criterion=RefinementCriterion(near_corner, 0.5, 0.25, max_level=2), **kw,
    )
    for _ in range(4):
        sim.step()
    if not kw.get("subcycle"):
        # the pooled CFL reduction against the per-block loop
        assert sim.stable_dt() == stable_dt(sim.forest, scheme)
    assert len({r.n_blocks for r in sim.history}) > 1, "never adapted"
    return [r.dt for r in sim.history], {b.id: b.interior.copy() for b in sim.forest}


def assert_same(a, b):
    (dts_a, state_a), (dts_b, state_b) = a, b
    assert dts_a == dts_b
    assert sorted(state_a) == sorted(state_b)
    for bid in state_a:
        np.testing.assert_array_equal(state_a[bid], state_b[bid], err_msg=str(bid))


@pytest.mark.parametrize("reflux", [False, True], ids=["", "reflux"])
@MODES
@pytest.mark.parametrize("name,ndim", CASES)
def test_sweep_matches_oracle(name, ndim, subcycle, reflux, monkeypatch):
    make = SCHEMES[name][0]
    swept = run(make(ndim), ndim, subcycle=subcycle, reflux=reflux)
    if name == "euler-floored" and not reflux:  # the floors provably fire
        # (a reflux correction lands after the floors and may dip under)
        assert min(b.interior[0].min() for b in make_forest(make(ndim), ndim)) < FLOOR
        assert min(u[0].min() for u in swept[1].values()) >= FLOOR
    use_oracle(monkeypatch)
    assert_same(swept, run(make(ndim), ndim, subcycle=subcycle, reflux=reflux))


@MODES
def test_sanitized_sweep_matches_oracle(subcycle, monkeypatch):
    kw = dict(subcycle=subcycle, reflux=True)
    swept = run(MHDScheme(2), 2, sanitize=True, **kw)
    assert_same(swept, run(MHDScheme(2), 2, **kw))
    use_oracle(monkeypatch)
    assert_same(swept, run(MHDScheme(2), 2, sanitize=True, **kw))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_ranks", [1, 2, 3])
def test_emulated_ranks_match_oracle(n_ranks, order, monkeypatch):
    """Each rank's private pool swept by ``PoolSweep`` ≡ per block, with
    floors active and the race detector watching both."""
    def emulate():
        scheme = EulerScheme(2, order=order, rho_floor=FLOOR)
        machine = EmulatedMachine(make_forest(scheme, 2), n_ranks, scheme)
        detector = machine.attach_race_detector()
        for _ in range(3):
            machine.advance(2e-3)
        detector.check()
        return None, machine.gather()

    swept = emulate()
    use_oracle(monkeypatch)
    assert_same(swept, emulate())
