"""Production ``PoolSweep`` against the per-block oracle, bit for bit.

Every stage update in ``src/`` is :class:`repro.solvers.sweep.PoolSweep`;
``tests/oracle.py`` is the hand-written per-block update it replaced.
Each case runs the same simulation twice — once with the oracle patched
in — through mid-run adaptations, and compares every dt and the final
state exactly.  (Tile invariance of ``PoolSweep`` itself is pinned in
``test_batched_engine.py::test_batch_tile_invariance``.)

The oracle calls the same stage kernel as production, so it cannot see
a change in the kernel's arithmetic.  ``test_golden_bits`` can: it pins
CRCs of ``flux_divergence`` and ``step`` outputs on seeded states.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from oracle import use_oracle
from repro.amr import Simulation
from repro.core import BlockForest, BlockID
from repro.core.integrity import crc_bytes
from repro.core.refine_criteria import RefinementCriterion
from repro.parallel import EmulatedMachine
from repro.solvers import AdvectionScheme, BurgersScheme, stable_dt
from repro.solvers.euler import EulerScheme
from repro.solvers.mhd import MHDScheme
from repro.solvers.shallow_water import ShallowWaterScheme
from repro.solvers.sweep import PoolSweep
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


# -- golden bits ------------------------------------------------------------
#
# CRCs of ``flux_divergence`` (with and without face capture) and ``step``
# outputs, per block and batched, in every dimension a scheme runs in,
# recorded before the stage kernel moved into a reused workspace.  The
# inputs are seeded uniform states and every operation in the kernels is
# a correctly rounded IEEE one, so the bits do not depend on the host.
# A kernel change that alters any result's arithmetic (operation order,
# association, where/maximum semantics) fails here by name.

#: name -> (factory(ndim), dimensions, ghost layers)
GOLDEN = {}
for order, limiter, riemann, floors, powell in itertools.product(
    (1, 2), ("van_leer", "mc", "minmod", "superbee"), ("rusanov", "hll", "hllc"),
    (False, True), (False, True),
):
    if order == 1 and limiter != "van_leer":
        continue  # order 1 reconstructs without a limiter
    name = "-".join(
        ["mhd", f"o{order}"] + ([limiter] if order == 2 else [])
        + [riemann] + ["floors"] * floors + ["powell"] * powell
    )
    GOLDEN[name] = (
        lambda d, kw=dict(
            order=order, limiter=limiter, riemann=riemann, powell_source=powell,
            **(dict(rho_floor=0.7, p_floor=0.35) if floors else {}),
        ): MHDScheme(d, **kw),
        (1, 2, 3), 2,
    )
GOLDEN.update({
    "mhd-o2-g3": (lambda d: MHDScheme(d), (2, 3), 3),
    "euler-hllc": (lambda d: EulerScheme(d, riemann="hllc", limiter="mc"), (1, 2, 3), 2),
    "euler-hll-o1-gravity-floors": (
        lambda d: EulerScheme(d, order=1, riemann="hll", gravity=(0.5, -1.0, 0.25)[:d],
                              rho_floor=0.7, p_floor=0.35), (1, 2, 3), 1),
    "advection-o1": (lambda d: AdvectionScheme((1.0, -0.5, 0.25)[:d], order=1), (1, 2, 3), 2),
    "advection-superbee-hll": (
        lambda d: AdvectionScheme((1.0, -0.5, 0.25)[:d], limiter="superbee", riemann="hll"),
        (1, 2, 3), 2),
    "shallow-water": (lambda d: ShallowWaterScheme(d, h_floor=0.7), (1, 2), 2),
    "shallow-water-hll-minmod": (
        lambda d: ShallowWaterScheme(d, riemann="hll", limiter="minmod"), (1, 2), 2),
    "burgers": (lambda d: BurgersScheme((1.0, -0.5, 0.25)[:d], limiter="mc"), (1, 2, 3), 2),
})

#: recorded with the allocating kernel the workspace kernel replaced; a
#: kernel change must pass these as they stand, never regenerate them
GOLDEN_CRC = {
    "advection-o1": {1: 0xc75af843, 2: 0x834841a5, 3: 0xfae6e539},
    "advection-superbee-hll": {1: 0x62765602, 2: 0x0c957758, 3: 0x093e35aa},
    "burgers": {1: 0x7ae58f80, 2: 0xf8356735, 3: 0x8a3a7763},
    "euler-hll-o1-gravity-floors": {1: 0x0bff4997, 2: 0xf4a63aa4, 3: 0xd8b4d572},
    "euler-hllc": {1: 0x221199ca, 2: 0xb411095a, 3: 0x173aa0eb},
    "mhd-o1-hll": {1: 0xecf06fa0, 2: 0x61d029d0, 3: 0xcfc9513d},
    "mhd-o1-hll-floors": {1: 0xffec6999, 2: 0xc76db059, 3: 0x7e2c3728},
    "mhd-o1-hll-floors-powell": {1: 0x24667892, 2: 0x330bbb0e, 3: 0x57b8d47c},
    "mhd-o1-hll-powell": {1: 0x3270e057, 2: 0xeb4138bb, 3: 0x4c56e27e},
    "mhd-o1-hllc": {1: 0xecf06fa0, 2: 0x61d029d0, 3: 0xcfc9513d},
    "mhd-o1-hllc-floors": {1: 0xffec6999, 2: 0xc76db059, 3: 0x7e2c3728},
    "mhd-o1-hllc-floors-powell": {1: 0x24667892, 2: 0x330bbb0e, 3: 0x57b8d47c},
    "mhd-o1-hllc-powell": {1: 0x3270e057, 2: 0xeb4138bb, 3: 0x4c56e27e},
    "mhd-o1-rusanov": {1: 0x3f4f2314, 2: 0x6607f24a, 3: 0xe28d79bf},
    "mhd-o1-rusanov-floors": {1: 0xb8e601d5, 2: 0xb6e3f358, 3: 0xa23c1bfd},
    "mhd-o1-rusanov-floors-powell": {1: 0x1ea5f7d4, 2: 0xe7151ed1, 3: 0x4de45ba3},
    "mhd-o1-rusanov-powell": {1: 0xb3b062e5, 2: 0x85be356e, 3: 0xcbe37628},
    "mhd-o2-g3": {2: 0x18a04432, 3: 0x9225fccc},
    "mhd-o2-mc-hll": {1: 0x0abed75e, 2: 0xbd0c7d20, 3: 0x87d2e5c9},
    "mhd-o2-mc-hll-floors": {1: 0x5ec0e11c, 2: 0x649ca2ba, 3: 0xcb2e78e0},
    "mhd-o2-mc-hll-floors-powell": {1: 0x110c3511, 2: 0xcdbd3814, 3: 0x0555b75a},
    "mhd-o2-mc-hll-powell": {1: 0x81b6e64c, 2: 0x678444de, 3: 0xc7ea7774},
    "mhd-o2-mc-hllc": {1: 0x0abed75e, 2: 0xbd0c7d20, 3: 0x87d2e5c9},
    "mhd-o2-mc-hllc-floors": {1: 0x5ec0e11c, 2: 0x649ca2ba, 3: 0xcb2e78e0},
    "mhd-o2-mc-hllc-floors-powell": {1: 0x110c3511, 2: 0xcdbd3814, 3: 0x0555b75a},
    "mhd-o2-mc-hllc-powell": {1: 0x81b6e64c, 2: 0x678444de, 3: 0xc7ea7774},
    "mhd-o2-mc-rusanov": {1: 0x1af9f668, 2: 0xd48b5ab3, 3: 0x3c1f5b85},
    "mhd-o2-mc-rusanov-floors": {1: 0xb8dc1e9a, 2: 0xcbce2e7c, 3: 0x4dff231e},
    "mhd-o2-mc-rusanov-floors-powell": {1: 0xf21965cc, 2: 0xf9500a98, 3: 0x8f07e31b},
    "mhd-o2-mc-rusanov-powell": {1: 0x43246f3e, 2: 0xd26f02ed, 3: 0x6d1af4ca},
    "mhd-o2-minmod-hll": {1: 0xeb5971f9, 2: 0x4815b048, 3: 0xf8c360a3},
    "mhd-o2-minmod-hll-floors": {1: 0x56e213f3, 2: 0xd936ad71, 3: 0xc521e642},
    "mhd-o2-minmod-hll-floors-powell": {1: 0x47c14f6a, 2: 0x9a9a3bb2, 3: 0x10b94242},
    "mhd-o2-minmod-hll-powell": {1: 0x264cf312, 2: 0x4cc502c4, 3: 0x2cbab547},
    "mhd-o2-minmod-hllc": {1: 0xeb5971f9, 2: 0x4815b048, 3: 0xf8c360a3},
    "mhd-o2-minmod-hllc-floors": {1: 0x56e213f3, 2: 0xd936ad71, 3: 0xc521e642},
    "mhd-o2-minmod-hllc-floors-powell": {1: 0x47c14f6a, 2: 0x9a9a3bb2, 3: 0x10b94242},
    "mhd-o2-minmod-hllc-powell": {1: 0x264cf312, 2: 0x4cc502c4, 3: 0x2cbab547},
    "mhd-o2-minmod-rusanov": {1: 0xfac22f81, 2: 0x3d335a0c, 3: 0x6fdb4958},
    "mhd-o2-minmod-rusanov-floors": {1: 0xa2fde2cf, 2: 0x25d7b714, 3: 0x83e26f12},
    "mhd-o2-minmod-rusanov-floors-powell": {1: 0xed2ce192, 2: 0xa18c6eaa, 3: 0xc2767b12},
    "mhd-o2-minmod-rusanov-powell": {1: 0x2e534af8, 2: 0x19858ff0, 3: 0x948d05a0},
    "mhd-o2-superbee-hll": {1: 0x53679789, 2: 0x204fdde9, 3: 0x0d527d33},
    "mhd-o2-superbee-hll-floors": {1: 0x6847e0aa, 2: 0x8f7cb458, 3: 0x4402655e},
    "mhd-o2-superbee-hll-floors-powell": {1: 0xb28de2a8, 2: 0x1d71b9e8, 3: 0x453358d2},
    "mhd-o2-superbee-hll-powell": {1: 0x2ab2f0b0, 2: 0x6da896d7, 3: 0x9237a60d},
    "mhd-o2-superbee-hllc": {1: 0x53679789, 2: 0x204fdde9, 3: 0x0d527d33},
    "mhd-o2-superbee-hllc-floors": {1: 0x6847e0aa, 2: 0x8f7cb458, 3: 0x4402655e},
    "mhd-o2-superbee-hllc-floors-powell": {1: 0xb28de2a8, 2: 0x1d71b9e8, 3: 0x453358d2},
    "mhd-o2-superbee-hllc-powell": {1: 0x2ab2f0b0, 2: 0x6da896d7, 3: 0x9237a60d},
    "mhd-o2-superbee-rusanov": {1: 0x128d51f6, 2: 0x384e344c, 3: 0x7b0a73fa},
    "mhd-o2-superbee-rusanov-floors": {1: 0x96111cc9, 2: 0x0d66328a, 3: 0x2f2e0664},
    "mhd-o2-superbee-rusanov-floors-powell": {1: 0x29ed1bb2, 2: 0x915de4b8, 3: 0x4ab9ee6e},
    "mhd-o2-superbee-rusanov-powell": {1: 0x8cb01a1a, 2: 0x5ccb9824, 3: 0x79309d41},
    "mhd-o2-van_leer-hll": {1: 0x1addf18a, 2: 0xb39dbb75, 3: 0xe1e00477},
    "mhd-o2-van_leer-hll-floors": {1: 0x0834bd7c, 2: 0x9ed15b7e, 3: 0xe79ab0f1},
    "mhd-o2-van_leer-hll-floors-powell": {1: 0xd99c0345, 2: 0x1f39a738, 3: 0xf1aa7882},
    "mhd-o2-van_leer-hll-powell": {1: 0x492e95b3, 2: 0xd934a16b, 3: 0x935eec42},
    "mhd-o2-van_leer-hllc": {1: 0x1addf18a, 2: 0xb39dbb75, 3: 0xe1e00477},
    "mhd-o2-van_leer-hllc-floors": {1: 0x0834bd7c, 2: 0x9ed15b7e, 3: 0xe79ab0f1},
    "mhd-o2-van_leer-hllc-floors-powell": {1: 0xd99c0345, 2: 0x1f39a738, 3: 0xf1aa7882},
    "mhd-o2-van_leer-hllc-powell": {1: 0x492e95b3, 2: 0xd934a16b, 3: 0x935eec42},
    "mhd-o2-van_leer-rusanov": {1: 0x92e63ec4, 2: 0x4f3e12ae, 3: 0xe1c78622},
    "mhd-o2-van_leer-rusanov-floors": {1: 0x4677d236, 2: 0x816dd832, 3: 0xb3462d81},
    "mhd-o2-van_leer-rusanov-floors-powell": {1: 0x3ec3c985, 2: 0xaa5a8172, 3: 0x03ad1693},
    "mhd-o2-van_leer-rusanov-powell": {1: 0x4d918af0, 2: 0x33699d07, 3: 0x4c097036},
    "shallow-water": {1: 0xffbe8e4b, 2: 0x10777af6},
    "shallow-water-hll-minmod": {1: 0x1ef171c4, 2: 0xc1883d30},
}


def golden_state(scheme, ndim, g, rng, n_blocks=3):
    """``(n_blocks, nvar, *padded)`` conserved states from uniform
    primitives, with cells pushed under the conversion floors."""
    m = (7, 5, 4)[:ndim] if ndim > 1 else (9,)
    shape = (n_blocks, scheme.nvar) + tuple(mi + 2 * g for mi in m)
    w = rng.uniform(-0.5, 0.5, shape)  # velocities, field, scalars
    if isinstance(scheme, (AdvectionScheme, BurgersScheme)):
        return w
    w[:, 0] = rng.uniform(0.6, 1.4, w[:, 0].shape)  # density / depth
    if isinstance(scheme, ShallowWaterScheme):
        return np.stack([scheme.prim_to_cons(wb) for wb in w])
    ip = 4 if isinstance(scheme, MHDScheme) else ndim + 1
    w[:, ip] = rng.uniform(0.3, 1.2, w[:, ip].shape)  # pressure
    u = np.stack([scheme.prim_to_cons(wb) for wb in w])
    # an energy deficit: pressure under P_FLOOR in about 1 cell in 12
    u[:, ip] -= np.where(rng.uniform(size=u[:, ip].shape) < 1 / 12, 3.0, 0.0)
    # density under RHO_FLOOR in about 1 cell in 40
    u[:, 0] = np.where(rng.uniform(size=u[:, 0].shape) < 1 / 40, -0.25, u[:, 0])
    return u


def golden_crc(scheme, ndim, g, seed):
    """CRC of every output of one scheme on one seeded batch: batched
    ``flux_divergence`` and ``step``, then per block ``flux_divergence``,
    its captured face fluxes and ``step``."""
    rng = np.random.default_rng(seed)
    u = golden_state(scheme, ndim, g, rng)
    n = len(u)
    dx = rng.uniform(0.05, 0.2, (n, ndim))
    dt = 0.01
    interior = tuple(slice(g, s - g) for s in u.shape[2:])
    rate = scheme.flux_divergence(
        u.copy(), [dx[:, a].reshape((n,) + (1,) * ndim) for a in range(ndim)],
        g, ndim=ndim,
    )
    stepped = u.copy()
    scheme.step(
        stepped, [dx[:, a].reshape((n,) + (1,) * ndim) for a in range(ndim)],
        dt, g, ndim=ndim, rate_out=np.empty_like(rate),
    )
    outputs = [rate, stepped]
    for b in range(n):
        block_dx = tuple(float(x) for x in dx[b])
        block_rate = scheme.flux_divergence(u[b].copy(), block_dx, g)
        captured = {}
        scheme.flux_divergence(u[b].copy(), block_dx, g, face_flux_out=captured)
        one = u[b].copy()
        scheme.step(one, block_dx, dt, g)
        # batched and per block agree before anything is hashed
        np.testing.assert_array_equal(block_rate, rate[b])
        np.testing.assert_array_equal(one[(slice(None),) + interior],
                                      stepped[b][(slice(None),) + interior])
        outputs += [block_rate, *(captured[f] for f in sorted(captured)), one]
    for out in outputs:
        assert np.isfinite(out).all()  # no NaN: its bits would be the host's
    return crc_bytes(b"".join(np.ascontiguousarray(o).tobytes() for o in outputs))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bits(name):
    make, dims, g = GOLDEN[name]
    got = {d: golden_crc(make(d), d, g, seed=d) for d in dims}
    assert got == GOLDEN_CRC[name]


class Capture:
    """A flux register's capture side: what the sweep hands over."""

    def __init__(self, needed_faces):
        self.needed_faces = needed_faces
        self.slabs = {}

    def record(self, bid, slabs):
        self.slabs.update(((bid, face), slab) for face, slab in slabs.items())

    def accumulate(self, bid, slabs, weight):
        self.record(bid, {face: weight * slab for face, slab in slabs.items()})


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tiled_capture_matches_block_capture(name, monkeypatch):
    """A sweep's face-flux capture ≡ per-block ``face_flux_out``, byte
    for byte, at tile 1, a ragged tile and the whole stack, in both
    stages and both register modes (each tile in both stages, each
    stage in both modes), with the workspace poisoned before
    every tile: the handed-over slabs are copies, not workspace views."""
    make, dims, g = GOLDEN[name]
    for ndim in dims:
        scheme = make(ndim)
        rng = np.random.default_rng(ndim)
        u = golden_state(scheme, ndim, g, rng, n_blocks=5)
        n, dt = len(u), 0.01
        blocks = [SimpleNamespace(id=b, dx=tuple(rng.uniform(0.05, 0.2, ndim)))
                  for b in range(n)]
        needed = {b: {f for f in range(2 * ndim) if (b + f) % 3} for b in range(n) if b != 2}
        want = {}
        for b in needed:
            captured = {}
            scheme.flux_divergence(u[b].copy(), blocks[b].dx, g, face_flux_out=captured)
            want.update(((b, f), captured[f]) for f in needed[b])
        kernel = scheme.flux_divergence

        def poisoned(*args, work=None, **kw):
            if work is not None:
                work.buffer[...] = 0xFF
            return kernel(*args, work=work, **kw)

        monkeypatch.setattr(scheme, "flux_divergence", poisoned)
        for tile, stage, accumulate in (
            (1, "forward", False), (1, "correct", True), (2, "forward", True),
            (2, "correct", False), (n, "forward", False), (n, "correct", True),
        ):
            interior = (n, scheme.nvar) + tuple(s - 2 * g for s in u.shape[2:])
            sweep = PoolSweep(scheme, u.copy(), enumerate(blocks), g,
                              save=np.empty(interior), rate=np.empty(interior), tile=tile)
            sweep.forward(dt)  # sizes the workspace
            sweep.pool[...] = u
            sweep.snapshot()
            register = Capture(needed)
            getattr(sweep, stage)(dt, register=register, accumulate=accumulate)
            assert sorted(register.slabs) == sorted(want)
            for key, slab in register.slabs.items():
                assert not np.shares_memory(slab, sweep.work.buffer)
                expect = dt * want[key] if accumulate else want[key]
                assert slab.tobytes() == expect.tobytes(), (ndim, tile, stage, key)
