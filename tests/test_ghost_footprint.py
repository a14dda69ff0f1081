"""The exchange fills the ghost cells that are read.

``exchange_regions`` is every face region at a level jump of 1 and
every region otherwise.  What a prolongation reads of its source is its
footprint (``prolongation_reads``).  The oracle everywhere is the full
exchange — every face, edge and corner region — and the checks are:

* a dependence probe: a NaN in one cell of a bordered source reaches the
  prolonged output only from inside the read footprint, and at one level
  up from every cell of it;
* at level jump 1 no footprint reaches an edge or corner ghost, so the
  face regions are all a fill needs;
* on level-jump-2 forests the fill equals the full exchange run in order
  (``tests/oracle.py::fill_ghosts_in_order``) on every read cell, where
  the face regions alone do not;
* stepping with the plan equals stepping with the full plan, bit for bit
  in every state and dt, over dimensions, level jumps, prolongation
  orders, periodicity, every ``GOLDEN`` scheme, global and subcycled
  stepping, reflux and adaptation; the emulated and the process machine
  equal the serial driver;
* seeded mutants: a dropped face region fails, and so does a face-only
  plan at level jump 2;
* the sanitizer: unread corners stay poisoned through a step without a
  single numpy warning while every interior stays clean, and adaptive
  runs at level jump 2 are clean.
"""

import contextlib
import multiprocessing as mp
import sys
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import fill_ghosts_in_order, is_face
from test_ghost_compile import build_forest
from test_ghost_scoped import assert_same_bytes, stale_copy
from test_sweep_oracle import GOLDEN
import repro.parallel.emulator as emulator
from repro.amr import Simulation
from repro.amr.boundary import OutflowBC
from repro.analysis.poison import (
    PoisonError,
    check_exchange_reads,
    check_interior_clean,
    poison_forest,
    poisoned_mask,
)
from repro.core import ghost
from repro.core.block_id import BlockID, IndexBox
from repro.core.forest import BlockForest
from repro.core.ghost import (
    _iter_regions,
    _prolonged_slices,
    all_offsets,
    compile_plan,
    exchange_regions,
    gather_prolong,
    ghost_region_for_offset,
    prolongation_border,
    prolongation_reads,
    run_boundaries,
    run_copies,
    run_restrictions,
    write_prolongs,
)
from repro.core.prolong import prolong_inject, prolong_linear
from repro.core.refine_criteria import RefinementCriterion
from repro.parallel import EmulatedMachine, ProcConfig, ProcessMachine, leaked_segments
from repro.solvers import EulerScheme
from repro.solvers.mhd import MHDScheme
from repro.util.geometry import Box

POSIX = sys.platform.startswith("linux") or sys.platform == "darwin"


# -- the read footprint of one prolongation ---------------------------------


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("up", [1, 2, 3])
def test_only_the_read_footprint_reaches_the_output(up, order, ndim):
    """Probe every cell of a bordered source with a NaN.  The data is a
    ramp with a different slope per axis, so every limited slope is
    non-zero and any change of its inputs changes the output."""
    region = IndexBox((0,) * ndim, (2, 3, 2)[:ndim])
    border = prolongation_border(up, order)
    bordered = region.grow(border)
    prolong = prolong_inject if order == 1 else prolong_linear
    crop = (slice(None),) + _prolonged_slices(region, up, border)

    def prolonged(data):
        for _ in range(up):
            data = prolong(data, ndim)
        return data[crop]

    ramp = sum((axis + 1.0) * i for axis, i in enumerate(np.indices(bordered.shape)))
    base = prolonged(ramp[np.newaxis])
    footprint = np.zeros(bordered.shape, dtype=bool)
    for box in prolongation_reads(region, up, order):
        footprint[box.slices(bordered.lo)] = True
    reached = np.zeros(bordered.shape, dtype=bool)
    for cell in np.ndindex(*bordered.shape):
        probe = ramp[np.newaxis].copy()
        probe[(0,) + cell] = np.nan
        with np.errstate(invalid="ignore"):
            reached[cell] = not np.array_equal(prolonged(probe), base)
    assert not (reached & ~footprint).any(), "a read outside the footprint"
    if up == 1:
        assert (reached == footprint).all(), "the footprint is not tight"


# -- fills on level-jump-2 forests ------------------------------------------


def drawn_forest(seed, ndim, *, jump=2, periodic=True, prolong_order=2, n_ghost=2, nvar=2):
    """``test_ghost_compile.build_forest`` (levels up to ``jump`` apart
    across any face) with random interiors and zeroed ghosts; blocks of
    4 cells a side, or ``2 * n_ghost`` where that is more."""
    m = max(4, 2 * n_ghost)
    f = build_forest(
        seed, ndim, (m,) * ndim, n_ghost, nvar, (periodic,) * ndim, jump, prolong_order,
    )
    f.check_balance()
    rng = np.random.default_rng(seed)
    for b in f:
        b.interior[...] = rng.uniform(-1.0, 1.0, size=b.interior.shape)
    return f


def fill_with(forest, regions, bc):
    """``fill_ghosts``'s stages on the plan compiled from ``regions``."""
    plan = compile_plan(forest, regions=regions)
    order, ndim = forest.prolong_order, forest.ndim
    run_copies(plan)
    run_restrictions(plan, ndim)
    run_boundaries(plan, bc, forest)
    write_prolongs(plan, [gather_prolong(p, order, ndim) for p in plan.prolongs], order, ndim)
    run_boundaries(plan, bc, forest)
    return plan


def full_regions(forest):
    return list(_iter_regions(forest, fill_corners=True))


def faces_only(forest):
    return list(_iter_regions(forest, fill_corners=False))


def stencil_cells(forest):
    """Block id -> mask of its interior and face slabs: what kernels read."""
    masks = {}
    for bid, block in forest.blocks.items():
        mask = np.zeros(block.padded_shape, dtype=bool)
        mask[block.interior_slices] = True
        for offset in all_offsets(forest.ndim, faces_only=True):
            mask[ghost_region_for_offset(block, offset).slices(block.index_origin)] = True
        masks[bid] = mask
    return masks


def same_cells(a, b, masks):
    return all(
        a.blocks[bid].data[:, m].tobytes() == b.blocks[bid].data[:, m].tobytes()
        for bid, m in masks.items()
    )


JUMP2_SEEDS = range(24)


def jump2_case(seed):
    """Seed -> (forest, bc): 2-D and 3-D, periodic or not, one or two
    ghost layers, every one with linear prolongation."""
    periodic = bool(seed // 2 % 2)
    f = drawn_forest(seed, 2 + seed % 2, periodic=periodic, n_ghost=1 + seed // 4 % 2)
    return f, None if periodic else OutflowBC()


def test_jump2_fills_equal_the_full_exchange_where_faces_alone_do_not():
    faces_wrong = 0
    for seed in JUMP2_SEEDS:
        f, bc = jump2_case(seed)
        full = stale_copy(f, -7e200)
        fill_ghosts_in_order(full, bc)
        ours = stale_copy(f, 1e300)
        ghost.fill_ghosts(ours, bc)
        assert_same_bytes(ours, full, f.blocks)
        faces = stale_copy(f, 1e300)
        fill_with(faces, faces_only(f), bc)
        faces_wrong += not same_cells(faces, full, stencil_cells(f))
    # the edge and corner regions are needed: face regions alone change
    # what kernels read
    assert faces_wrong >= len(JUMP2_SEEDS) // 3, faces_wrong


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), ndim=st.sampled_from((2, 3)),
       periodic=st.booleans(), prolong_order=st.sampled_from((1, 2)))
def test_jump1_prolongations_read_no_corner_ghost(seed, ndim, periodic, prolong_order):
    """A face region's prolongation source lies in its source's interior
    and is one level up (the forest is balanced across faces), and one
    linear step reads only axis neighbours: at level jump 1 every cell
    the face regions' prolongations read is an interior or face-slab
    cell, so the face-only plan is exact.  (Across a corner the levels
    may differ by two, but no kernel reads a corner region.)"""
    f = drawn_forest(seed, ndim, jump=1, periodic=periodic, prolong_order=prolong_order)
    plan = compile_plan(f, regions=faces_only(f))
    assert all(p.up == 1 for p in plan.prolongs)
    masks = stencil_cells(f)
    for block, box in plan.ghost_reads():
        assert masks[block.id][box.slices(block.index_origin)].all(), (block.id, box)
    assert exchange_regions(f) == faces_only(f)


# -- stepping: the plan against the full plan -------------------------------


@contextlib.contextmanager
def exchanging(regions):
    """Every executor builds its plan from ``regions(forest)``: the serial
    cache, the emulated machine and the process machine."""
    with mock.patch.object(ghost, "exchange_regions", regions), \
            mock.patch.object(emulator, "exchange_regions", regions):
        yield


def set_bump(forest, scheme):
    """A smooth bump in density that every scheme takes as it is
    (``test_sweep_oracle.make_forest``'s state)."""
    for b in forest:
        bump = np.exp(-sum((x - 0.45) ** 2 for x in b.meshgrid()) / 0.02)
        w = np.full((scheme.nvar,) + bump.shape, 0.1)
        w[0] = 1.0 + 0.2 * bump
        if isinstance(scheme, EulerScheme):
            w[-1] = 1.0  # pressure
        if isinstance(scheme, MHDScheme):
            w[4], w[5:] = 1.0, 0.2  # pressure, field
        b.interior[...] = scheme.prim_to_cons(w)


GOLDEN_2D = sorted(name for name, (_, dims, _) in GOLDEN.items() if 2 in dims)
GOLDEN_3D = sorted(name for name, (_, dims, _) in GOLDEN.items() if 3 in dims)


@dataclass(frozen=True)
class Case:
    seed: int
    ndim: int
    jump: int
    prolong_order: int
    periodic: bool
    scheme: str
    subcycle: bool
    reflux: bool
    adaptive: bool

    def build(self):
        make, _dims, n_ghost = GOLDEN[self.scheme]
        scheme = make(self.ndim)
        f = drawn_forest(
            self.seed, self.ndim, jump=self.jump, periodic=self.periodic,
            prolong_order=self.prolong_order, n_ghost=n_ghost, nvar=scheme.nvar,
        )
        set_bump(f, scheme)
        return f, scheme, None if self.periodic else OutflowBC()

    def simulation(self, **kw):
        f, scheme, bc = self.build()
        criterion = None
        if self.adaptive:
            criterion = RefinementCriterion(near_centre, 0.5, 0.25, max_level=f.max_level)
        return Simulation(
            f, scheme, bc=bc, subcycle=self.subcycle, reflux=self.reflux,
            criterion=criterion, adapt_interval=2, buffer_band=0, **kw,
        )


def near_centre(block):
    """1 on the blocks holding a point just off the domain centre: they
    refine to the finest level while their neighbours need not follow
    (at level jump 2 a level-2 block sits next to a level-0 one)."""
    return float(all(lo <= 0.49 <= hi for lo, hi in zip(block.box.lo, block.box.hi)))


STEPS = 3


def stepped(case, **kw):
    """Every dt and every state after each of ``STEPS`` CFL steps."""
    sim = case.simulation(**kw)
    dts, states = [], []
    for _ in range(STEPS):
        sim.step()
        dts.append(sim.history[-1].dt)
        states.append({b.id: b.interior.copy() for b in sim.forest})
    return dts, states


def on_machine(machine, dts):
    states = []
    for dt in dts:
        machine.advance(dt)
        states.append(machine.gather())
    return states


def assert_same_states(a, b):
    assert len(a) == len(b)
    for step, (x, y) in enumerate(zip(a, b)):
        assert sorted(x) == sorted(y), step
        for bid in x:
            assert x[bid].tobytes() == y[bid].tobytes(), (step, bid)


@st.composite
def cases(draw):
    ndim = draw(st.sampled_from((2, 3)))
    jump = draw(st.sampled_from((1, 2)))
    return Case(
        seed=draw(st.integers(0, 10_000)),
        ndim=ndim,
        jump=jump,
        prolong_order=draw(st.sampled_from((1, 2))),
        periodic=draw(st.booleans()),
        scheme=draw(st.sampled_from(GOLDEN_2D if ndim == 2 else GOLDEN_3D)),
        subcycle=draw(st.booleans()),
        reflux=jump == 1 and draw(st.booleans()),
        adaptive=draw(st.booleans()),
    )


@settings(max_examples=25, deadline=None)
@given(case=cases())
@example(case=Case(
    seed=0, ndim=2, jump=2, prolong_order=1, periodic=False, scheme="mhd-o2-g3",
    subcycle=False, reflux=False, adaptive=False,
))
def test_read_plan_steps_equal_full_plan_steps(case):
    """Interiors and dts after every step are bitwise those of the full
    exchange; on a static forest under global stepping without reflux
    the emulated machine, fed the same dts, equals both."""
    dts, states = stepped(case)
    with exchanging(full_regions):
        full_dts, full_states = stepped(case)
    assert dts == full_dts
    assert_same_states(states, full_states)
    if not (case.subcycle or case.reflux or case.adaptive):
        f, scheme, bc = case.build()
        assert_same_states(on_machine(EmulatedMachine(f, 2, scheme, bc=bc), dts), states)


@pytest.mark.skipif(not POSIX, reason="process backend requires POSIX shared memory + fork")
@pytest.mark.parametrize("ndim", [2, 3])
def test_rank_machines_equal_serial_at_level_jump_2(ndim):
    """serial ≡ emulated ≡ process on a level-jump-2 forest, whose plan
    holds edge and corner regions, each machine building from it."""
    case = Case(
        seed=3 if ndim == 3 else 2, ndim=ndim, jump=2, prolong_order=2, periodic=True,
        scheme="advection-superbee-hll", subcycle=False, reflux=False, adaptive=False,
    )
    f, scheme, bc = case.build()
    assert any(not is_face(offset) for _bid, offset, _ in exchange_regions(f))
    dts, states = stepped(case)
    assert_same_states(on_machine(EmulatedMachine(f, 2, scheme, bc=bc), dts), states)
    f, scheme, bc = case.build()
    config = ProcConfig(phase_timeout=2.0, hard_timeout=20.0)
    try:
        with ProcessMachine(f, 2, scheme, bc=bc, config=config) as machine:
            assert_same_states(on_machine(machine, dts), states)
    finally:
        for proc in mp.active_children():
            proc.join(timeout=10)
    assert leaked_segments() == []


# -- seeded mutants -----------------------------------------------------------


def dropping(index):
    """``exchange_regions`` short of its ``index``-th region."""
    def regions(forest):
        out = exchange_regions(forest)
        return out[:index] + out[index + 1:]
    return regions


def mutant_verdicts(case, regions):
    """(sanitizer trips, steps differ from the full plan's) with every
    executor building from ``regions(forest)``."""
    with exchanging(regions):
        try:
            sim = case.simulation(sanitize=True)
            for _ in range(STEPS):
                sim.step()
            tripped = False
        except PoisonError:
            tripped = True
        dts, states = stepped(case)
    with exchanging(full_regions):
        full_dts, full_states = stepped(case)
    return tripped, dts != full_dts or any(
        x[bid].tobytes() != y[bid].tobytes()
        for x, y in zip(states, full_states) for bid in x
    )


JUMP1 = Case(
    seed=0, ndim=2, jump=1, prolong_order=2, periodic=True, scheme="advection-superbee-hll",
    subcycle=False, reflux=False, adaptive=False,
)
JUMP2 = Case(
    seed=2, ndim=2, jump=2, prolong_order=2, periodic=True, scheme="advection-superbee-hll",
    subcycle=False, reflux=False, adaptive=False,
)


def test_a_dropped_face_region_fails():
    f, _, _ = JUMP1.build()
    regions = exchange_regions(f)
    index = next(i for i, (_, offset, ts) in enumerate(regions) if any(t.delta < 0 for t in ts))
    assert mutant_verdicts(JUMP1, dropping(index)) == (True, True)


def test_a_face_only_plan_fails_at_level_jump_2():
    """At level jump 2 a cascade's slope border reaches its source's edge
    and corner ghosts: the face regions alone leave cells it reads
    poisoned and change the step itself."""
    assert mutant_verdicts(JUMP2, faces_only) == (True, True)


# -- the sanitizer ------------------------------------------------------------


def test_unread_corners_stay_poisoned_and_unread():
    """After a sanitized step the corner ghosts no plan fills still hold
    the exact poison bits, no numpy warning was raised on the way (the
    Euler kernel converts whole padded tiles, corners included), and
    ``after_stage`` found every interior clean: no kernel read them."""
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), nvar=4, periodic=(True, True),
        max_level=3,
    )
    f.adapt([BlockID(0, (0, 0))])
    scheme = EulerScheme(2)
    set_bump(f, scheme)
    sim = Simulation(f, scheme, sanitize=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim.step()
        sim.step()
    read = {(bid, offset) for bid, offset, _ in exchange_regions(f)}
    unread = 0
    for bid, block in f.blocks.items():
        for offset in all_offsets(2):
            if not is_face(offset) and (bid, offset) not in read:
                box = ghost_region_for_offset(block, offset)
                assert poisoned_mask(block.view(box)).all(), (bid, offset)
                unread += 1
    assert unread == 4 * f.n_blocks  # level jump 1: every corner is unread
    assert check_interior_clean(f) == []


@pytest.mark.parametrize("ndim", [2, 3])
def test_sanitized_adaptive_run_at_level_jump_2(ndim):
    """An adaptive run, no reflux, whose forest grows a level-0/level-2
    interface, under the sanitizer for six steps: every exchange fills
    each cell a kernel or a prolongation reads (``after_exchange``), and
    no interior turns non-finite (``after_stage``)."""
    scheme = EulerScheme(ndim, riemann="hllc", limiter="mc")
    f = BlockForest(
        Box((0.0,) * ndim, (1.0,) * ndim), (2,) * ndim, (4,) * ndim, nvar=scheme.nvar,
        max_level=2, max_level_jump=2,
    )
    set_bump(f, scheme)
    sim = Simulation(
        f, scheme, bc=OutflowBC(), adapt_interval=1, buffer_band=0, sanitize=True,
        criterion=RefinementCriterion(near_centre, 0.5, 0.25, max_level=2),
    )
    for _ in range(6):
        sim.step()
    assert {0, 2} <= {b.level for b in f}
    assert sim.sanitizer.n_exchanges_checked >= 12
    assert check_interior_clean(f) == []


def test_sanitizer_checks_the_read_footprint():
    """``ghost_reads`` is the read footprint: after a fill of a poisoned
    jump-1 forest every cell of it is clean, while the corners of the
    ``need`` boxes that a single linear step gathers and crops away stay
    poisoned — a check over ``need`` would flag a correct exchange."""
    f = drawn_forest(2, 2, jump=1)
    poison_forest(f)
    plan = fill_with(f, exchange_regions(f), None)
    assert plan.prolongs
    assert check_exchange_reads(plan.ghost_reads()) == []
    assert check_exchange_reads([(p.src, p.need) for p in plan.prolongs if p.up == 1])
