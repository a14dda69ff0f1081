"""The rank phases' compiled exchange and tiled sweep against the serial
driver, on the process machine and the emulated one.

The ranks run the serial driver's own machinery — compiled
ghost entries, one stage per barrier phase, and the tiled stage update
over their pool rows — so the oracle is the serial driver, byte for
byte: every padded array after an exchange, every interior after a step.
Both sides start from *different* stale ghosts, so a transfer a rank
fails to execute, or executes against the wrong state, shows up.  The
two machines also share one step program, placement and adoption
(``RankMachine``), pinned here against both.
"""

import contextlib
import copy
import multiprocessing as mp
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import read_cells
from repro.amr import Simulation
from repro.amr.boundary import OutflowBC, ReflectingBC
from repro.analysis.engine_bench import build_deep_pulse
from repro.core.block_id import BlockID
from repro.core.forest import BlockForest
from repro.core.ghost import compile_plan, fill_ghosts
from repro.parallel import EmulatedMachine, ProcConfig, ProcessMachine, leaked_segments
from repro.resilience import BitFlip, FaultPlan
from repro.resilience.scrub import CorruptionError
from repro.solvers import AdvectionScheme, EulerScheme
from repro.util.geometry import Box

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") and sys.platform != "darwin",
    reason="process backend requires POSIX shared memory + fork",
)

FAST = ProcConfig(
    phase_timeout=0.5, hard_timeout=20.0,
    heartbeat_interval=0.02, heartbeat_timeout=1.0,
)
DT = 1e-4


@pytest.fixture(autouse=True)
def no_leaked_segments_no_zombies():
    yield
    for proc in mp.active_children():
        proc.join(timeout=10)
    assert mp.active_children() == [], "zombie worker processes remain"
    assert leaked_segments() == [], "orphaned shared-memory segments remain"


def random_forest(rng, ndim, periodic, prolong_order):
    """A 2:1-balanced forest with random interiors."""
    f = BlockForest(
        Box((0.0,) * ndim, (1.0,) * ndim), (2,) * ndim, (4,) * ndim,
        nvar=2, periodic=(periodic,) * ndim, max_level=3,
        prolong_order=prolong_order,
    )
    for _ in range(3 if ndim == 2 else 2):
        f.adapt([b for b in list(f.blocks) if rng.random() < (0.3 if ndim == 2 else 0.12)])
    f.check_balance()
    for b in f:
        b.interior[...] = rng.uniform(-1.0, 1.0, size=b.interior.shape)
    return f


def set_ghosts(blocks, value):
    for b in blocks:
        interior = b.interior.copy()
        b.data[...] = value
        b.interior[...] = interior


def bench_forest():
    """The forest of the ``proc_pulse2d_r2`` benchmark workload."""
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (10, 10), (32, 32), nvar=1,
        n_ghost=2, periodic=(True, True), max_level=2,
    )
    f.adapt([BlockID(0, c) for c in ((2, 3), (7, 6), (4, 8), (8, 1))])
    for b in f:
        X, Y = b.meshgrid()
        b.interior[0] = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.02)
    return f


def assert_interiors_equal(machine, forest):
    gathered = machine.gather()
    assert set(gathered) == set(forest.blocks)
    for bid, block in forest.blocks.items():
        np.testing.assert_array_equal(gathered[bid], block.interior, err_msg=str(bid))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ndim=st.sampled_from((2, 3)),
    periodic=st.booleans(),
    prolong_order=st.sampled_from((1, 2)),
    n_ranks=st.integers(1, 3),
    machine=st.sampled_from(("emulated", "process")),
)
def test_worker_phases_equal_serial_fill(seed, ndim, periodic, prolong_order, n_ranks, machine):
    rng = np.random.default_rng(seed)
    forest = random_forest(rng, ndim, periodic, prolong_order)
    bc = None if periodic else ReflectingBC({a: (1,) for a in range(ndim)})
    serial = copy.deepcopy(forest)
    set_ghosts(serial, 1e300)
    fill_ghosts(serial, bc)
    scheme = AdvectionScheme((1.0,) * ndim, order=1)

    read = read_cells(forest)

    def exchange_equals_serial(m, exchange):
        set_ghosts(m.blocks_by_id().values(), -7e200)
        exchange()
        for bid, block in m.blocks_by_id().items():
            mask = read[bid]
            assert block.data[:, mask].tobytes() == serial.blocks[bid].data[:, mask].tobytes(), bid

    if machine == "emulated":
        emu = EmulatedMachine(forest, n_ranks, scheme, bc=bc)
        exchange_equals_serial(emu, emu.exchange)
    else:
        with ProcessMachine(forest, n_ranks, scheme, bc=bc, config=FAST) as m:
            exchange_equals_serial(m, m.exchange)


@pytest.mark.parametrize("levels", [2, 3, 4])
@pytest.mark.parametrize("n_ranks", [1, 2, 3])
def test_deep_forest_matches_serial_and_emulated(levels, n_ranks):
    """Prolongations whose slope border reads ghosts another prolongation
    writes: the serial fill runs them in plan order, the ranks of both
    machines gather every source before writing any."""
    sim = build_deep_pulse(levels)
    forest = copy.deepcopy(sim.forest)
    emu = EmulatedMachine(copy.deepcopy(sim.forest), n_ranks, sim.scheme)
    plan = compile_plan(forest)
    assert any(p.deps for p in plan.prolongs), "forest has no dependent entry"
    with ProcessMachine(forest, n_ranks, sim.scheme, config=FAST) as m:
        for _ in range(3):
            sim.advance(DT)
            emu.advance(DT)
            m.advance(DT)
        assert_interiors_equal(m, sim.forest)
    for bid, interior in emu.gather().items():
        np.testing.assert_array_equal(interior, sim.forest.blocks[bid].interior)


def test_active_floors_match_serial_and_emulated():
    """The corrector applies the floors on every machine (a scheme whose
    floors are no-ops cannot tell)."""
    def build(**floors):
        f = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=4,
            n_ghost=2, periodic=(False, False), max_level=2,
        )
        f.adapt([BlockID(0, (0, 0)), BlockID(0, (1, 1))])
        scheme = EulerScheme(2, **floors)
        for b in f:
            X, Y = b.meshgrid()
            bump = np.exp(-50 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
            w = np.stack([1.0 + 0.3 * bump, 0.4 + 0 * X, -0.2 + 0 * X, 1.0 + 0.2 * bump])
            b.interior[...] = scheme.prim_to_cons(w)
        return f, scheme

    bc = OutflowBC()
    forest, scheme = build(rho_floor=1.1, p_floor=1.05)
    serial = Simulation(copy.deepcopy(forest), scheme, bc=bc)
    emu = EmulatedMachine(copy.deepcopy(forest), 3, scheme, bc=bc)
    with ProcessMachine(forest, 3, scheme, bc=bc, config=FAST) as m:
        for _ in range(3):
            serial.advance(1e-3)
            emu.advance(1e-3)
            m.advance(1e-3)
        assert_interiors_equal(m, serial.forest)
    for bid, interior in emu.gather().items():
        np.testing.assert_array_equal(interior, serial.forest.blocks[bid].interior)
    # the floors fired: cells sit exactly on them, and the unfloored run differs
    w = [scheme.cons_to_prim(b.interior) for b in serial.forest]
    assert min(x[0].min() for x in w) == 1.1
    assert any((x[0] == 1.1).any() for x in w)
    free_forest, free_scheme = build()
    free = Simulation(free_forest, free_scheme, bc=bc)
    for _ in range(3):
        free.advance(1e-3)
    assert any(
        not np.array_equal(free.forest.blocks[bid].interior, b.interior)
        for bid, b in serial.forest.blocks.items()
    )


def test_reconfig_recompiles_after_adopt_respawn_and_restore():
    """Every change of the row locator recompiles the ranks' entries:
    views into a moved row or a torn-down segment never survive."""
    scheme = AdvectionScheme((1.0, 0.5), order=2)
    sim = build_deep_pulse(2)
    sim.scheme = scheme
    start = copy.deepcopy(sim.forest)
    with ProcessMachine(copy.deepcopy(start), 3, scheme, config=FAST) as m:
        def step_both():
            sim.advance(DT)
            m.advance(DT)
            assert_interiors_equal(m, sim.forest)

        step_both()
        # adopt: move one block of rank 0 onto rank 2
        bid = next(b for b in m.topology.sorted_ids() if m.assignment[b] == 0)
        m.adopt_block(bid, 2, m.local_block(bid).interior.copy())
        step_both()
        # respawn: kill rank 1, bring it back, give it its blocks again
        state = m.gather()
        lost = [b for b, r in m.assignment.items() if r == 1]
        old_segment = m._segments[1].name
        m.kill_rank(1)
        assert m.try_respawn(1)
        assert m._segments[1].name != old_segment
        for b in lost:
            m.adopt_block(b, 1, state[b])
        step_both()
        # restore: global rollback to the initial state
        m.restore(copy.deepcopy(start), time=0.0, step_index=0)
        sim = Simulation(copy.deepcopy(start), scheme)
        step_both()
        step_both()


def test_counts_on_the_benchmark_forest():
    """Exact wire counts per step and per phase, on both machines: the
    face regions of a level-jump-1 forest (the full exchange, edges and
    corners included, sent 432 messages and 94 656 bytes a step)."""
    scheme = AdvectionScheme((1.0, 0.5), order=2)
    emu = EmulatedMachine(bench_forest(), 2, scheme)
    emu.advance(DT)
    assert (emu.stats.n_messages, emu.stats.n_bytes, emu.stats.n_local) == (168, 84_096, 760)
    with ProcessMachine(bench_forest(), 2, scheme, config=FAST) as m:
        m.advance(DT)
        assert (m.stats.n_messages, m.stats.n_bytes, m.stats.n_local) == (168, 84_096, 760)
        strip = lambda replies: {
            rank: {k: v for k, v in body.items() if k not in ("status", "busy_s")}
            for rank, body in replies.items()
        }
        assert strip(m._phase("exch1")) == {
            0: {"n_messages": 42, "n_values": 2688, "n_local": 188},
            1: {"n_messages": 30, "n_values": 1920, "n_local": 172},
        }
        assert strip(m._phase("exch2-gather")) == {
            0: {"n_messages": 0, "n_values": 0, "n_local": 0, "n_payloads": 0},
            1: {"n_messages": 12, "n_values": 648, "n_local": 20, "n_payloads": 32},
        }
        assert strip(m._phase("exch2-write")) == {
            0: {"n_prolonged": 0}, 1: {"n_prolonged": 32},
        }
        breakdown = m.phase_breakdown()
        assert set(breakdown) == set(m.phase_seconds) == {"exchange", "compute", "control"}
        for bucket, row in breakdown.items():
            assert row["wall_s"] == m.phase_seconds[bucket]
            assert len(row["work_s"]) == 2
            assert 0.0 <= row["wait_s"] <= row["wall_s"]
            assert all(0.0 <= w <= row["wall_s"] for w in row["work_s"])
        assert breakdown["compute"]["wall_s"] > 0.0 < min(breakdown["compute"]["work_s"])


def open_machine(kind, forest, n_ranks, scheme):
    if kind == "emulated":
        return contextlib.nullcontext(EmulatedMachine(forest, n_ranks, scheme))
    return ProcessMachine(forest, n_ranks, scheme, config=FAST)


@pytest.mark.parametrize("machine", ["emulated", "process"])
def test_adopting_onto_the_owner_reuses_its_row(machine):
    """Adoption frees the previous owner's row first, also when that is
    the adopting rank: repeated adoptions neither grow the pool nor run
    a fixed-capacity segment out of rows, and the run stays bitwise."""
    sim = build_deep_pulse(2)
    with open_machine(machine, copy.deepcopy(sim.forest), 2, sim.scheme) as m:
        bid = next(b for b in m.topology.sorted_ids() if m.assignment[b] == 0)
        rows = m._arena(0).n_active
        for _ in range(m.topology.n_blocks + 2):
            m.adopt_block(bid, 0, m.local_block(bid).interior.copy())
        assert m._arena(0).n_active == rows
        for _ in range(2):
            sim.advance(DT)
            m.advance(DT)
        assert_interiors_equal(m, sim.forest)


@pytest.mark.parametrize("machine", ["emulated", "process"])
def test_unrecovered_rank_loss_refuses_to_step(machine):
    """Blocks lost to a dead rank and never restored: the next step
    refuses before any rank runs a phase, so the survivor lives on."""
    sim = build_deep_pulse(2)
    with open_machine(machine, copy.deepcopy(sim.forest), 2, sim.scheme) as m:
        m.advance(DT)
        m.kill_rank(1)
        with pytest.raises(RuntimeError, match="cannot exchange"):
            m.advance(DT)
        assert m.alive == [True, False]
        # a respawned process holds none of its blocks until they are put back
        if m.try_respawn(1):
            with pytest.raises(RuntimeError, match="cannot exchange"):
                m.advance(DT)
        if machine == "process":
            assert [d.rank for d in m.deaths] == [1]


def test_staged_flip_names_the_block_of_the_payload():
    """Payload order is plan order on both sides of the pipe: a worker's
    local payload index maps to the destination block the supervisor
    derives from the schedule."""
    scheme = AdvectionScheme((1.0, 0.5), order=2)
    sim = build_deep_pulse(2)
    forest = copy.deepcopy(sim.forest)
    plan = FaultPlan(bitflips=[BitFlip(step=1, target="staging", block=7, byte=3, bit=4)])
    with ProcessMachine(forest, 2, scheme, fault_plan=plan, config=FAST) as m:
        total = 0
        for rank in range(2):
            own = frozenset(b for b, r in m.assignment.items() if r == rank)
            entries = compile_plan(
                m.topology, regions=m._plan, dest=own
            ).prolongs
            assert [p.dst.id for p in entries] == [
                m._payload_block(rank, i) for i in range(len(entries))
            ]
            assert m._payload_block(rank, len(entries)) is None
            total += len(entries)
        m.advance(DT)
        with pytest.raises(CorruptionError) as err:
            m.advance(DT)
        (entry,) = err.value.entries
        assert entry.region == "staging"
        # global payload 7, ranks in order: rank 0's payloads come first
        n0 = sum(1 for i in range(total) if m._payload_block(0, i) is not None)
        rank, idx = (0, 7) if 7 < n0 else (1, 7 - n0)
        assert (entry.rank, entry.block) == (rank, m._payload_block(rank, idx))
