"""Tests for the real-process parallel backend (repro.parallel.procmachine).

Every rank is an actual OS process with its block pool in a POSIX
shared-memory segment, so these tests exercise genuinely independent
failure: ``--kill``-style faults deliver a real SIGKILL, hangs are
detected by heartbeat staleness, and recovery respawns a fresh process
and restores its blocks from the SFC buddy's shared-memory mirror with
zero disk reads.  The headline oracle stays the same as the emulator's:
bit-for-bit agreement with the serial driver, faults or no faults.

An autouse fixture sweeps for orphaned shared-memory segments and
zombie child processes after *every* test — leak-proof teardown is an
acceptance criterion, not a best effort.
"""

import multiprocessing as mp
import os
import sys

import numpy as np
import pytest

from repro.amr import Simulation
from repro.amr.boundary import OutflowBC
from repro.core import BlockForest, BlockID
from repro.core.arena import BlockArena
from repro.parallel import (
    FailureKind,
    ProcConfig,
    ProcessMachine,
    leaked_segments,
    sfc_partition,
)
from repro.parallel.shared_arena import SharedBlockArena
from repro.resilience import (
    BitFlip,
    Checkpointer,
    FaultPlan,
    RankKill,
    RetryPolicy,
    Scrubber,
    run_with_recovery,
)
from repro.solvers import AdvectionScheme, EulerScheme
from repro.util.geometry import Box

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") and sys.platform != "darwin",
    reason="process backend requires POSIX shared memory + fork",
)

#: Aggressive supervision so failure-path tests finish in seconds while
#: staying far above scheduler jitter on an oversubscribed CI box.
FAST = ProcConfig(
    phase_timeout=0.5,
    hard_timeout=20.0,
    heartbeat_interval=0.02,
    heartbeat_timeout=1.0,
)


@pytest.fixture(autouse=True)
def no_leaked_segments_no_zombies():
    """Acceptance sweep: every test leaves /dev/shm and the process
    table exactly as it found them."""
    yield
    for proc in mp.active_children():
        proc.join(timeout=10)
    assert mp.active_children() == [], "zombie worker processes remain"
    assert leaked_segments() == [], "orphaned shared-memory segments remain"


def make_amr_forest(nvar=1, periodic=(True, True)):
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=nvar,
        n_ghost=2, periodic=periodic, max_level=3,
    )
    f.adapt([BlockID(0, (0, 0)), BlockID(0, (1, 1))])
    f.adapt([BlockID(1, (1, 1))])
    return f


def init_pulse(forest, scheme):
    for b in forest:
        X, Y = b.meshgrid()
        if scheme.nvar == 1:
            b.interior[0] = np.exp(-50 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
        else:
            w = np.stack(
                [
                    1.0
                    + 0.3 * np.exp(-50 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)),
                    0.4 * np.ones_like(X),
                    -0.2 * np.ones_like(X),
                    np.ones_like(X),
                ]
            )
            b.interior[...] = scheme.prim_to_cons(w)


def serial_reference(scheme, n_steps, dt, *, nvar=1, periodic=(True, True),
                     bc=None):
    forest = make_amr_forest(nvar, periodic)
    init_pulse(forest, scheme)
    sim = Simulation(forest, scheme, bc=bc) if bc else Simulation(
        forest, scheme
    )
    for _ in range(n_steps):
        sim.advance(dt)
    return forest


def assert_bitwise(machine, forest_ref):
    gathered = machine.gather()
    assert set(gathered) == set(forest_ref.blocks)
    for bid, block in forest_ref.blocks.items():
        np.testing.assert_array_equal(gathered[bid], block.interior)


class CountingCheckpointer(Checkpointer):
    """Checkpointer that counts disk restores (localized recovery must
    never need one)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_disk_loads = 0

    def load_latest(self):
        self.n_disk_loads += 1
        return super().load_latest()


DT = 1e-3


def drive_with_recovery(machine, tmp_path, *, n_steps=4, strategy="local",
                        checkpointer=None):
    ckpt = checkpointer or Checkpointer(tmp_path)
    report = run_with_recovery(
        machine, n_steps=n_steps, dt=DT, checkpointer=ckpt,
        checkpoint_every=1, strategy=strategy,
    )
    return report, ckpt


# ---------------------------------------------------------------------------
# fault-free correctness: real processes match the serial driver bitwise
# ---------------------------------------------------------------------------


class TestBitwiseAgreement:
    @pytest.mark.parametrize("n_ranks", [1, 3])
    def test_two_stage_advection_matches_serial(self, n_ranks):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        ref = serial_reference(scheme, 4, DT)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        with ProcessMachine(forest, n_ranks, scheme, config=FAST) as m:
            for _ in range(4):
                m.advance(DT)
            assert_bitwise(m, ref)
            assert m.stats.n_messages > 0 or n_ranks == 1

    def test_one_stage_scheme_matches_serial(self):
        scheme = AdvectionScheme((1.0, 0.5), order=1)
        ref = serial_reference(scheme, 4, DT)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        with ProcessMachine(forest, 3, scheme, config=FAST) as m:
            for _ in range(4):
                m.advance(DT)
            assert_bitwise(m, ref)

    def test_euler_outflow_bc_matches_serial(self):
        scheme = EulerScheme(2)
        bc = OutflowBC()
        ref = serial_reference(
            scheme, 3, DT, nvar=scheme.nvar, periodic=(False, False), bc=bc
        )
        forest = make_amr_forest(scheme.nvar, (False, False))
        init_pulse(forest, scheme)
        with ProcessMachine(forest, 3, scheme, bc=bc, config=FAST) as m:
            for _ in range(3):
                m.advance(DT)
            assert_bitwise(m, ref)

    def test_sanitizer_and_race_detector_attach(self):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        ref = serial_reference(scheme, 3, DT)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        with ProcessMachine(
            forest, 3, scheme, sanitize=True, config=FAST
        ) as m:
            m.attach_race_detector()
            for _ in range(3):
                m.advance(DT)
            assert m.sanitizer is not None
            assert m.sanitizer.n_exchanges_checked > 0
            assert m.race_detector.epoch > 0
            assert_bitwise(m, ref)

    def test_rank_cells_and_gather_cover_forest(self):
        scheme = AdvectionScheme((1.0, 0.5), order=1)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        with ProcessMachine(forest, 3, scheme, config=FAST) as m:
            cells = m.rank_cells()
            assert len(cells) == 3
            assert sum(cells) == m.topology.n_cells


# ---------------------------------------------------------------------------
# real SIGKILL -> localized recovery from shared-memory partner mirrors
# ---------------------------------------------------------------------------


class TestRealProcessDeath:
    def test_sigkill_recovers_locally_with_zero_disk_reads(self, tmp_path):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        ref = serial_reference(scheme, 4, DT)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        plan = FaultPlan(kills=[RankKill(step=2, rank=1)])
        ckpt = CountingCheckpointer(tmp_path)
        with ProcessMachine(
            forest, 3, scheme, fault_plan=plan,
            retry_policy=RetryPolicy(seed=1), config=FAST,
        ) as m:
            victim_pid = m._procs[1].pid
            report, _ = drive_with_recovery(m, tmp_path, checkpointer=ckpt)
            assert [(e.kind, e.strategy) for e in report.events] == [
                ("rank-failure", "local")
            ]
            # A real process died and a genuinely new one replaced it.
            assert [d.kind for d in m.deaths] == [FailureKind.SIGKILL]
            assert m.alive_ranks == [0, 1, 2]
            assert m._procs[1].pid != victim_pid
            # Localized recovery is pure shared-memory: no disk restore.
            assert ckpt.n_disk_loads == 0
            assert_bitwise(m, ref)

    def test_double_kill_escalates_to_checkpoint_rollback(self, tmp_path):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        ref = serial_reference(scheme, 4, DT)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        plan = FaultPlan(
            kills=[RankKill(step=3, rank=0), RankKill(step=3, rank=1)]
        )
        ckpt = CountingCheckpointer(tmp_path)
        with ProcessMachine(
            forest, 3, scheme, fault_plan=plan,
            retry_policy=RetryPolicy(seed=1), config=FAST,
        ) as m:
            report, _ = drive_with_recovery(m, tmp_path, checkpointer=ckpt)
            assert [(e.kind, e.strategy) for e in report.events] == [
                ("rank-failure", "global")
            ]
            assert report.events[0].escalated
            assert ckpt.n_disk_loads >= 1
            assert m.alive_ranks == [0, 1, 2]  # restore respawned both
            assert_bitwise(m, ref)

    def test_kill_empty_rank_is_absorbed(self, tmp_path):
        # With far more ranks than blocks, some ranks own nothing;
        # SIGKILLing one must not trigger recovery at all.
        scheme = AdvectionScheme((1.0, 0.5), order=1)
        ref = serial_reference(scheme, 3, DT)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        n_ranks = 25  # > 19 blocks: the partition leaves some ranks empty
        with ProcessMachine(forest, n_ranks, scheme, config=FAST) as m:
            empty = next(
                r for r in range(n_ranks) if not m.rank_blocks[r]
            )
            m.advance(DT)
            m.kill_rank(empty)
            for _ in range(2):
                m.advance(DT)  # no RankFailure: nothing was lost
            assert [d.kind for d in m.deaths] == [FailureKind.SIGKILL]
            assert empty not in m.alive_ranks
            assert_bitwise(m, ref)

    def test_respawn_failure_degrades_to_redistribution(self, tmp_path):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        ref = serial_reference(scheme, 4, DT)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        plan = FaultPlan(kills=[RankKill(step=2, rank=1)])
        with ProcessMachine(
            forest, 3, scheme, fault_plan=plan,
            retry_policy=RetryPolicy(seed=1), config=FAST,
        ) as m:
            m.fail_respawn.add(1)  # test hook: every respawn attempt fails
            report, _ = drive_with_recovery(m, tmp_path)
            assert [(e.kind, e.strategy) for e in report.events] == [
                ("rank-failure", "local")
            ]
            # The rank stays dead; its blocks now live on the survivors.
            assert m.alive_ranks == [0, 2]
            assert sum(len(m.rank_blocks[r]) for r in m.alive_ranks) == len(
                ref.blocks
            )
            assert_bitwise(m, ref)


# ---------------------------------------------------------------------------
# silent data corruption: scrub + mirror-verified healing on real processes
# ---------------------------------------------------------------------------


class TestSilentDataCorruption:
    """Bitflips injected into real worker address spaces (via the
    supervisor fault channel) must be detected at the next phase
    boundary and healed back to bit-for-bit agreement with the serial
    driver — the same oracle the SIGKILL tests use."""

    def test_fault_free_scrub_run_is_bit_identical(self):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        ref = serial_reference(scheme, 4, DT)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        with ProcessMachine(forest, 3, scheme, config=FAST) as m:
            scrubber = m.attach_scrubber(Scrubber(every=1))
            for _ in range(4):
                m.advance(DT)
            assert_bitwise(m, ref)
            assert scrubber.scrubs >= 4
            assert scrubber.mismatches == 0

    @pytest.mark.parametrize("target", ["interior", "mirror", "staging"])
    def test_flip_detected_and_healed_bit_for_bit(self, target, tmp_path):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        ref = serial_reference(scheme, 4, DT)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        plan = FaultPlan(
            bitflips=[BitFlip(step=2, target=target, block=1, byte=7,
                              bit=4)]
        )
        with ProcessMachine(
            forest, 3, scheme, fault_plan=plan, config=FAST,
        ) as m:
            m.attach_scrubber(Scrubber(every=1))
            report, _ = drive_with_recovery(m, tmp_path)
            events = [e for e in report.events if e.kind == "corruption"]
            assert events, "flip was never detected"
            assert events[0].step == 2
            # no rank died: the machine never lost a process to SDC
            assert m.deaths == []
            assert m.alive_ranks == [0, 1, 2]
            assert_bitwise(m, ref)

    def test_interior_flip_heals_from_mirror_with_zero_disk_reads(
        self, tmp_path
    ):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        ref = serial_reference(scheme, 4, DT)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        plan = FaultPlan(
            bitflips=[BitFlip(step=2, target="interior", block=0, byte=3,
                              bit=2)]
        )
        ckpt = CountingCheckpointer(tmp_path)
        with ProcessMachine(
            forest, 3, scheme, fault_plan=plan, config=FAST,
        ) as m:
            m.attach_scrubber(Scrubber(every=1))
            report, _ = drive_with_recovery(
                m, tmp_path, strategy="local", checkpointer=ckpt
            )
            assert [(e.kind, e.strategy) for e in report.events] == [
                ("corruption", "local")
            ]
            assert ckpt.n_disk_loads == 0
            assert_bitwise(m, ref)


# ---------------------------------------------------------------------------
# failure-detector edge cases (satellite: heartbeat vs slow, hang, retry)
# ---------------------------------------------------------------------------


class TestFailureDetector:
    def _run(self, tmp_path, hooks, *, retry_policy=None, config=FAST,
             n_steps=4):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        ref = serial_reference(scheme, n_steps, DT)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        with ProcessMachine(
            forest, 3, scheme,
            retry_policy=retry_policy or RetryPolicy(seed=3),
            config=config, test_hooks=hooks,
        ) as m:
            report, _ = drive_with_recovery(m, tmp_path, n_steps=n_steps)
            assert_bitwise(m, ref)
            return m, report

    def test_hang_detected_by_stale_heartbeat(self, tmp_path):
        m, report = self._run(tmp_path, {1: {(2, "exch1"): "hang"}})
        assert FailureKind.HANG in {d.kind for d in m.deaths}
        assert len(report.events) >= 1
        assert m.alive_ranks == [0, 1, 2]

    def test_slow_rank_is_not_falsely_killed(self, tmp_path):
        # Three times the phase timeout, but the heartbeat stays fresh:
        # the supervisor must wait, not kill.
        m, report = self._run(tmp_path, {1: {(2, "step"): "slow:1.5"}})
        assert m.deaths == []
        assert report.events == []

    def test_clean_exit_is_classified(self, tmp_path):
        m, report = self._run(tmp_path, {1: {(2, "exch2-write"): "exit"}})
        assert [d.kind for d in m.deaths][:1] == [FailureKind.CLEAN_EXIT]
        assert m.alive_ranks == [0, 1, 2]

    def test_mute_reply_recovered_by_probe(self, tmp_path):
        # The worker computes but "loses" its reply; the supervisor's
        # resend probe recovers it without declaring a death.
        m, report = self._run(tmp_path, {2: {(1, "exch1"): "mute"}})
        assert m.deaths == []
        assert report.events == []

    def test_corrupt_reply_retried_then_accepted(self, tmp_path):
        m, report = self._run(tmp_path, {0: {(1, "predictor"): "garble"}})
        assert m.deaths == []
        assert m.stats.n_retries >= 1

    def test_persistent_corruption_escalates_to_unreachable(self, tmp_path):
        m, report = self._run(
            tmp_path, {1: {(2, "exch1"): "garble-forever"}}
        )
        assert FailureKind.UNREACHABLE in {d.kind for d in m.deaths}
        assert m.alive_ranks == [0, 1, 2]
        assert m.stats.n_retries >= 1

    def test_retry_backoff_is_deterministic(self, tmp_path):
        # Same seed, same schedule of corrupt replies -> identical total
        # backoff, on real processes.
        waits = []
        for trial in ("a", "b"):
            m, _ = self._run(
                tmp_path / trial, {0: {(1, "predictor"): "garble"}},
                retry_policy=RetryPolicy(seed=7),
            )
            waits.append((m.stats.n_retries, m.stats.retry_wait))
        assert waits[0] == waits[1]
        assert waits[0][0] >= 1 and waits[0][1] > 0


# ---------------------------------------------------------------------------
# teardown discipline (satellite: no leaks on exception paths)
# ---------------------------------------------------------------------------


class TestTeardown:
    def test_exception_inside_context_leaks_nothing(self):
        scheme = AdvectionScheme((1.0, 0.5), order=1)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        with pytest.raises(RuntimeError, match="boom"):
            with ProcessMachine(forest, 3, scheme, config=FAST) as m:
                m.advance(DT)
                raise RuntimeError("boom")
        # the autouse fixture asserts no segments / no children remain

    def test_close_is_idempotent(self):
        scheme = AdvectionScheme((1.0, 0.5), order=1)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        m = ProcessMachine(forest, 2, scheme, config=FAST)
        m.advance(DT)
        m.close()
        m.close()
        assert leaked_segments() == []

    def test_close_after_unrecovered_kill_leaks_nothing(self, tmp_path):
        from repro.resilience import RankFailure

        scheme = AdvectionScheme((1.0, 0.5), order=1)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        plan = FaultPlan(kills=[RankKill(step=1, rank=0)])
        with ProcessMachine(
            forest, 3, scheme, fault_plan=plan, config=FAST
        ) as m:
            m.advance(DT)
            with pytest.raises(RankFailure) as exc:
                m.advance(DT)  # the scripted kill fires at step 1
            assert exc.value.kinds == (FailureKind.SIGKILL,)
        # no recovery ran: close() must still tear down the dead rank's
        # remains plus both survivors (fixture asserts)


# ---------------------------------------------------------------------------
# shared-arena unit tests
# ---------------------------------------------------------------------------


class TestSharedArena:
    def test_buffer_backed_arena_is_fixed_capacity(self):
        buf = bytearray(2 * 1 * 8 * 8 * 8)  # 2 rows of (1, 8, 8) float64
        arena = BlockArena((4, 4), 2, 1, initial_capacity=2, buffer=buf)
        arena.acquire()
        arena.acquire()
        with pytest.raises(RuntimeError, match="fixed"):
            arena.acquire()

    def test_segment_roundtrip_and_mirror(self):
        seg = SharedBlockArena(
            (4, 4), 2, 1, capacity=2, mirror_capacity=3
        )
        try:
            row = seg.arena.acquire()
            seg.pool_view(row)[...] = 7.5
            attached = SharedBlockArena(
                (4, 4), 2, 1, capacity=2, mirror_capacity=3,
                name=seg.name, create=False,
            )
            try:
                np.testing.assert_array_equal(
                    attached.pool_view(row), seg.pool_view(row)
                )
                attached.mirror_view(2)[...] = -1.0
                assert float(seg.mirror_view(2).max()) == -1.0
                assert seg.mirror_view(0).shape == (1, 4, 4)
            finally:
                attached.destroy()
        finally:
            seg.destroy()
        assert leaked_segments() == []

    def test_destroy_is_idempotent_and_views_fail_after(self):
        seg = SharedBlockArena((4, 4), 2, 1, capacity=1)
        seg.destroy()
        seg.destroy()
        with pytest.raises(RuntimeError):
            seg.pool_view(0)

    def test_attach_requires_name(self):
        with pytest.raises(ValueError):
            SharedBlockArena((4, 4), 2, 1, capacity=1, create=False)


# ---------------------------------------------------------------------------
# restore() API parity with the emulator (driver-level global rollback)
# ---------------------------------------------------------------------------


class TestRestoreParity:
    def test_restore_rebuilds_from_forest(self):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        snapshot = make_amr_forest()
        init_pulse(snapshot, scheme)
        with ProcessMachine(forest, 3, scheme, config=FAST) as m:
            for _ in range(2):
                m.advance(DT)
            m.restore(snapshot, time=0.0, step_index=0)
            assert m.time == 0.0 and m.step_index == 0
            gathered = m.gather()
            for bid, block in snapshot.blocks.items():
                np.testing.assert_array_equal(gathered[bid], block.interior)
            # and the machine still advances correctly after restore
            ref = serial_reference(scheme, 2, DT)
            for _ in range(2):
                m.advance(DT)
            assert_bitwise(m, ref)

    def test_bad_assignment_is_rejected_before_any_change(self):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest, scheme)
        good = sfc_partition(forest, 3)
        first = next(iter(good))
        bad = [
            {**good, first: -1},  # negative rank
            {**good, first: 3},  # rank out of range
            {b: r for b, r in good.items() if b != first},  # missing block
            {**good, BlockID(0, (0, 0)): 0},  # extra block (not a leaf)
        ]
        for assignment in bad:
            with pytest.raises(ValueError, match="bad assignment"):
                ProcessMachine(forest, 3, scheme, assignment=assignment, config=FAST)
        with ProcessMachine(forest, 3, scheme, config=FAST) as m:
            for assignment in bad:
                with pytest.raises(ValueError, match="bad assignment"):
                    m.restore(forest, time=0.0, step_index=0, assignment=assignment)
            assert m.assignment == good
            for _ in range(2):
                m.advance(DT)
            assert_bitwise(m, serial_reference(scheme, 2, DT))
