"""Tests for the resilience subsystem (repro.resilience).

Covers the three pillars:

* deterministic fault injection + rollback recovery on the emulated
  machine, with the headline oracle that a recovered faulty run matches
  the fault-free serial driver **bit-for-bit**;
* the rotating checkpoint manager (atomic writes, corrupt-newest
  fallback);
* the forest invariant validator and the driver's safe mode.
"""

import numpy as np
import pytest

from repro.amr import Simulation, advecting_pulse
from repro.amr.io import CheckpointError, save_forest
from repro.analysis.engine_bench import build_deep_pulse
from repro.core import BlockForest, BlockID
from repro.core.forest import ForestError
from repro.core.ghost import exchange_regions, fill_ghosts
from repro.parallel import sfc_partition
from repro.parallel.emulator import EmulatedMachine
from repro.resilience import (
    Checkpointer,
    FaultPlan,
    HealthIssue,
    MessageFailure,
    MessageFault,
    PartnerStore,
    RankFailure,
    RankKill,
    RetryPolicy,
    UnrecoverableStep,
    assert_valid_forest,
    run_with_recovery,
    scan_forest_health,
    validate_forest,
)
from repro.solvers import AdvectionScheme, EulerScheme
from repro.util.geometry import Box


def make_amr_forest(nvar=1, periodic=(True, True)):
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=nvar,
        n_ghost=2, periodic=periodic, max_level=3,
    )
    f.adapt([BlockID(0, (0, 0)), BlockID(0, (1, 1))])
    f.adapt([BlockID(1, (1, 1))])
    return f


def init_pulse(forest):
    for b in forest:
        X, Y = b.meshgrid()
        b.interior[0] = np.exp(-50 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))


def serial_reference(scheme, n_steps, dt):
    forest = make_amr_forest()
    init_pulse(forest)
    sim = Simulation(forest, scheme)
    for _ in range(n_steps):
        sim.advance(dt)
    return forest


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_random_is_deterministic(self):
        a = FaultPlan.random(seed=7, n_steps=10, n_ranks=4, n_kills=2,
                             n_message_faults=3)
        b = FaultPlan.random(seed=7, n_steps=10, n_ranks=4, n_kills=2,
                             n_message_faults=3)
        assert a.kills == b.kills
        assert a.message_faults == b.message_faults
        c = FaultPlan.random(seed=8, n_steps=10, n_ranks=4, n_kills=2,
                             n_message_faults=3)
        assert (a.kills, a.message_faults) != (c.kills, c.message_faults)

    def test_random_leaves_a_survivor(self):
        with pytest.raises(ValueError):
            FaultPlan.random(seed=0, n_steps=5, n_ranks=3, n_kills=3)

    def test_faults_are_one_shot(self):
        plan = FaultPlan(
            kills=[RankKill(step=2, rank=1)],
            message_faults=[MessageFault(step=3, index=0, mode="drop")],
        )
        assert plan.pending == 2
        assert plan.kills_at(1) == []
        assert plan.kills_at(2) == [1]
        assert plan.kills_at(2) == []  # consumed
        assert plan.message_fault(3, 0) == "drop"
        assert plan.message_fault(3, 0) is None  # consumed
        assert plan.pending == 0

    def test_bad_message_mode_rejected(self):
        with pytest.raises(ValueError):
            MessageFault(step=1, index=0, mode="explode")


# ---------------------------------------------------------------------------
# emulator fault handling
# ---------------------------------------------------------------------------


class TestEmulatorFaults:
    def test_kill_rank_updates_liveness_and_guards(self):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest)
        emu = EmulatedMachine(forest, 4, scheme)
        assert emu.alive_ranks == [0, 1, 2, 3]
        emu.kill_rank(1)
        assert emu.alive_ranks == [0, 2, 3]
        assert emu.lost_blocks()  # its blocks are unowned now
        # gather()/rank_cells() skip the dead rank instead of crashing.
        gathered = emu.gather()
        assert len(gathered) < forest.n_blocks
        assert len(emu.rank_cells()) == 3
        # An exchange with unowned blocks is refused with a clear error.
        with pytest.raises(RuntimeError, match="lost"):
            emu.exchange()

    def test_restore_repartitions_over_survivors(self, tmp_path):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest)
        emu = EmulatedMachine(forest, 4, scheme)
        ckpt = Checkpointer(tmp_path)
        ckpt.save(forest, step=0, time=0.0)
        emu.advance(1e-3)
        emu.kill_rank(2)
        restored, info = ckpt.load_latest()
        emu.restore(restored, time=info.time, step_index=info.step)
        assert not emu.lost_blocks()
        assert emu.time == 0.0 and emu.step_index == 0
        assert set(emu.assignment.values()) <= {0, 1, 3}
        gathered = emu.gather()
        for bid, blk in forest.blocks.items():
            np.testing.assert_array_equal(gathered[bid], blk.interior)

    def test_rank_kill_raises_rank_failure(self):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest)
        plan = FaultPlan(kills=[RankKill(step=0, rank=0)])
        emu = EmulatedMachine(forest, 3, scheme, fault_plan=plan)
        with pytest.raises(RankFailure) as exc:
            emu.advance(1e-3)
        assert exc.value.ranks == (0,)
        assert exc.value.lost_blocks

    @pytest.mark.parametrize("mode", ["drop", "corrupt"])
    def test_message_fault_raises_message_failure(self, mode):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest)
        plan = FaultPlan(
            message_faults=[MessageFault(step=0, index=3, mode=mode)]
        )
        emu = EmulatedMachine(forest, 4, scheme, fault_plan=plan)
        with pytest.raises(MessageFailure) as exc:
            emu.advance(1e-3)
        assert exc.value.mode == mode
        assert exc.value.index == 3

    def test_message_index_names_the_kth_remote_transfer(self):
        """Fault plans address messages by index: the remote transfers of
        a step, stage 1 (copies, restrictions) in plan order, then stage
        2 (prolongations), once per exchange of the step."""
        sim = build_deep_pulse(3)
        assignment = sfc_partition(sim.forest, 3)
        stages = ([], [])
        for bid, _offset, transfers in exchange_regions(sim.forest):
            for t in transfers:
                if assignment[t.src_id] != assignment[bid]:
                    stages[t.delta < 0].append((t.src_id, bid))
        wire = (stages[0] + stages[1]) * sim.scheme.n_stages
        assert len(wire) == 160
        edges = {len(stages[0]) - 1, len(stages[0]), len(wire) // 2, len(wire) - 1}
        for k in sorted(edges | set(range(0, len(wire), 13))):
            plan = FaultPlan(message_faults=[MessageFault(step=0, index=k, mode="drop")])
            emu = EmulatedMachine(sim.forest, 3, sim.scheme, fault_plan=plan)
            with pytest.raises(MessageFailure) as exc:
                emu.advance(1e-4)
            assert (exc.value.src_id, exc.value.dst_id) == wire[k], k
            assert exc.value.index == k
            assert emu.stats.n_messages == k + 1


# ---------------------------------------------------------------------------
# recovery: the bit-for-bit acceptance criterion
# ---------------------------------------------------------------------------


class TestRecovery:
    N_STEPS = 6
    DT = 1e-3

    def _run(self, plan, tmp_path, n_ranks=4, checkpoint_every=2):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest)
        emu = EmulatedMachine(forest, n_ranks, scheme, fault_plan=plan)
        report = run_with_recovery(
            emu,
            n_steps=self.N_STEPS,
            dt=self.DT,
            checkpointer=Checkpointer(tmp_path),
            checkpoint_every=checkpoint_every,
        )
        reference = serial_reference(scheme, self.N_STEPS, self.DT)
        gathered = emu.gather()
        worst = 0.0
        for bid, blk in reference.blocks.items():
            worst = max(worst, float(np.abs(gathered[bid] - blk.interior).max()))
        return emu, report, worst

    def test_rank_failure_recovers_bit_for_bit(self, tmp_path):
        plan = FaultPlan(kills=[RankKill(step=3, rank=1)])
        emu, report, worst = self._run(plan, tmp_path)
        assert worst == 0.0
        assert emu.alive_ranks == [0, 2, 3]
        assert report.steps_completed == self.N_STEPS
        (event,) = report.events
        assert event.kind == "rank-failure"
        assert event.step == 3
        assert event.restored_from_step == 2
        assert event.replayed_steps == 1

    @pytest.mark.parametrize("mode", ["drop", "corrupt"])
    def test_message_fault_recovers_bit_for_bit(self, mode, tmp_path):
        plan = FaultPlan(
            message_faults=[MessageFault(step=2, index=7, mode=mode)]
        )
        emu, report, worst = self._run(plan, tmp_path, n_ranks=3,
                                       checkpoint_every=1)
        assert worst == 0.0
        assert emu.alive_ranks == [0, 1, 2]
        (event,) = report.events
        assert event.kind == f"message-{mode}"

    def test_multiple_faults_recover_bit_for_bit(self, tmp_path):
        plan = FaultPlan(
            kills=[RankKill(step=1, rank=3), RankKill(step=4, rank=0)],
            message_faults=[MessageFault(step=2, index=0, mode="corrupt")],
        )
        emu, report, worst = self._run(plan, tmp_path, checkpoint_every=1)
        assert worst == 0.0
        assert emu.alive_ranks == [1, 2]
        assert len(report.events) == 3
        assert plan.pending == 0

    def test_recovery_budget_is_bounded(self, tmp_path):
        plan = FaultPlan(kills=[RankKill(step=1, rank=1)])
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest)
        emu = EmulatedMachine(forest, 4, scheme, fault_plan=plan)
        with pytest.raises(RankFailure):
            run_with_recovery(
                emu, n_steps=4, dt=self.DT,
                checkpointer=Checkpointer(tmp_path),
                max_recoveries=0,
            )


# ---------------------------------------------------------------------------
# localized recovery: the partner-redundancy tier
# ---------------------------------------------------------------------------


class _CountingCheckpointer(Checkpointer):
    """Counts disk restores so tests can pin zero-disk local recovery."""

    def __init__(self, root, **kw):
        super().__init__(root, **kw)
        self.loads = 0

    def load_latest(self):
        self.loads += 1
        return super().load_latest()


class TestLocalizedRecovery:
    N_STEPS = 6
    DT = 1e-3

    def _run(self, plan, tmp_path, *, strategy="local", refresh_every=1,
             n_ranks=4, retry_policy=None):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest)
        emu = EmulatedMachine(forest, n_ranks, scheme, fault_plan=plan,
                              retry_policy=retry_policy)
        ckpt = _CountingCheckpointer(tmp_path)
        report = run_with_recovery(
            emu, n_steps=self.N_STEPS, dt=self.DT, checkpointer=ckpt,
            checkpoint_every=2, strategy=strategy,
            partner_refresh_every=refresh_every,
        )
        reference = serial_reference(scheme, self.N_STEPS, self.DT)
        gathered = emu.gather()
        worst = 0.0
        for bid, blk in reference.blocks.items():
            worst = max(worst, float(np.abs(gathered[bid] - blk.interior).max()))
        return emu, report, ckpt, worst

    def test_rank_kill_recovers_locally_bit_for_bit(self, tmp_path):
        plan = FaultPlan(kills=[RankKill(step=3, rank=1)])
        emu, report, ckpt, worst = self._run(plan, tmp_path)
        assert worst == 0.0
        assert ckpt.loads == 0  # acceptance: zero disk reads
        (event,) = report.events
        assert event.strategy == "local"
        assert not event.escalated
        # Only the dead rank's blocks moved, not the whole forest.
        assert 0 < event.blocks_restored < emu.topology.n_blocks
        assert event.bytes_restored > 0
        # Snapshot cadence 1 + kill-before-step => nothing to replay.
        assert event.replayed_steps == 0
        assert report.n_local_recoveries == 1
        assert report.steps_completed == self.N_STEPS

    def test_stale_snapshot_rewinds_and_replays_window(self, tmp_path):
        plan = FaultPlan(kills=[RankKill(step=4, rank=2)])
        emu, report, ckpt, worst = self._run(plan, tmp_path,
                                             refresh_every=3)
        assert worst == 0.0
        assert ckpt.loads == 0
        (event,) = report.events
        assert event.strategy == "local"
        # Snapshot is from step 3; the kill hit before step 4.
        assert event.restored_from_step == 3
        assert event.replayed_steps == 1
        assert report.steps_replayed == 1

    def test_message_fault_recovers_locally(self, tmp_path):
        plan = FaultPlan(
            message_faults=[MessageFault(step=2, index=7, mode="corrupt")]
        )
        emu, report, ckpt, worst = self._run(plan, tmp_path)
        assert worst == 0.0
        assert ckpt.loads == 0
        (event,) = report.events
        assert event.kind == "message-corrupt"
        assert event.strategy == "local"

    def test_double_fault_escalates_to_global(self, tmp_path):
        # Ranks 1 and 2 die together; rank 1's partner copy lives on
        # rank 2, so localized recovery is impossible by construction.
        plan = FaultPlan(
            kills=[RankKill(step=3, rank=1), RankKill(step=3, rank=2)]
        )
        emu, report, ckpt, worst = self._run(plan, tmp_path,
                                             strategy="local")
        assert worst == 0.0
        (event,) = report.events
        assert event.strategy == "global"
        assert event.escalated
        assert ckpt.loads == 1
        assert report.n_escalations == 1
        assert emu.alive_ranks == [0, 3]

    def test_lost_partner_copy_escalates(self, tmp_path):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest)
        emu = EmulatedMachine(forest, 4, scheme)
        partner = PartnerStore(emu)
        partner.refresh()
        partner.invalidate(1)  # the holder lost its redundancy buffer
        emu.kill_rank(1)
        assert not partner.can_restore([1])

    def test_global_strategy_never_builds_partner_tier(self, tmp_path):
        plan = FaultPlan(kills=[RankKill(step=3, rank=1)])
        emu, report, ckpt, worst = self._run(plan, tmp_path,
                                             strategy="global")
        assert worst == 0.0
        (event,) = report.events
        assert event.strategy == "global"
        assert not event.escalated  # no partner tier, not an escalation
        assert ckpt.loads == 1
        assert emu.stats.n_partner_messages == 0

    def test_bad_strategy_rejected(self, tmp_path):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest)
        emu = EmulatedMachine(forest, 4, scheme)
        for strategy in ("psychic", "auto"):
            with pytest.raises(ValueError, match="strategy"):
                run_with_recovery(
                    emu, n_steps=1, dt=self.DT,
                    checkpointer=Checkpointer(tmp_path), strategy=strategy,
                )

    def test_recovery_events_carry_wall_time(self, tmp_path):
        plan = FaultPlan(kills=[RankKill(step=3, rank=1)])
        emu, report, ckpt, worst = self._run(plan, tmp_path)
        (event,) = report.events
        assert event.duration > 0.0
        assert report.recovery_time == event.duration
        # The recovery cost lands on the step that finally succeeded.
        charged = [r for r in report.history if r.recovery_time]
        assert len(charged) == 1
        assert charged[0].recovery_time >= event.duration


class TestPartnerStore:
    def _machine(self, n_ranks=4):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest)
        return EmulatedMachine(forest, n_ranks, scheme)

    def test_pairing_is_a_buddy_ring(self):
        emu = self._machine()
        partner = PartnerStore(emu)
        pairing = partner.pairing
        assert sorted(pairing) == [0, 1, 2, 3]
        assert sorted(pairing.values()) == [0, 1, 2, 3]
        assert all(pairing[r] != r for r in pairing)

    def test_refresh_is_incremental(self):
        emu = self._machine()
        partner = PartnerStore(emu)
        assert partner.refresh() == emu.topology.n_blocks
        # Nothing changed: the content tags skip every block.
        assert partner.refresh() == 0
        traffic = emu.stats.n_partner_bytes
        emu.advance(1e-3)
        assert partner.refresh() > 0
        assert emu.stats.n_partner_bytes > traffic

    def test_has_copy_requires_alive_holder(self):
        emu = self._machine()
        partner = PartnerStore(emu)
        partner.refresh()
        assert partner.has_copy(1)
        holder = partner.holder_of(1)
        emu.kill_rank(holder)
        assert not partner.has_copy(1)

    def test_refresh_rebuilds_after_membership_change(self):
        emu = self._machine()
        partner = PartnerStore(emu)
        partner.refresh()
        victim = 1
        emu.kill_rank(victim)
        partner.refresh()  # ring over [0, 2, 3] now
        assert victim not in partner.pairing
        assert sorted(partner.pairing) == [0, 2, 3]

    def test_single_rank_has_no_partner(self):
        emu = self._machine(n_ranks=1)
        partner = PartnerStore(emu)
        partner.refresh()
        assert partner.pairing == {}
        assert not partner.has_copy(0)
        assert not partner.can_rewind()


# ---------------------------------------------------------------------------
# transient message faults and retry supervision
# ---------------------------------------------------------------------------


class TestTransientRetry:
    def _machine(self, plan, policy):
        scheme = AdvectionScheme((1.0, 0.5), order=2)
        forest = make_amr_forest()
        init_pulse(forest)
        return EmulatedMachine(forest, 4, scheme, fault_plan=plan,
                               retry_policy=policy)

    def test_transient_within_budget_is_invisible(self, tmp_path):
        plan = FaultPlan(
            message_faults=[
                MessageFault(step=2, index=4, mode="drop", transient=True)
            ]
        )
        emu = self._machine(plan, RetryPolicy(max_retries=3))
        report = run_with_recovery(
            emu, n_steps=4, dt=1e-3,
            checkpointer=Checkpointer(tmp_path), strategy="local",
        )
        # Acceptance: no rollback events at all, just a charged retry.
        assert report.events == []
        assert emu.stats.n_retries == 1
        assert emu.stats.retry_wait > 0.0
        reference = serial_reference(AdvectionScheme((1.0, 0.5), order=2),
                                     4, 1e-3)
        gathered = emu.gather()
        for bid, blk in reference.blocks.items():
            np.testing.assert_array_equal(gathered[bid], blk.interior)

    def test_retry_exhaustion_escalates_to_failure(self):
        # Three identical records: the message fails on the first send
        # and on both retransmissions allowed by the policy.
        fault = MessageFault(step=1, index=2, mode="drop", transient=True)
        plan = FaultPlan(message_faults=[fault, fault, fault])
        emu = self._machine(plan, RetryPolicy(max_retries=2))
        emu.advance(1e-3)
        with pytest.raises(MessageFailure) as exc:
            emu.advance(1e-3)
        assert exc.value.retries == 2
        assert "retransmission" in str(exc.value)
        assert emu.stats.n_retries == 2

    def test_transient_without_policy_is_fatal(self):
        plan = FaultPlan(
            message_faults=[
                MessageFault(step=0, index=0, mode="drop", transient=True)
            ]
        )
        emu = self._machine(plan, None)
        with pytest.raises(MessageFailure):
            emu.advance(1e-3)

    def test_backoff_is_deterministic_capped_and_growing(self):
        policy = RetryPolicy(max_retries=5, backoff_base=1e-3,
                             backoff_factor=2.0, backoff_cap=4e-3)
        a = [policy.backoff(k, step=3, index=1) for k in range(5)]
        b = [policy.backoff(k, step=3, index=1) for k in range(5)]
        assert a == b  # replays identically
        assert a[1] > a[0]
        assert max(a) <= 4e-3 * (1.0 + policy.jitter)
        # Different fault coordinates decorrelate the jitter.
        assert policy.backoff(0, step=3, index=1) != policy.backoff(
            0, step=4, index=1)

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


# ---------------------------------------------------------------------------
# empty ranks (more ranks than blocks)
# ---------------------------------------------------------------------------


def make_tiny_forest():
    """Two root blocks — fewer blocks than ranks in these tests."""
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 0.5)), (2, 1), (8, 8), nvar=1,
        n_ghost=2, periodic=(True, True), max_level=2,
    )
    init_pulse(f)
    return f


class TestEmptyRanks:
    def test_partition_leaves_some_ranks_empty(self):
        emu = EmulatedMachine(make_tiny_forest(), 4,
                              AdvectionScheme((1.0, 0.5), order=2))
        empty = [r for r in range(4) if not emu.rank_blocks[r]]
        assert empty  # 2 blocks over 4 ranks
        assert len(emu.rank_cells()) == 4
        assert min(emu.rank_cells()) == 0

    def test_killing_an_empty_rank_is_uneventful(self, tmp_path):
        emu = EmulatedMachine(make_tiny_forest(), 4,
                              AdvectionScheme((1.0, 0.5), order=2))
        empty = [r for r in range(4) if not emu.rank_blocks[r]]
        plan = FaultPlan(kills=[RankKill(step=1, rank=empty[0])])
        emu2 = EmulatedMachine(make_tiny_forest(), 4,
                               AdvectionScheme((1.0, 0.5), order=2),
                               fault_plan=plan)
        report = run_with_recovery(
            emu2, n_steps=3, dt=1e-3,
            checkpointer=Checkpointer(tmp_path), strategy="local",
        )
        # Nothing was lost, so nothing needed recovering.
        assert report.events == []
        assert empty[0] not in emu2.alive_ranks
        assert report.steps_completed == 3

    def test_partner_store_skips_empty_ranks_payloads(self):
        emu = EmulatedMachine(make_tiny_forest(), 4,
                              AdvectionScheme((1.0, 0.5), order=2))
        partner = PartnerStore(emu)
        copied = partner.refresh()
        assert copied == emu.topology.n_blocks
        assert partner.can_rewind()

    def test_local_recovery_with_empty_ranks(self, tmp_path):
        loaded = [r for r in range(4)
                  if EmulatedMachine(make_tiny_forest(), 4,
                                     AdvectionScheme((1.0, 0.5), order=2)
                                     ).rank_blocks[r]]
        plan = FaultPlan(kills=[RankKill(step=2, rank=loaded[0])])
        emu = EmulatedMachine(make_tiny_forest(), 4,
                              AdvectionScheme((1.0, 0.5), order=2),
                              fault_plan=plan)
        report = run_with_recovery(
            emu, n_steps=4, dt=1e-3,
            checkpointer=Checkpointer(tmp_path), strategy="local",
        )
        assert len(report.events) == 1
        reference = make_tiny_forest()
        sim = Simulation(reference, AdvectionScheme((1.0, 0.5), order=2))
        for _ in range(4):
            sim.advance(1e-3)
        gathered = emu.gather()
        for bid, blk in reference.blocks.items():
            np.testing.assert_array_equal(gathered[bid], blk.interior)


# ---------------------------------------------------------------------------
# checkpoint manager
# ---------------------------------------------------------------------------


class TestCheckpointer:
    def _forest(self):
        forest = make_amr_forest()
        init_pulse(forest)
        return forest

    def test_rotation_keeps_newest(self, tmp_path):
        forest = self._forest()
        ckpt = Checkpointer(tmp_path, keep=2)
        for step in (1, 2, 3, 4):
            ckpt.save(forest, step=step, time=0.1 * step)
        infos = ckpt.checkpoints()
        assert [i.step for i in infos] == [3, 4]
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_latest_skips_corrupt_newest(self, tmp_path):
        forest = self._forest()
        ckpt = Checkpointer(tmp_path, keep=3)
        ckpt.save(forest, step=1, time=0.1)
        info2 = ckpt.save(forest, step=2, time=0.2)
        info2.path.write_bytes(b"not a checkpoint at all")
        latest = ckpt.latest()
        assert latest is not None and latest.step == 1
        restored, info = ckpt.load_latest()
        assert info.step == 1
        assert set(restored.blocks) == set(forest.blocks)

    def test_empty_store_raises(self, tmp_path):
        ckpt = Checkpointer(tmp_path)
        assert ckpt.latest() is None
        with pytest.raises(CheckpointError):
            ckpt.load_latest()

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path, keep=0)


# ---------------------------------------------------------------------------
# torn-write hardening: a checkpoint store must never serve garbage
# ---------------------------------------------------------------------------


def _checkpoint_writer_loop(dirpath):
    """Child-process body: save checkpoints as fast as possible until
    SIGKILLed (torn-write victim for the tests below)."""
    forest = make_amr_forest()
    init_pulse(forest)
    ckpt = Checkpointer(dirpath, keep=1000)
    step = 0
    while True:
        step += 1
        ckpt.save(forest, step=step, time=0.001 * step)


class TestTornWrites:
    """A reader must see either a complete checkpoint or a clean
    :class:`CheckpointError` — never a partial payload — regardless of
    where a write was interrupted."""

    def _small_forest(self):
        # Smallest sensible forest so the byte-boundary sweep stays fast.
        forest = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), nvar=1,
            n_ghost=2, periodic=(True, True), max_level=1,
        )
        for b in forest:
            X, Y = b.meshgrid()
            b.interior[0] = X + 2.0 * Y
        return forest

    def test_truncation_at_every_byte_boundary_raises(self, tmp_path):
        from repro.amr.io import load_forest

        path = tmp_path / "ckpt.npz"
        save_forest(self._small_forest(), path, time=0.5, step=3)
        payload = path.read_bytes()
        torn = tmp_path / "torn.npz"
        for cut in range(len(payload)):
            torn.write_bytes(payload[:cut])
            with pytest.raises(CheckpointError):
                load_forest(torn)
        # the untouched original still loads
        restored = load_forest(path)
        assert set(restored.blocks) == set(self._small_forest().blocks)

    def test_latest_falls_back_past_torn_newest(self, tmp_path):
        forest = make_amr_forest()
        init_pulse(forest)
        ckpt = Checkpointer(tmp_path, keep=5)
        ckpt.save(forest, step=1, time=0.1)
        info2 = ckpt.save(forest, step=2, time=0.2)
        payload = info2.path.read_bytes()
        # tear the newest checkpoint at a handful of spread-out points
        for cut in (0, 1, len(payload) // 4, len(payload) // 2,
                    len(payload) - 1):
            info2.path.write_bytes(payload[:cut])
            fresh = Checkpointer(tmp_path, keep=5)
            latest = fresh.latest()
            assert latest is not None and latest.step == 1
            assert info2.path in fresh.quarantined
            restored, info = fresh.load_latest()
            assert info.step == 1
            assert set(restored.blocks) == set(forest.blocks)

    def test_sigkill_mid_write_never_corrupts_store(self, tmp_path):
        import multiprocessing as mp
        import os
        import signal
        import time

        from repro.amr.io import load_forest

        writer = mp.Process(
            target=_checkpoint_writer_loop, args=(tmp_path,), daemon=True
        )
        writer.start()
        # Watching a real child process: wall clock is the point here.
        deadline = time.monotonic() + 30.0  # repro: noqa[REPRO104]
        while (
            len(list(tmp_path.glob("*.npz"))) < 3
            and time.monotonic() < deadline  # repro: noqa[REPRO104]
        ):
            time.sleep(0.01)
        assert writer.pid is not None
        os.kill(writer.pid, signal.SIGKILL)
        writer.join(timeout=10)
        files = sorted(tmp_path.glob("*.npz"))
        assert files, "writer never produced a checkpoint"
        # Every published file is complete (atomic rename); anything
        # unreadable must fail loudly, never return partial data.
        n_ok = 0
        for path in files:
            try:
                restored = load_forest(path)
            except CheckpointError:
                continue
            assert len(restored.blocks) > 0
            n_ok += 1
        assert n_ok >= 1
        # The store recovers to a usable state for the next run.
        ckpt = Checkpointer(tmp_path)
        restored, info = ckpt.load_latest()
        assert len(restored.blocks) > 0
        assert info.step >= 1


class TestBitflippedCheckpoints:
    """Single-bitflip fuzz over a v2 checkpoint file.  The oracle: a
    flipped file either fails loudly with :class:`CheckpointError` or
    loads **bit-identical** to the original — flips can land in zip
    padding/ignored header bytes, but must never surface as silently
    different state."""

    def _small_forest(self):
        forest = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), nvar=1,
            n_ghost=2, periodic=(True, True), max_level=1,
        )
        for b in forest:
            X, Y = b.meshgrid()
            b.interior[0] = X + 2.0 * Y
        return forest

    @staticmethod
    def _bit_identical(a, b):
        if set(a.blocks) != set(b.blocks):
            return False
        return all(
            np.array_equal(blk.interior, b.blocks[bid].interior)
            for bid, blk in a.blocks.items()
        )

    def test_flip_at_every_byte_offset_is_detected_or_harmless(
        self, tmp_path
    ):
        from repro.amr.io import load_forest, verify_checkpoint

        path = tmp_path / "ckpt.npz"
        save_forest(self._small_forest(), path, time=0.5, step=3)
        original = load_forest(path)
        payload = bytearray(path.read_bytes())
        flipped = tmp_path / "flipped.npz"
        n_detected = n_harmless = 0
        for offset in range(len(payload)):
            bit = offset % 8  # vary the bit so sign/exponent/mantissa,
            payload[offset] ^= 1 << bit  # magic bytes and CRCs all get hit
            flipped.write_bytes(payload)
            payload[offset] ^= 1 << bit
            record = verify_checkpoint(flipped)
            try:
                restored = load_forest(flipped)
            except CheckpointError:
                n_detected += 1
                assert not record["ok"], (
                    f"verify_checkpoint passed a file load_forest "
                    f"rejects (offset {offset})"
                )
                continue
            n_harmless += 1
            assert self._bit_identical(restored, original), (
                f"bitflip at byte {offset} bit {bit} loaded silently "
                "different state"
            )
        assert n_detected + n_harmless == len(payload)
        # the data payload dominates the file, so most flips must trip
        # the checksum; only header/padding flips may be harmless
        assert n_detected > n_harmless

    def test_latest_quarantines_bitflipped_newest(self, tmp_path):
        forest = make_amr_forest()
        init_pulse(forest)
        ckpt = Checkpointer(tmp_path, keep=5)
        ckpt.save(forest, step=1, time=0.1)
        info2 = ckpt.save(forest, step=2, time=0.2)
        payload = bytearray(info2.path.read_bytes())
        # flip a byte in the middle of the member data, where the
        # array payload lives
        payload[len(payload) // 2] ^= 0x10
        info2.path.write_bytes(payload)
        fresh = Checkpointer(tmp_path, keep=5)
        latest = fresh.latest()
        assert latest is not None and latest.step == 1
        assert info2.path in fresh.quarantined
        restored, info = fresh.load_latest()
        assert info.step == 1
        assert set(restored.blocks) == set(forest.blocks)


# ---------------------------------------------------------------------------
# forest invariant validation
# ---------------------------------------------------------------------------


class TestValidateForest:
    def test_clean_forest_passes(self):
        forest = make_amr_forest()
        init_pulse(forest)
        fill_ghosts(forest)
        assert validate_forest(forest) == []
        assert_valid_forest(forest)  # should not raise

    def test_passes_after_every_adapt_of_a_driven_run(self):
        # Property: whatever sequence of refinements/coarsenings the
        # criterion produces, the forest invariants hold after each one.
        problem = advecting_pulse(2)
        sim = problem.build(adaptive=True)
        for _ in range(8):
            sim.step()
            sim.fill_ghosts()
            violations = validate_forest(sim.forest, bc=problem.bc)
            assert violations == [], [str(v) for v in violations]

    def test_missing_leaf_breaks_coverage(self):
        forest = make_amr_forest()
        dropped = next(iter(forest.blocks))
        del forest.blocks[dropped]
        checks = {v.check for v in validate_forest(forest, check_ghosts=False)}
        assert "coverage" in checks

    def test_level_jump_violation_detected(self):
        # Refine one corner three levels deep *without* the cascade
        # adapt() would perform: level 3 then touches level 0.
        forest = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), nvar=1,
            n_ghost=2, periodic=(True, True), max_level=4,
        )
        forest.refine(BlockID(0, (0, 0)), update=False)
        forest.refine(BlockID(1, (0, 0)), update=False)
        forest.refine(BlockID(2, (0, 0)), update=False)
        forest.update_neighbors()
        checks = {v.check for v in validate_forest(forest, check_ghosts=False)}
        assert "level-jump" in checks
        with pytest.raises(ForestError):
            assert_valid_forest(forest, check_ghosts=False)

    def test_stale_neighbor_pointer_detected(self):
        forest = make_amr_forest()
        block = forest.blocks[next(iter(forest.blocks))]
        face, good = next(iter(block.face_neighbors.items()))
        other = next(f for f in block.face_neighbors if f != face)
        block.face_neighbors[face] = block.face_neighbors[other]
        violations = validate_forest(forest, check_ghosts=False)
        assert any(v.check == "neighbor" for v in violations)

    def test_scribbled_ghost_detected(self):
        forest = make_amr_forest()
        init_pulse(forest)
        fill_ghosts(forest)
        bid, _offset, transfers = exchange_regions(forest)[0]
        cell = (0,) + transfers[0].dst_box.slices(forest.blocks[bid].index_origin)
        block = forest.blocks[bid]
        block.data[cell] = 999.0  # ghost cells the exchange fills
        violations = validate_forest(forest)
        assert any(v.check == "ghost" for v in violations)
        # The check must not mutate the (broken) state it inspected.
        assert (block.data[cell] == 999.0).all()


# ---------------------------------------------------------------------------
# safe stepping
# ---------------------------------------------------------------------------


class FragileAdvection(AdvectionScheme):
    """Poisons the predictor state whenever its dt exceeds a limit."""

    def __init__(self, *args, dt_limit, **kw):
        super().__init__(*args, **kw)
        self.dt_limit = dt_limit

    def step(self, u, dx, dt, g, **kw):
        super().step(u, dx, dt, g, **kw)
        if dt > self.dt_limit:
            # one cell of one block: ``u`` is a (blocks, nvar, ny, nx) tile
            u[(0,) * (u.ndim - 2) + (g, g)] = np.nan


class TestSafeMode:
    def _sim(self, dt_limit, **kw):
        scheme = FragileAdvection((1.0, 0.5), order=2, dt_limit=dt_limit)
        forest = make_amr_forest()
        init_pulse(forest)
        return Simulation(forest, scheme, safe_mode=True, **kw)

    def test_dt_halving_recovers(self):
        dt = 1e-3
        # The predictor runs at dt/2; make the first attempt poison and
        # the halved retry succeed.
        sim = self._sim(dt_limit=0.3 * dt)
        rec = sim.step(dt)
        assert rec.dt == pytest.approx(0.5 * dt)
        assert sim.time == pytest.approx(0.5 * dt)
        assert scan_forest_health(sim.forest, sim.scheme) is None

    def test_unrecoverable_step_is_structured(self):
        dt = 1e-3
        sim = self._sim(dt_limit=0.0, max_step_retries=2)  # always poisons
        with pytest.raises(UnrecoverableStep) as exc:
            sim.step(dt)
        failure = exc.value.failure
        assert failure.step == 0
        assert failure.time == 0.0
        assert len(failure.dt_attempts) == 3
        assert failure.dt_attempts[0] == pytest.approx(dt)
        assert failure.issue.reason == "non-finite"
        # The rollback left the pre-step state intact.
        assert sim.time == 0.0
        assert scan_forest_health(sim.forest, sim.scheme) is None

    def test_without_safe_mode_poison_persists(self):
        scheme = FragileAdvection((1.0, 0.5), order=2, dt_limit=0.0)
        forest = make_amr_forest()
        init_pulse(forest)
        sim = Simulation(forest, scheme)
        sim.step(1e-3)
        issue = scan_forest_health(sim.forest, sim.scheme)
        assert issue is not None and issue.reason == "non-finite"


class TestHealthScan:
    def _euler_forest(self, scheme):
        forest = make_amr_forest(nvar=scheme.nvar)
        for b in forest:
            X, _ = b.meshgrid()
            w = np.stack([
                np.ones_like(X), np.zeros_like(X), np.zeros_like(X),
                np.ones_like(X),
            ])
            b.interior[...] = scheme.prim_to_cons(w)
        return forest

    def test_healthy_euler_state_passes(self):
        scheme = EulerScheme(2)
        forest = self._euler_forest(scheme)
        assert scan_forest_health(forest, scheme) is None

    def test_negative_conserved_density_caught_despite_floor(self):
        # cons_to_prim floors density, so a primitive-only check would
        # miss this; the scan must inspect the conserved slot too.
        scheme = EulerScheme(2)
        forest = self._euler_forest(scheme)
        block = forest.blocks[next(iter(forest.blocks))]
        block.interior[0, 2, 2] = -0.5
        issue = scan_forest_health(forest, scheme)
        assert isinstance(issue, HealthIssue)
        assert issue.reason == "non-positive"
        assert issue.variable == 0
        assert issue.block == block.id

    def test_nan_caught(self):
        scheme = EulerScheme(2)
        forest = self._euler_forest(scheme)
        block = forest.blocks[next(iter(forest.blocks))]
        block.interior[1, 0, 0] = np.inf
        issue = scan_forest_health(forest, scheme)
        assert issue is not None
        assert issue.reason == "non-finite"
        assert issue.variable == 1
