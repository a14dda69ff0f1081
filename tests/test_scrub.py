"""Tests for the silent-data-corruption defense (repro.resilience.scrub).

Four layers under test:

* the canonical checksum helpers;
* seeded bitflip injection (:class:`BitFlip`, :func:`apply_bitflip`);
* the phase-boundary :class:`Scrubber` on the serial driver and the
  emulated machine — with the acceptance criterion that scrub-enabled
  fault-free runs are **bit-for-bit identical** to baseline;
* the self-healing ladder: every corruption region (interior, ghost,
  mirror, staging) is detected, repaired from the verified mirror tier
  (or rewound/rolled back), and the recovered run still matches the
  fault-free serial reference bit-for-bit.

The real-process backend runs the same matrix in
``tests/test_procmachine.py`` (it needs that module's segment/zombie
sweep fixture).
"""

import numpy as np
import pytest

from repro.amr import Simulation
from repro.core import BlockForest, BlockID
from repro.core.integrity import content_crc, crc_text
from repro.obs import RunRecorder, read_events, validate_events
from repro.parallel.emulator import EmulatedMachine
from repro.resilience import (
    BitFlip,
    Checkpointer,
    CorruptionError,
    FaultPlan,
    PartnerStore,
    Scrubber,
    apply_bitflip,
    run_with_recovery,
)
from repro.solvers import AdvectionScheme
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


DT = 1e-3


# ---------------------------------------------------------------------------
# checksum helpers
# ---------------------------------------------------------------------------


class TestIntegrityHelpers:
    def test_content_crc_is_contiguity_normalized(self):
        rng = np.random.default_rng(3)
        a = rng.random((4, 12, 12))
        strided = a[:, 2:-2, 2:-2]
        assert not strided.flags.c_contiguous
        assert content_crc(strided) == content_crc(strided.copy())

    def test_content_crc_sees_every_element(self):
        a = np.zeros((3, 5))
        base = content_crc(a)
        for idx in np.ndindex(a.shape):
            b = a.copy()
            b[idx] = 1.0
            assert content_crc(b) != base

    def test_crc_text_is_deterministic(self):
        assert crc_text("repro:1:2") == crc_text("repro:1:2")
        assert crc_text("repro:1:2") != crc_text("repro:1:3")


# ---------------------------------------------------------------------------
# bitflip injection
# ---------------------------------------------------------------------------


class TestApplyBitflip:
    def test_flip_is_an_involution(self):
        rng = np.random.default_rng(0)
        a = rng.random((2, 6, 6))
        before = a.copy()
        apply_bitflip(a, 13, 5)
        assert not np.array_equal(a, before)
        apply_bitflip(a, 13, 5)
        np.testing.assert_array_equal(a, before)

    def test_flip_changes_exactly_one_bit(self):
        a = np.zeros((3, 4))
        apply_bitflip(a, 17, 2)
        raw = np.frombuffer(a.tobytes(), dtype=np.uint8)
        changed = np.flatnonzero(raw)
        assert len(changed) == 1
        assert changed[0] == 17
        assert int(raw[17]) == 1 << 2

    def test_flip_through_noncontiguous_view(self):
        base = np.zeros((2, 8, 8))
        view = base[:, 2:-2, 2:-2]
        apply_bitflip(view, 5, 7)
        # exactly one element changed, and it lies inside the view
        changed = np.argwhere(base != 0.0)
        assert len(changed) == 1
        _, i, j = changed[0]
        assert 2 <= i < 6 and 2 <= j < 6

    def test_offsets_wrap_the_region(self):
        a = np.zeros(4)
        b = np.zeros(4)
        apply_bitflip(a, 3, 1)
        apply_bitflip(b, 3 + a.size * a.itemsize, 1 + 8)
        np.testing.assert_array_equal(a, b)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            BitFlip(step=1, target="register")

    def test_flips_are_one_shot(self):
        plan = FaultPlan(bitflips=[BitFlip(step=2), BitFlip(step=2, byte=9)])
        assert plan.pending == 2
        assert len(plan.flips_at(1)) == 0
        assert len(plan.flips_at(2)) == 2
        assert plan.flips_at(2) == []  # consumed: no re-fire on replay
        assert plan.pending == 0


# ---------------------------------------------------------------------------
# scrubber core
# ---------------------------------------------------------------------------


class TestScrubberCore:
    def _tagged(self):
        forest = make_amr_forest()
        init_pulse(forest)
        blocks = {bid: forest.blocks[bid] for bid in forest.sorted_ids()}
        scrubber = Scrubber(every=1)
        scrubber.retag_blocks(blocks)
        return forest, blocks, scrubber

    def test_interval_validation_and_due(self):
        with pytest.raises(ValueError):
            Scrubber(every=0)
        s = Scrubber(every=3)
        assert s.due(0) and not s.due(1) and not s.due(2) and s.due(3)

    def test_clean_blocks_verify_clean(self):
        _, blocks, scrubber = self._tagged()
        assert scrubber.scrub_blocks(blocks) == []
        assert scrubber.blocks_verified == len(blocks)
        assert scrubber.mismatches == 0

    def test_interior_flip_classified_interior(self):
        _, blocks, scrubber = self._tagged()
        bid, blk = next(iter(blocks.items()))
        apply_bitflip(blk.interior, 11, 3)
        entries = scrubber.scrub_blocks(blocks)
        assert [e.region for e in entries] == ["interior"]
        assert entries[0].block == bid
        assert entries[0].expected != entries[0].actual

    def test_ghost_flip_classified_ghost(self):
        _, blocks, scrubber = self._tagged()
        bid, blk = next(iter(blocks.items()))
        # first element of the padded row is a corner ghost cell
        apply_bitflip(blk.data, 0, 6)
        entries = scrubber.scrub_blocks(blocks)
        assert [e.region for e in entries] == ["ghost"]
        assert entries[0].block == bid

    def test_mismatch_reported_exactly_once(self):
        """Re-baseline on detect: the recovery tier decides what happens
        next; the same stale mismatch must not re-fire forever."""
        _, blocks, scrubber = self._tagged()
        _, blk = next(iter(blocks.items()))
        apply_bitflip(blk.interior, 11, 3)
        assert len(scrubber.scrub_blocks(blocks)) == 1
        assert scrubber.scrub_blocks(blocks) == []

    def test_untagged_blocks_are_skipped(self):
        _, blocks, scrubber = self._tagged()
        items = list(blocks.items())
        scrubber.drop(items[0][0])
        entries = scrubber.scrub_blocks(blocks)
        assert entries == []
        assert scrubber.blocks_verified == len(blocks) - 1

    def test_corruption_error_carries_diagnosis(self):
        _, blocks, scrubber = self._tagged()
        bid, blk = next(iter(blocks.items()))
        apply_bitflip(blk.interior, 0, 0)
        entries = scrubber.scrub_blocks(blocks)
        exc = CorruptionError(4, entries)
        assert exc.step == 4
        assert exc.regions == ("interior",)
        assert str(bid) in str(exc)
        assert "step 4" in str(exc)


# ---------------------------------------------------------------------------
# serial driver: transparency + loud detection
# ---------------------------------------------------------------------------


class TestSerialDriverScrub:
    @pytest.mark.parametrize("engine", ["blocked", "batched"])
    def test_scrub_enabled_run_is_bit_identical(self, engine):
        from repro.amr.problems import advecting_pulse

        problem = advecting_pulse(2)
        baseline = problem.build(adaptive=True, engine=engine)
        scrubbed = problem.build(adaptive=True, engine=engine)
        scrubber = scrubbed.attach_scrubber(Scrubber(every=1))
        for _ in range(6):
            baseline.step(DT)
            scrubbed.step(DT)
        assert set(baseline.forest.blocks) == set(scrubbed.forest.blocks)
        for bid, blk in baseline.forest.blocks.items():
            np.testing.assert_array_equal(
                blk.interior, scrubbed.forest.blocks[bid].interior
            )
        assert scrubber.scrubs >= 5
        assert scrubber.mismatches == 0

    def test_out_of_band_flip_raises_next_scrub(self):
        forest = make_amr_forest()
        init_pulse(forest)
        sim = Simulation(forest, AdvectionScheme((1.0, 0.5), order=2))
        sim.attach_scrubber(Scrubber(every=1))
        sim.step(DT)
        bid = forest.sorted_ids()[0]
        apply_bitflip(forest.blocks[bid].interior, 21, 4)
        with pytest.raises(CorruptionError) as err:
            sim.step(DT)
        assert err.value.regions == ("interior",)
        assert err.value.entries[0].block == bid

    def test_scrub_interval_is_honored(self):
        forest = make_amr_forest()
        init_pulse(forest)
        sim = Simulation(forest, AdvectionScheme((1.0, 0.5), order=2))
        scrubber = sim.attach_scrubber(Scrubber(every=3))
        for _ in range(6):
            sim.step(DT)
        # due at step_count 0 (skipped? executed at step start), 3, 6
        assert scrubber.scrubs == 2

    def test_block_rebuilt_under_its_id_is_not_flagged(self):
        """A block refined and coarsened back outside the driver's adapt
        is a new block under the old id, with zeroed ghosts: it stays
        unverified until the next retag instead of reading as
        corruption."""
        forest = make_amr_forest()
        init_pulse(forest)
        sim = Simulation(forest, AdvectionScheme((1.0, 0.5), order=2))
        scrubber = sim.attach_scrubber(Scrubber(every=1))
        sim.step(DT)
        before = set(forest.blocks)
        forest.adapt([BlockID(1, (0, 0))])
        forest.adapt([], set(forest.blocks) - before)
        assert set(forest.blocks) == before
        sim.step(DT)
        sim.step(DT)
        assert scrubber.scrubs == 3
        assert scrubber.mismatches == 0

    def test_ledger_survives_driver_compaction(self):
        """Compaction moves a block's row, not the block: its tag still
        holds, so a scrub right after an adapt+compact sees zero
        mismatches."""
        from repro.amr.problems import advecting_pulse

        problem = advecting_pulse(2)
        sim = problem.build(adaptive=True, engine="batched")
        scrubber = sim.attach_scrubber(Scrubber(every=1))
        for _ in range(6):
            sim.step(DT)
        assert scrubber.scrubs >= 5
        assert scrubber.mismatches == 0


# ---------------------------------------------------------------------------
# emulated machine: transparency, detection matrix, self-healing
# ---------------------------------------------------------------------------


def _machine(plan=None, n_ranks=4):
    scheme = AdvectionScheme((1.0, 0.5), order=2)
    forest = make_amr_forest()
    init_pulse(forest)
    return EmulatedMachine(forest, n_ranks, scheme, fault_plan=plan), scheme


def _gather_vs_reference(emu, scheme, n_steps):
    reference = serial_reference(scheme, n_steps, DT)
    gathered = emu.gather()
    worst = 0.0
    for bid, blk in reference.blocks.items():
        worst = max(worst, float(np.abs(gathered[bid] - blk.interior).max()))
    return worst


class TestEmulatorScrub:
    N_STEPS = 5

    def test_fault_free_scrub_run_is_bit_identical(self):
        emu, scheme = _machine()
        emu.attach_scrubber(Scrubber(every=1))
        for _ in range(self.N_STEPS):
            emu.advance(DT)
        assert _gather_vs_reference(emu, scheme, self.N_STEPS) == 0.0
        assert emu.scrubber.mismatches == 0

    @pytest.mark.parametrize(
        "target", ["interior", "ghost", "mirror", "staging"]
    )
    def test_flip_detected_and_healed_bit_for_bit(self, target, tmp_path):
        plan = FaultPlan(
            bitflips=[BitFlip(step=2, target=target, block=1, byte=7, bit=3)]
        )
        emu, scheme = _machine(plan)
        emu.attach_scrubber(Scrubber(every=1))
        report = run_with_recovery(
            emu, n_steps=self.N_STEPS, dt=DT,
            checkpointer=Checkpointer(tmp_path),
            checkpoint_every=1, strategy="local",
        )
        assert _gather_vs_reference(emu, scheme, self.N_STEPS) == 0.0
        (event,) = report.events
        assert event.kind == "corruption"
        assert event.step == 2
        assert event.strategy == "local"
        assert not event.escalated
        assert report.steps_completed == self.N_STEPS
        assert plan.pending == 0

    def test_ghost_flip_repairs_at_zero_restore_cost(self, tmp_path):
        plan = FaultPlan(bitflips=[BitFlip(step=2, target="ghost", block=0,
                                           byte=5, bit=1)])
        emu, scheme = _machine(plan)
        emu.attach_scrubber(Scrubber(every=1))
        report = run_with_recovery(
            emu, n_steps=self.N_STEPS, dt=DT,
            checkpointer=Checkpointer(tmp_path), strategy="local",
        )
        assert _gather_vs_reference(emu, scheme, self.N_STEPS) == 0.0
        (event,) = report.events
        # the halo is rewritten by the next exchange: nothing to copy
        assert event.blocks_restored == 0
        assert event.bytes_restored == 0

    def test_double_corruption_escalates_to_rollback(self, tmp_path):
        # Interior of SFC block 0 and the mirror copy of the same block:
        # the only valid repair source for the interior is itself
        # corrupt, so the ladder must fall through to the checkpoint.
        plan = FaultPlan(bitflips=[
            BitFlip(step=2, target="interior", block=0, byte=3, bit=2),
            BitFlip(step=2, target="mirror", block=0, byte=9, bit=6),
        ])
        emu, scheme = _machine(plan)
        emu.attach_scrubber(Scrubber(every=1))
        report = run_with_recovery(
            emu, n_steps=self.N_STEPS, dt=DT,
            checkpointer=Checkpointer(tmp_path),
            checkpoint_every=1, strategy="local",
        )
        assert _gather_vs_reference(emu, scheme, self.N_STEPS) == 0.0
        assert [e.kind for e in report.events] == ["corruption", "corruption"]
        first = report.events[0]
        assert first.strategy == "global"
        assert first.escalated
        assert report.n_escalations == 1
        # the rollback restores live state from disk; the still-corrupt
        # mirror copy is then caught by the next scrub and re-mirrored
        second = report.events[1]
        assert second.strategy == "local"
        assert not second.escalated

    def test_scrub_interval_trades_coverage_for_cost(self, tmp_path):
        """Tags are re-baselined at the end of every advance (content
        legitimately changes each step), so ``every=N`` only guards the
        pre-exchange window of every Nth step.  A flip landing on a
        scrubbed step is caught before the exchange spreads it and the
        run heals bit-for-bit; a flip landing between scrubs is silently
        absorbed by the next retag — the coverage/cost tradeoff
        docs/resilience.md documents for every > 1."""
        covered = FaultPlan(bitflips=[BitFlip(step=4, target="interior",
                                              block=2, byte=1, bit=1)])
        emu, scheme = _machine(covered)
        emu.attach_scrubber(Scrubber(every=2))
        report = run_with_recovery(
            emu, n_steps=6, dt=DT,
            checkpointer=Checkpointer(tmp_path / "a"),
            checkpoint_every=1, strategy="local",
        )
        assert _gather_vs_reference(emu, scheme, 6) == 0.0
        (event,) = report.events
        assert event.kind == "corruption"
        assert event.step == 4

        missed = FaultPlan(bitflips=[BitFlip(step=3, target="interior",
                                             block=2, byte=1, bit=1)])
        emu2, _ = _machine(missed)
        emu2.attach_scrubber(Scrubber(every=2))
        report2 = run_with_recovery(
            emu2, n_steps=6, dt=DT,
            checkpointer=Checkpointer(tmp_path / "b"),
            checkpoint_every=1, strategy="local",
        )
        assert report2.events == []
        assert _gather_vs_reference(emu2, scheme, 6) > 0.0

    def test_unrecoverable_corruption_raises_diagnosis(self, tmp_path):
        """No checkpoint on disk and max_recoveries=0: the run must die
        with the per-block CorruptionError, not a bare CRC mismatch."""
        plan = FaultPlan(bitflips=[BitFlip(step=1, target="interior",
                                           block=0, byte=2, bit=2)])
        emu, _ = _machine(plan)
        emu.attach_scrubber(Scrubber(every=1))
        with pytest.raises(CorruptionError) as err:
            run_with_recovery(
                emu, n_steps=3, dt=DT,
                checkpointer=Checkpointer(tmp_path),
                strategy="local", max_recoveries=0,
            )
        assert err.value.regions == ("interior",)
        assert err.value.entries[0].block is not None

    def test_corruption_event_recorded_and_schema_valid(self, tmp_path):
        plan = FaultPlan(bitflips=[BitFlip(step=2, target="interior",
                                           block=1, byte=4, bit=4)])
        emu, _ = _machine(plan)
        emu.attach_scrubber(Scrubber(every=1))
        out = tmp_path / "run.jsonl"
        with RunRecorder(out) as recorder:
            run_with_recovery(
                emu, n_steps=4, dt=DT,
                checkpointer=Checkpointer(tmp_path / "ckpt"),
                strategy="local", recorder=recorder,
            )
        events = read_events(out)
        assert validate_events(events) == []
        (corr,) = [e for e in events if e.get("kind") == "corruption"]
        assert corr["step"] == 2
        assert corr["regions"] == ["interior"]
        assert corr["action"] == "mirror-repair"


# ---------------------------------------------------------------------------
# mirror repair accounting (satellite: charged exactly once, refresh
# stays consistent)
# ---------------------------------------------------------------------------


class TestMirrorRepairAccounting:
    def _setup(self):
        emu, scheme = _machine()
        partner = PartnerStore(emu)
        partner.refresh()
        scrubber = emu.attach_scrubber(Scrubber(every=1))
        scrubber.partner = partner
        return emu, partner, scrubber

    def test_repair_charges_exchange_stats_exactly_once(self):
        emu, partner, scrubber = self._setup()
        blocks = emu.blocks_by_id()
        bid, blk = next(iter(blocks.items()))
        owner = emu.assignment[bid]
        interior_values = blk.interior.size
        apply_bitflip(blk.interior, 6, 5)
        entries = scrubber.scrub_blocks(
            blocks, rank_of=emu.assignment, partner=partner
        )
        assert [e.region for e in entries] == ["interior"]
        before_bytes = emu.stats.n_bytes
        before_partner = emu.stats.n_partner_bytes
        assert partner.copy_is_valid(owner, bid)
        nbytes = partner.repair_block(owner, bid)
        assert nbytes == blk.interior.nbytes
        # exactly one interior's worth of wire traffic, charged once
        assert emu.stats.n_bytes - before_bytes == interior_values * 8
        # a repair is exchange traffic, not new redundancy traffic
        assert emu.stats.n_partner_bytes == before_partner

    def test_next_refresh_after_repair_copies_nothing(self):
        emu, partner, scrubber = self._setup()
        blocks = emu.blocks_by_id()
        bid, blk = next(iter(blocks.items()))
        owner = emu.assignment[bid]
        apply_bitflip(blk.interior, 6, 5)
        scrubber.scrub_blocks(blocks, rank_of=emu.assignment, partner=partner)
        partner.repair_block(owner, bid)
        emu.scrub_retag()
        # live state is bit-identical to the snapshot again: the
        # incremental refresh must see nothing to copy
        assert partner.refresh() == 0
        assert scrubber.scrub_blocks(
            blocks, rank_of=emu.assignment, partner=partner
        ) == []

    def test_corrupt_mirror_is_never_a_repair_source(self):
        emu, partner, scrubber = self._setup()
        (owner, bid) = partner.mirror_keys()[0]
        view = partner.copy_view(owner, bid)
        apply_bitflip(view, 10, 1)
        assert not partner.copy_is_valid(owner, bid)
        entries = scrubber.scrub_blocks(
            emu.blocks_by_id(), rank_of=emu.assignment, partner=partner
        )
        assert [e.region for e in entries] == ["mirror"]
        assert entries[0].block == bid
        assert entries[0].rank == owner
        # re-mirroring from the (verified clean) live block heals it
        partner.remirror_block(owner, bid)
        assert partner.copy_is_valid(owner, bid)


# ---------------------------------------------------------------------------
# sdc metrics
# ---------------------------------------------------------------------------


class TestSdcMetrics:
    def test_scrub_and_repair_metrics_flow(self, tmp_path):
        from repro.obs import METRICS

        plan = FaultPlan(bitflips=[BitFlip(step=2, target="interior",
                                           block=1, byte=7, bit=3)])
        emu, _ = _machine(plan)
        emu.attach_scrubber(Scrubber(every=1))
        METRICS.reset()
        with METRICS.enabled_scope():
            run_with_recovery(
                emu, n_steps=4, dt=DT,
                checkpointer=Checkpointer(tmp_path), strategy="local",
            )
            snap = METRICS.snapshot()["counters"]
        assert snap["sdc.scrubs"] >= 4
        assert snap["sdc.blocks_verified"] > 0
        assert snap["sdc.mismatches"] == 1
        assert snap["sdc.corruptions"] == 1
        assert snap["sdc.repairs"] == 1
        assert snap["sdc.bytes_repaired"] > 0
        assert "sdc.escalations" not in snap or snap["sdc.escalations"] == 0
