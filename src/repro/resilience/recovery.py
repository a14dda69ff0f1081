"""Fault recovery for the distributed rank machines.

:func:`run_with_recovery` drives a
:class:`~repro.parallel.emulator.RankMachine` — the emulated or the
real-process one — through ``n_steps`` fixed-``dt`` steps under a
(possibly faulty) execution, with periodic checkpoints, and supports
two recovery tiers selected by ``strategy``:

* ``"global"`` — the paper-era protocol: on any detected fault, every
  rank rolls back to the last durable on-disk checkpoint, the
  block-to-rank assignment is rebuilt over the survivors (SFC
  repartition — the dead rank simply drops out of the curve cut), and
  the run replays forward.
* ``"local"`` — localized recovery backed by the machine's in-memory
  partner tier (:meth:`~repro.parallel.emulator.RankMachine.
  make_partner_store`): a rank failure reconstructs **only the dead
  rank's blocks** from the partner copy (re-cut over the survivors, or
  back onto a respawned process), re-fills their ghosts from live
  neighbors at the next exchange, and replays only the bounded window
  since the last partner refresh — zero disk reads.  A mid-step message
  failure rewinds the survivors from the same in-memory snapshots.  A
  **double fault** (a rank dies and its partner copy is lost or stale)
  degrades gracefully: the driver escalates to the global checkpoint
  rollback automatically and records the escalation.

Because the rank arithmetic is deterministic and independent of the
assignment, recovered runs are **bit-for-bit identical** to a
fault-free run under either tier — the property the equivalence tests
pin down.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.recorder import RunRecorder
    from repro.parallel.emulator import RankMachine

from repro.amr.driver import StepRecord
from repro.amr.io import CheckpointError
from repro.analysis.protocol import phase_effect
from repro.core.forest import BlockForest
from repro.obs.metrics import METRICS
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.faults import FaultDetected, MessageFailure, RankFailure
from repro.resilience.partner import PartnerStore
from repro.resilience.scrub import CorruptionError
from repro.util.timing import wall_clock

__all__ = [
    "RecoveryEvent",
    "ResilienceReport",
    "run_with_recovery",
    "snapshot_forest",
    "RECOVERY_STRATEGIES",
]

#: Valid ``strategy`` arguments of :func:`run_with_recovery`.
RECOVERY_STRATEGIES = ("local", "global")


@dataclass(frozen=True)
class RecoveryEvent:
    """One detected fault and the recovery that handled it."""

    step: int  #: step being executed when the fault was detected
    kind: str  #: "rank-failure" | "message-drop" | "message-corrupt"
    detail: str  #: human-readable description from the detection
    restored_from_step: int  #: step whose state was restored
    replayed_steps: int  #: steps re-executed because of the rollback
    #: "local" (partner copies, in-memory) or "global" (disk checkpoint)
    strategy: str = "global"
    #: blocks whose data was rewritten during the recovery
    blocks_restored: int = 0
    #: bytes of block data moved to restore them
    bytes_restored: int = 0
    #: True when a localized attempt had to degrade to global rollback
    escalated: bool = False
    #: wall-clock seconds the recovery itself took
    duration: float = 0.0


@dataclass
class ResilienceReport:
    """What a fault-tolerant run did."""

    #: net simulated steps (replays don't count twice)
    steps_completed: int = 0
    #: extra step executions caused by rollbacks
    steps_replayed: int = 0
    checkpoints_written: int = 0
    events: List[RecoveryEvent] = field(default_factory=list)
    #: per-completed-step records (recovery cost lands on the step that
    #: finally succeeded); feed to :func:`repro.amr.io.history_to_csv`
    history: List[StepRecord] = field(default_factory=list)

    @property
    def n_recoveries(self) -> int:
        return len(self.events)

    @property
    def n_local_recoveries(self) -> int:
        return sum(1 for e in self.events if e.strategy == "local")

    @property
    def n_escalations(self) -> int:
        return sum(1 for e in self.events if e.escalated)

    @property
    def blocks_restored(self) -> int:
        return sum(e.blocks_restored for e in self.events)

    @property
    def bytes_restored(self) -> int:
        return sum(e.bytes_restored for e in self.events)

    @property
    def recovery_time(self) -> float:
        """Total wall-clock seconds spent inside recoveries."""
        return sum(e.duration for e in self.events)


def snapshot_forest(machine: "RankMachine") -> BlockForest:
    """A standalone forest holding the machine's current global state.

    The replicated topology is deep-copied and every alive rank's block
    interiors are written into it — the distributed-memory analogue of
    gathering the state to the I/O node before a checkpoint write.
    """
    clone = copy.deepcopy(machine.topology)
    for rank in machine.alive_ranks:
        for bid, block in machine.rank_blocks[rank].items():
            clone.blocks[bid].interior[...] = block.interior
    return clone


def _event_kind(exc: FaultDetected) -> str:
    if isinstance(exc, RankFailure):
        return "rank-failure"
    if isinstance(exc, MessageFailure):
        return f"message-{exc.mode}"
    if isinstance(exc, CorruptionError):
        return "corruption"
    return "fault"


@phase_effect("heal")
def _attempt_corruption_repair(
    machine: "RankMachine",
    partner: PartnerStore,
    exc: CorruptionError,
    step: int,
) -> Optional[Tuple[int, int, int]]:
    """The self-healing ladder for scrub-detected corruption.

    Per region, cheapest valid repair first:

    * ``mirror`` — the live block is still good (the same scrub pass
      verified it): rebuild the mirror from it, charged as partner
      traffic.
    * ``ghost`` — the next exchange rewrites the halo from live
      neighbors; nothing to move.
    * ``interior`` — repair in place from the SFC buddy's mirror, but
      only after the mirror's own CRC verifies (a corrupt mirror must
      never be a repair source) and only when the snapshot matches the
      present step; a stale-but-valid snapshot rewinds every survivor
      and replays the window instead.
    * ``staging`` — the exchange aborted mid-flight with ghosts
      partially written: rewind every survivor to the snapshot, like a
      message failure.

    Returns ``(restored_from_step, blocks, bytes)`` or None when no
    verified repair source exists (double corruption), in which case
    the caller escalates to the global checkpoint rollback.
    """
    interior_bids = {e.block for e in exc.entries if e.region == "interior"}
    mirror_keys = {
        (e.rank, e.block) for e in exc.entries if e.region == "mirror"
    }
    if any(bid in interior_bids for _, bid in mirror_keys):
        # A block and its own mirror are both corrupt: neither side can
        # vouch for the other — classic double corruption, escalate.
        return None
    blocks = 0
    nbytes = 0
    # Mirrors first: a later survivor rewind reads these copies, so they
    # must be rebuilt (from scrub-verified live blocks) before any use.
    for owner, bid in sorted(
        mirror_keys, key=lambda k: (k[0] if k[0] is not None else -1, str(k[1]))
    ):
        if owner is None or bid not in machine.rank_blocks[owner]:
            return None
        nbytes += partner.remirror_block(owner, bid)
        blocks += 1
    needs_rewind = any(e.region == "staging" for e in exc.entries)
    repairable: list = []
    for bid in interior_bids:
        owner = machine.assignment.get(bid)
        if owner is None or not partner.copy_is_valid(owner, bid):
            return None  # no verified source for this block
        repairable.append((owner, bid))
    if repairable and not partner.is_current:
        # Valid but stale mirrors: in-place repair would splice an old
        # interior into the present step, so rewind everyone instead.
        needs_rewind = True
    if needs_rewind:
        if not partner.can_rewind():
            return None
        b, n = partner.rewind_alive()
        blocks += b
        nbytes += n
        restored_from = partner.snapshot_step
        machine.step_index = partner.snapshot_step
        machine.time = partner.snapshot_time
    else:
        for owner, bid in repairable:
            nbytes += partner.repair_block(owner, bid)
            blocks += 1
        restored_from = step
    machine.scrub_retag()
    return restored_from, blocks, nbytes


def _attempt_local_recovery(
    machine: "RankMachine",
    partner: PartnerStore,
    exc: FaultDetected,
    step: int,
) -> Optional[Tuple[int, int, int]]:
    """Localized recovery from the partner store.

    Returns ``(restored_from_step, blocks_restored, bytes_restored)``
    on success, or None when the partner copies cannot cover the fault
    (double fault / stale snapshot) and the caller must escalate.
    All preconditions are checked before any state is mutated.
    """
    if isinstance(exc, CorruptionError):
        return _attempt_corruption_repair(machine, partner, exc, step)
    if isinstance(exc, RankFailure):
        dead = list(exc.ranks)
        if not partner.can_restore(dead):
            return None
        blocks = 0
        nbytes = 0
        restored_from = machine.step_index
        if not partner.is_current:
            # Mid-window death: survivors rewind to the snapshot from
            # their partner buffers, then the window replays.
            b, n = partner.rewind_alive()
            blocks += b
            nbytes += n
            restored_from = partner.snapshot_step
            machine.step_index = partner.snapshot_step
            machine.time = partner.snapshot_time
        b, n = partner.restore_lost(dead)
        blocks += b
        nbytes += n
        return restored_from, blocks, nbytes
    if isinstance(exc, MessageFailure):
        # The failed step mutated ghosts (and, for two-stage schemes,
        # possibly interiors), so every survivor rewinds to the
        # snapshot — still pure in-memory movement, zero disk reads.
        if not partner.can_rewind():
            return None
        blocks, nbytes = partner.rewind_alive()
        machine.step_index = partner.snapshot_step
        machine.time = partner.snapshot_time
        return partner.snapshot_step, blocks, nbytes
    return None


def run_with_recovery(
    machine: "RankMachine",
    *,
    n_steps: int,
    dt: float,
    checkpointer: Checkpointer,
    checkpoint_every: int = 1,
    max_recoveries: int = 8,
    strategy: str = "global",
    partner_refresh_every: int = 1,
    recorder: Optional["RunRecorder"] = None,
) -> ResilienceReport:
    """Advance ``machine`` ``n_steps`` times, surviving injected faults.

    A checkpoint of the initial state is always written (there must be
    something to fall back to even under localized recovery — it is the
    double-fault escape hatch), then every ``checkpoint_every`` steps.
    With ``strategy="local"`` the machine's partner store
    (:meth:`~repro.parallel.emulator.RankMachine.make_partner_store`) is
    refreshed every ``partner_refresh_every`` completed steps and faults
    recover from it when possible, escalating to the global checkpoint
    rollback when not; ``"global"`` never builds the partner tier.

    With a ``recorder`` (:class:`repro.obs.recorder.RunRecorder`) every
    completed step and every recovery is emitted to the JSONL event
    stream; recovery counters additionally report into the global
    metrics registry when it is enabled.  Both are pure observers: the
    recovered trajectory stays bit-for-bit identical.

    Raises the underlying :class:`FaultDetected` if recovery is needed
    more than ``max_recoveries`` times (a fault plan that keeps firing
    forever would otherwise hang the run), or :class:`CheckpointError`
    if no usable checkpoint exists at global rollback time.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    if partner_refresh_every < 1:
        raise ValueError("partner_refresh_every must be >= 1")
    if strategy not in RECOVERY_STRATEGIES:
        raise ValueError(
            f"strategy must be one of {RECOVERY_STRATEGIES}, got {strategy!r}"
        )
    report = ResilienceReport()
    partner: Optional[PartnerStore] = None
    if strategy == "local":
        partner = machine.make_partner_store()
        partner.refresh()
        if machine.scrubber is not None:
            # The scrub pass also verifies the partner mirrors, so a
            # corrupt mirror is caught before it could serve a repair.
            machine.scrubber.partner = partner
    checkpointer.save(snapshot_forest(machine), step=machine.step_index, time=machine.time)
    report.checkpoints_written += 1
    start = machine.step_index
    end = start + n_steps
    recoveries = 0
    pending_recovery_time = 0.0
    while machine.step_index < end:
        step = machine.step_index
        wall_start = wall_clock()
        try:
            machine.advance(dt)
        except FaultDetected as exc:
            recoveries += 1
            if recoveries > max_recoveries:
                raise
            rec_start = wall_clock()
            local = None
            if partner is not None:
                local = _attempt_local_recovery(machine, partner, exc, step)
            if local is not None:
                restored_from, blocks, nbytes = local
                # New owners / rewound state: re-seed the redundancy
                # tier at the restored consistency point.
                partner.refresh()
                event = RecoveryEvent(
                    step=step,
                    kind=_event_kind(exc),
                    detail=str(exc),
                    restored_from_step=restored_from,
                    replayed_steps=step - restored_from,
                    strategy="local",
                    blocks_restored=blocks,
                    bytes_restored=nbytes,
                    duration=wall_clock() - rec_start,
                )
            else:
                info = checkpointer.latest()
                if info is None:
                    if isinstance(exc, CorruptionError):
                        # No verified mirror and no checkpoint: nothing
                        # can vouch for the data.  Abort with the
                        # per-block diagnosis rather than a bare
                        # checkpoint complaint.
                        raise exc
                    raise CheckpointError(
                        "fault detected but no usable checkpoint exists to "
                        "roll back to"
                    ) from exc
                forest, info = checkpointer.load_latest()
                machine.restore(forest, time=info.time, step_index=info.step)
                machine.scrub_retag()
                if partner is not None:
                    partner.refresh()
                event = RecoveryEvent(
                    step=step,
                    kind=_event_kind(exc),
                    detail=str(exc),
                    restored_from_step=info.step,
                    replayed_steps=step - info.step,
                    strategy="global",
                    blocks_restored=machine.topology.n_blocks,
                    bytes_restored=sum(
                        b.interior.nbytes
                        for b in machine.topology.blocks.values()
                    ),
                    escalated=partner is not None,
                    duration=wall_clock() - rec_start,
                )
            report.events.append(event)
            report.steps_replayed += event.replayed_steps
            pending_recovery_time += event.duration
            if isinstance(exc, CorruptionError):
                if event.strategy == "global":
                    action = "rollback"
                elif event.replayed_steps or "staging" in exc.regions:
                    # Staging corruption always rewinds the survivors,
                    # even when the snapshot is current (zero replay).
                    action = "rewind"
                else:
                    action = "mirror-repair"
                if METRICS.enabled:
                    METRICS.inc("sdc.corruptions", len(exc.entries))
                    METRICS.inc("sdc.repairs" if action == "mirror-repair"
                                else "sdc.escalations")
                    METRICS.inc("sdc.bytes_repaired", event.bytes_restored)
                if recorder is not None:
                    recorder.emit(
                        "corruption",
                        step=exc.step,
                        regions=list(exc.regions),
                        action=action,
                        blocks=[str(e.block) for e in exc.entries],
                        blocks_restored=event.blocks_restored,
                        bytes_restored=event.bytes_restored,
                        detail=str(exc),
                    )
            if METRICS.enabled:
                METRICS.inc("recovery.events")
                METRICS.inc("recovery.blocks_restored", event.blocks_restored)
                METRICS.inc("recovery.bytes_restored", event.bytes_restored)
                if event.escalated:
                    METRICS.inc("recovery.escalations")
                METRICS.observe("recovery.duration", event.duration)
            if recorder is not None:
                recorder.emit(
                    "recovery",
                    step=event.step,
                    fault=event.kind,
                    strategy=event.strategy,
                    replayed_steps=event.replayed_steps,
                    restored_from_step=event.restored_from_step,
                    blocks_restored=event.blocks_restored,
                    bytes_restored=event.bytes_restored,
                    escalated=event.escalated,
                    duration=event.duration,
                    detail=event.detail,
                )
            continue
        done = machine.step_index - start
        record = StepRecord(
            step=machine.step_index,
            time=machine.time,
            dt=dt,
            n_blocks=machine.topology.n_blocks,
            n_cells=machine.topology.n_cells,
            wall_time=wall_clock() - wall_start,
            recovery_time=pending_recovery_time or None,
        )
        report.history.append(record)
        if recorder is not None:
            recorder.emit(
                "step",
                step=record.step,
                t_sim=record.time,
                dt=record.dt,
                n_blocks=record.n_blocks,
                n_cells=record.n_cells,
                wall_time=record.wall_time,
                recovery_time=record.recovery_time,
            )
        pending_recovery_time = 0.0
        if partner is not None and done % partner_refresh_every == 0:
            partner.refresh()
        if done % checkpoint_every == 0 and machine.step_index < end:
            checkpointer.save(
                snapshot_forest(machine),
                step=machine.step_index,
                time=machine.time,
            )
            report.checkpoints_written += 1
    report.steps_completed = machine.step_index - start
    return report
