"""Partner redundancy in shared memory, against real rank processes.

:class:`SharedPartnerRing` is the process backend's localized-recovery
tier.  It keeps the :class:`~repro.resilience.partner.PartnerStore`
buddy-ring protocol (SFC successor pairing, incremental CRC-tagged
refresh, snapshot consistency bookkeeping) but changes *where the
copies live* and *what recovery does with them*:

* every snapshot copy is written into the **holder's shared-memory
  mirror region** (the ``mirror_capacity`` rows of its
  :class:`~repro.parallel.shared_arena.SharedBlockArena` segment).  The
  copy genuinely lives in the buddy rank's memory: when the supervisor
  tears down a dead rank's segment, the mirrors that rank *held* are
  lost with it — exactly the double-fault physics the escalation ladder
  is built around — while the mirror of the dead rank's own blocks
  survives in its buddy's still-mapped segment;
* :meth:`restore_lost` first **respawns** each dead rank
  (:meth:`~repro.parallel.procmachine.ProcessMachine.try_respawn` — a
  fresh OS process attached to a fresh segment) and restores its blocks
  from the buddy's mirror straight back to the original owner: a pure
  shared-memory copy, zero disk reads.  Ranks that cannot be revived
  within the respawn budget degrade to the base class's SFC
  redistribution over the survivors, so a flaky node loses capacity
  but never correctness;
* survivors have **no rank-private snapshot** — their copies live in
  their buddy's segment like everyone else's — so :meth:`_has_local`
  (and therefore rewind/restore eligibility) additionally requires the
  *holder* to be alive, and :attr:`is_current` accounts for the
  machine's mid-step dirty flag: a failure after interiors started
  mutating makes the present-step snapshot unusable and forces the
  survivor rewind path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.analysis.protocol import phase_effect
from repro.core.block_id import BlockID
from repro.obs.metrics import METRICS
from repro.resilience.partner import PartnerStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.block import Block
    from repro.parallel.procmachine import ProcessMachine

__all__ = ["SharedPartnerRing"]


class SharedPartnerRing(PartnerStore):
    """Buddy-ring partner store whose copies live in shared segments."""

    def __init__(self, machine: "ProcessMachine") -> None:
        #: mirror-row allocation per holder rank: next free row index
        self._mirror_next: Dict[int, int] = {}
        #: (owner, bid) -> (holder, row) of the mirror slot in use
        self._mirror_slots: Dict[Tuple[int, BlockID], Tuple[int, int]] = {}
        self._deaths_seen = len(machine.deaths)
        super().__init__(machine)

    def refresh(self) -> int:
        """Refresh, rebuilding first after any death/respawn cycle.

        A respawn restores the *membership set*, so the base class's
        membership check cannot see that a rank's segment — and every
        mirror row inside it — was replaced; stale views into the dead
        segment must not survive as snapshot copies.
        """
        machine: "ProcessMachine" = self.machine  # type: ignore[assignment]
        if self._deaths_seen != len(machine.deaths):
            self._rebuild()
        return super().refresh()

    # ------------------------------------------------------------------
    # storage: copies go into the holder's shared mirror region
    # ------------------------------------------------------------------

    def _rebuild(self) -> None:
        machine: "ProcessMachine" = self.machine  # type: ignore[assignment]
        super()._rebuild()
        self._mirror_next = {r: 0 for r in machine.alive_ranks}
        self._mirror_slots = {}
        self._deaths_seen = len(machine.deaths)

    @phase_effect("mirror-refresh")
    def _store_copy(
        self, owner: int, holder: Optional[int], bid: BlockID, block: "Block"
    ) -> np.ndarray:
        machine: "ProcessMachine" = self.machine  # type: ignore[assignment]
        if holder is None:
            # Unpaired (single alive rank): nowhere redundant to put it.
            return block.interior.copy()
        slot = self._mirror_slots.get((owner, bid))
        if slot is None or slot[0] != holder:
            row = self._mirror_next.get(holder, 0)
            seg = machine._segments[holder]
            if seg is None or row >= seg.mirror_capacity:
                # Mirror region exhausted or segment gone mid-window:
                # fall back to a supervisor-private copy (still usable
                # for restore, just not "in the holder's memory").
                return block.interior.copy()
            self._mirror_next[holder] = row + 1
            slot = (holder, row)
            self._mirror_slots[(owner, bid)] = slot
        seg = machine._segments[slot[0]]
        if seg is None:
            return block.interior.copy()
        view = seg.mirror_view(slot[1])
        view[...] = block.interior
        if METRICS.enabled:
            METRICS.inc("proc.partner_mirror_writes")
        return view

    # ------------------------------------------------------------------
    # eligibility: a copy is only usable while its holder is alive
    # ------------------------------------------------------------------

    def _holder_alive(self, rank: int) -> bool:
        holder = self._pairing.get(rank)
        return holder is not None and self.machine.alive[holder]

    def _has_local(self, rank: int) -> bool:
        """A survivor's snapshot also lives in its buddy's segment, so
        rewinding ``rank`` requires that buddy to still be alive."""
        return super()._has_local(rank) and self._holder_alive(rank)

    @property
    def is_current(self) -> bool:
        """Current additionally means *no interior has mutated since the
        snapshot*: the process backend flags the step dirty before the
        first compute phase, so a mid-step failure forces the rewind
        path instead of trusting half-stepped survivors."""
        machine: "ProcessMachine" = self.machine  # type: ignore[assignment]
        return super().is_current and not machine._interiors_dirty

    # ------------------------------------------------------------------
    # restore: respawn first, redistribute only as degradation
    # ------------------------------------------------------------------

    def restore_lost(self, dead_ranks: Iterable[int]) -> Tuple[int, int]:
        """Respawn dead ranks and restore their blocks from the mirrors.

        For every dead rank whose respawn succeeds, its blocks go back
        to the *original owner* — the fresh process — via a flat copy
        out of the buddy's mirror region (zero disk reads, no
        redistribution churn).  Ranks that stay dead after the respawn
        budget fall back to :meth:`PartnerStore.restore_lost`, which
        re-cuts their blocks over the survivors.
        """
        machine: "ProcessMachine" = self.machine  # type: ignore[assignment]
        dead = list(dead_ranks)
        revived = [r for r in dead if machine.try_respawn(r)]
        leftovers = [r for r in dead if r not in revived]
        blocks = 0
        nbytes = 0
        order = {
            bid: i for i, bid in enumerate(machine.topology.sorted_ids())
        }
        for rank in revived:
            copies = self._copies.get(rank, {})
            for bid in sorted(copies, key=order.__getitem__):
                copy = copies[bid]
                machine.adopt_block(bid, rank, copy)
                blocks += 1
                nbytes += copy.nbytes
                machine.stats.add(copy.size)
        if leftovers:
            if METRICS.enabled:
                METRICS.inc("proc.degraded_restores")
            machine._emit_supervisor(
                "degrade", ranks=list(leftovers), step=machine.step_index,
                reason="respawn budget exhausted; redistributing blocks",
            )
            more_blocks, more_bytes = super().restore_lost(leftovers)
            if METRICS.enabled:
                METRICS.inc("proc.redistributed_blocks", more_blocks)
            blocks += more_blocks
            nbytes += more_bytes
        return blocks, nbytes
