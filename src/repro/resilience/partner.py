"""In-memory partner-block redundancy: the localized-recovery tier.

Global checkpoint rollback pays the worst case for every failure — all
ranks rewind, all blocks reload from disk.  Extreme-scale
block-structured AMR codes (Schornbaum & Rüde) instead keep a redundant
*in-memory* copy of each rank's blocks on a partner rank, so a single
rank loss only reconstructs the lost blocks from the partner copy, with
no disk I/O and no global rewind.

:class:`PartnerStore` implements that tier for a
:class:`~repro.parallel.emulator.RankMachine` (the emulated machine's
store; the process machine's subclass keeps the copies in shared
memory, see :mod:`repro.resilience.procpartner`):

* **Pairing** — a buddy ring over the SFC cut: each alive rank's blocks
  are mirrored on its successor along the curve (with two ranks the
  scheme degenerates to a mutual pair).  SFC adjacency keeps the
  snapshot traffic between curve-neighboring ranks.
* **Two snapshot roles** — every refresh leaves each rank with a
  *local* snapshot of its own blocks (a rank-private memcpy, free on
  the wire) and mirrors the same data as a *remote* copy in the buddy's
  memory.  The local snapshot rewinds a **survivor** to the last
  consistency point; the remote copy reconstructs a **dead** rank's
  blocks — and is usable only while the buddy holding it is alive.
* **Incremental refresh** — :meth:`refresh` copies only blocks whose
  interior changed since the last snapshot, detected by a cheap CRC32
  content tag, and charges the mirrored payloads to the machine's
  :class:`~repro.parallel.emulator.ExchangeStats` as partner traffic so
  the redundancy overhead is measurable.
* **Restore** — :meth:`restore_lost` reconstructs dead ranks' blocks
  onto survivors (an SFC re-cut of just the lost interval);
  :meth:`rewind_alive` rolls surviving ranks back to the snapshot when
  a mid-window failure requires replay.  Both are pure in-memory data
  movement.

A double fault — a rank dies together with (or after) the partner
holding its remote copy — makes :meth:`can_restore` report ``False``,
and the recovery driver escalates to the global checkpoint rollback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.block_id import BlockID
from repro.core.integrity import content_crc

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.block import Block
    from repro.parallel.emulator import RankMachine

__all__ = ["PartnerStore"]


def _tag(interior: np.ndarray) -> int:
    """Cheap content tag used to skip unchanged blocks on refresh.

    The tag doubles as the mirror's integrity CRC: a stored copy whose
    recomputed :func:`~repro.core.integrity.content_crc` no longer
    matches it has been corrupted in the holder's memory and must never
    be used as a repair source.
    """
    return content_crc(interior)


class PartnerStore:
    """Pairwise in-memory redundancy over a rank machine's ranks.

    The store tracks, per alive rank, a snapshot of every block interior
    it owned at the last :meth:`refresh`, conceptually held in the
    partner rank's memory.  Snapshots are globally consistent — every
    rank is refreshed at the same step — so the union of all copies is a
    distributed in-memory checkpoint at :attr:`snapshot_step`.
    """

    def __init__(self, machine: "RankMachine") -> None:
        self.machine = machine
        self._pairing: Dict[int, int] = {}
        self._copies: Dict[int, Dict[BlockID, np.ndarray]] = {}
        self._tags: Dict[int, Dict[BlockID, int]] = {}
        self.snapshot_step: Optional[int] = None
        self.snapshot_time: float = 0.0
        self._rebuild()

    # ------------------------------------------------------------------
    # pairing
    # ------------------------------------------------------------------

    def _rebuild(self) -> None:
        """New buddy ring over the currently alive ranks; copies reset."""
        alive = self.machine.alive_ranks
        self._pairing = {}
        if len(alive) >= 2:
            for i, rank in enumerate(alive):
                self._pairing[rank] = alive[(i + 1) % len(alive)]
        self._copies = {r: {} for r in alive}
        self._tags = {r: {} for r in alive}
        self.snapshot_step = None
        self.snapshot_time = float(self.machine.time)

    @property
    def pairing(self) -> Dict[int, int]:
        """Owner rank -> partner rank holding its copy (read-only view)."""
        return dict(self._pairing)

    def holder_of(self, rank: int) -> Optional[int]:
        """The rank holding ``rank``'s redundant copy (None if unpaired)."""
        return self._pairing.get(rank)

    # ------------------------------------------------------------------
    # refresh
    # ------------------------------------------------------------------

    def refresh(self) -> int:
        """Snapshot every alive rank's blocks onto its partner.

        Incremental: only blocks whose content tag changed since the
        previous refresh are copied (and charged as partner traffic).
        The pairing is rebuilt first when rank membership changed — a
        recovery or an uneventful death of an empty rank both invalidate
        the old ring.  Returns the number of blocks copied.
        """
        machine = self.machine
        alive = machine.alive_ranks
        if set(self._copies) != set(alive):
            self._rebuild()
        copied = 0
        for owner in alive:
            holder = self._pairing.get(owner)
            copies = self._copies[owner]
            tags = self._tags[owner]
            owned = machine.rank_blocks[owner]
            for bid in [b for b in copies if b not in owned]:
                del copies[bid]
                del tags[bid]
            for bid, block in owned.items():
                tag = _tag(block.interior)
                if tags.get(bid) == tag:
                    continue
                copies[bid] = self._store_copy(owner, holder, bid, block)
                tags[bid] = tag
                copied += 1
                if holder is not None:
                    machine.stats.add_partner(block.interior.size)
        self.snapshot_step = machine.step_index
        self.snapshot_time = float(machine.time)
        return copied

    def _store_copy(
        self, owner: int, holder: Optional[int], bid: BlockID, block: "Block"
    ) -> np.ndarray:
        """Materialize one block's snapshot copy; subclass hook.

        The base store keeps a private in-process copy (the emulator's
        model of partner memory); the real-process backend's
        :class:`~repro.resilience.procpartner.SharedPartnerRing`
        overrides this to write the copy into the *holder's*
        shared-memory mirror region, so the copy genuinely lives — and
        dies — with the holding rank's process.
        """
        return block.interior.copy()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def is_current(self) -> bool:
        """True when the snapshot matches the machine's present step."""
        return self.snapshot_step == self.machine.step_index

    def _has_local(self, rank: int) -> bool:
        """``rank`` holds its own local snapshot (survivor rewind)."""
        return self.snapshot_step is not None and rank in self._copies

    def has_copy(self, rank: int) -> bool:
        """A usable *remote* copy of ``rank``'s blocks exists: a
        snapshot was taken, and the partner holding it is still alive.
        This is the condition for recovering a **dead** rank's data —
        survivors rewind from their own local snapshot instead."""
        holder = self._pairing.get(rank)
        return (
            self._has_local(rank)
            and holder is not None
            and self.machine.alive[holder]
        )

    def can_restore(self, dead_ranks: Iterable[int]) -> bool:
        """Whether localized recovery from these deaths is possible.

        Requires a usable remote copy of every dead rank *covering
        exactly the blocks it owned* (the assignment cannot have
        drifted since the snapshot — it only changes at recoveries,
        which rebuild the store), and — when the snapshot is older than
        the present step, so survivors must rewind too — a local
        snapshot on every survivor.
        """
        machine = self.machine
        dead = list(dead_ranks)
        for rank in dead:
            if not self.has_copy(rank):
                return False
            owned = {
                bid for bid, r in machine.assignment.items() if r == rank
            }
            if set(self._copies[rank]) != owned:
                return False
        if not self.is_current:
            for rank in machine.alive_ranks:
                if not self._has_local(rank):
                    return False
        return True

    def can_rewind(self) -> bool:
        """Whether every alive rank can roll back to the snapshot (each
        from its own local snapshot)."""
        alive = self.machine.alive_ranks
        return (
            self.snapshot_step is not None
            and len(alive) >= 2
            and all(self._has_local(r) for r in alive)
        )

    def invalidate(self, rank: int) -> None:
        """Drop the stored copy of ``rank``'s blocks (models the holder
        losing its redundancy buffer; also a test hook)."""
        self._copies.pop(rank, None)
        self._tags.pop(rank, None)

    # ------------------------------------------------------------------
    # mirror integrity (SDC defense)
    # ------------------------------------------------------------------

    def mirror_keys(self) -> List[Tuple[int, BlockID]]:
        """Every stored mirror as ``(owner, bid)``, in deterministic
        order (rank, then the owner's SFC insertion order) — the index
        space scripted ``mirror`` bitflips select from."""
        return [
            (owner, bid)
            for owner in sorted(self._copies)
            for bid in self._copies[owner]
        ]

    def copy_view(self, owner: int, bid: BlockID) -> Optional[np.ndarray]:
        """The stored mirror of one block, or None (test/injection hook:
        on the process backend this is a live shared-memory view, so
        writing to it corrupts the holder rank's real mirror row)."""
        return self._copies.get(owner, {}).get(bid)

    def verify_copies(self) -> Iterator[Tuple[int, BlockID, int, int]]:
        """Recompute every stored mirror's CRC against its refresh tag.

        Yields ``(owner, bid, expected_crc, actual_crc)`` for each copy;
        the scrubber turns ``expected != actual`` into a ``mirror``
        corruption entry.  Deterministic order (rank, then the owner's
        insertion order, which follows the SFC cut).
        """
        for owner in sorted(self._copies):
            tags = self._tags.get(owner, {})
            for bid, copy in self._copies[owner].items():
                expected = tags.get(bid)
                if expected is None:  # pragma: no cover - defensive
                    continue
                yield owner, bid, expected, _tag(copy)

    def copy_is_valid(self, owner: int, bid: BlockID) -> bool:
        """Whether a mirror of ``owner``'s block exists, its holder is
        alive, and its contents still match the CRC taken at refresh —
        the gate a repair source must pass before it is trusted."""
        if not self.has_copy(owner):
            return False
        copy = self._copies[owner].get(bid)
        if copy is None:
            return False
        return _tag(copy) == self._tags[owner].get(bid)

    def repair_block(self, owner: int, bid: BlockID) -> int:
        """Overwrite a corrupted live interior from its verified mirror.

        The caller must have checked :meth:`copy_is_valid` first.  The
        restored payload is a real wire message from the holder to the
        owner and is charged to partner traffic exactly once.  Returns
        the bytes moved.
        """
        copy = self._copies[owner][bid]
        block = self.machine.rank_blocks[owner][bid]
        block.interior[...] = copy
        holder = self._pairing.get(owner)
        if holder is not None and holder != owner:
            self.machine.stats.add(copy.size)
        return int(copy.nbytes)

    def remirror_block(self, owner: int, bid: BlockID) -> int:
        """Rebuild a corrupted mirror from the (verified-live) block.

        The replacement copy travels owner -> holder like any refresh
        payload and is charged as partner traffic.  Returns the bytes
        moved.
        """
        block = self.machine.rank_blocks[owner][bid]
        holder = self._pairing.get(owner)
        self._copies[owner][bid] = self._store_copy(owner, holder, bid, block)
        self._tags[owner][bid] = _tag(block.interior)
        if holder is not None:
            self.machine.stats.add_partner(block.interior.size)
        return int(block.interior.nbytes)

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------

    def restore_lost(self, dead_ranks: Iterable[int]) -> Tuple[int, int]:
        """Reconstruct dead ranks' blocks from their partner copies.

        The lost blocks — a contiguous interval of the SFC cut — are
        re-cut into contiguous chunks over the survivors and adopted
        there; each restored payload is a real wire message from the
        holder to the new owner and is charged accordingly.  Returns
        ``(blocks_restored, bytes_restored)``.
        """
        machine = self.machine
        alive = machine.alive_ranks
        if not alive:
            raise RuntimeError("cannot restore: every rank has failed")
        source: Dict[BlockID, Tuple[int, np.ndarray]] = {}
        for rank in dead_ranks:
            holder = self._pairing.get(rank)
            for bid, copy in self._copies.get(rank, {}).items():
                source[bid] = (holder, copy)
        order = {bid: i for i, bid in enumerate(machine.topology.sorted_ids())}
        lost = sorted(source, key=order.__getitem__)
        blocks = 0
        nbytes = 0
        for i, bid in enumerate(lost):
            target = alive[i * len(alive) // len(lost)]
            holder, copy = source[bid]
            machine.adopt_block(bid, target, copy)
            blocks += 1
            nbytes += copy.nbytes
            if holder is not None and holder != target:
                machine.stats.add(copy.size)
        return blocks, nbytes

    def rewind_alive(self) -> Tuple[int, int]:
        """Roll every surviving rank's blocks back to the snapshot.

        Each survivor restores from its own *local* snapshot — a
        rank-private memcpy with no wire traffic; ghosts are refilled
        by the next exchange.  Returns ``(blocks_restored,
        bytes_restored)``.
        """
        machine = self.machine
        blocks = 0
        nbytes = 0
        for owner in machine.alive_ranks:
            for bid, copy in self._copies.get(owner, {}).items():
                machine.rank_blocks[owner][bid].interior[...] = copy
                blocks += 1
                nbytes += copy.nbytes
        return blocks, nbytes
