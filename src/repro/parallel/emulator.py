"""In-process distributed-memory emulation of the parallel algorithm.

The cost model (:mod:`repro.parallel.parallel_driver`) simulates *time*;
this module executes the parallel algorithm *for real*: every rank owns
private copies of its blocks, and ghost data moves **only** through
explicit messages — same-level slabs, source-side-restricted partial
sums, and bordered coarse regions prolonged receiver-side, exactly the
three payload kinds a production block-AMR code sends.  Nothing reads
another rank's memory.

Purpose:

* **validation** — an emulated run must reproduce the serial driver
  bit-for-bit (tested), proving the message schedule derived from the
  transfer geometry carries *all* the data the algorithm needs — the
  strongest correctness check the cost model's schedules can get;
* **accounting** — real message/byte counts to cross-check
  :func:`repro.parallel.exchange.build_schedule`.

Topology metadata (the forest structure) is replicated on every rank,
matching the paper-era design where each PE holds the full (small)
block tree but only its own block data.

The machine is failure-aware: a :class:`repro.resilience.faults.FaultPlan`
can kill ranks and drop/corrupt wire messages at scripted steps.  The
machine *detects* such failures (lost blocks; missing or
checksum-mismatched payloads) and raises
:class:`~repro.resilience.faults.RankFailure` /
:class:`~repro.resilience.faults.MessageFailure`;
:func:`repro.resilience.recovery.run_with_recovery` then rolls the run
back to the last checkpoint, repartitions over the surviving ranks, and
replays — bit-for-bit identical to a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.analysis.protocol import phase_effect
from repro.core.arena import BlockArena
from repro.core.block import Block
from repro.core.block_id import BlockID, IndexBox
from repro.core.forest import BlockForest
from repro.core.ghost import (
    BoundaryHandler,
    Transfer,
    _bc_scan_faces,
    _neg,
    apply_restrictions,
    exchange_regions,
    gather_bordered,
    prolong_bordered,
    prolongation_border,
    restriction_contribution,
)
from repro.obs.metrics import METRICS
from repro.parallel.partition import Assignment, sfc_partition
from repro.solvers.scheme import FVScheme
from repro.solvers.sweep import PoolSweep, tile_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.poison import GhostSanitizer
    from repro.analysis.races import InboundKey, RaceDetector
    from repro.resilience.faults import BitFlip, FaultPlan, RetryPolicy
    from repro.resilience.scrub import Scrubber

__all__ = ["EmulatedMachine", "ExchangeStats"]


@dataclass
class ExchangeStats:
    """Wire traffic of the emulated exchanges.

    Besides the ghost-exchange payloads, the stats charge the two
    resilience overheads so their cost is measurable against the
    productive traffic: partner-snapshot refreshes (the in-memory
    redundancy tier of :mod:`repro.resilience.partner`) and transient
    message retransmissions with their backoff wait.
    """

    n_messages: int = 0
    n_bytes: int = 0
    n_local: int = 0
    #: partner-redundancy snapshot traffic (localized-recovery tier)
    n_partner_messages: int = 0
    n_partner_bytes: int = 0
    #: transient-fault retransmissions and their summed backoff wait
    n_retries: int = 0
    retry_wait: float = 0.0

    def add(self, payload_values: int) -> None:
        self.n_messages += 1
        self.n_bytes += payload_values * 8
        if METRICS.enabled:
            METRICS.inc("exchange.messages")
            METRICS.inc("exchange.bytes", payload_values * 8)

    def add_partner(self, payload_values: int) -> None:
        self.n_partner_messages += 1
        self.n_partner_bytes += payload_values * 8
        if METRICS.enabled:
            METRICS.inc("exchange.partner_messages")
            METRICS.inc("exchange.partner_bytes", payload_values * 8)

    def add_retry(self, wait: float) -> None:
        self.n_retries += 1
        self.retry_wait += wait
        if METRICS.enabled:
            METRICS.inc("exchange.retries")


class EmulatedMachine:
    """Run a block-AMR time step across emulated distributed ranks.

    Parameters
    ----------
    forest:
        Template forest carrying the topology and the initial data; its
        block data is *copied* into per-rank storage (the template is
        not modified by emulated stepping).
    n_ranks:
        Number of emulated ranks.
    scheme:
        Finite-volume scheme for stepping.
    bc:
        Physical boundary handler (applied rank-locally).
    fault_plan:
        Optional scripted failures (see
        :class:`repro.resilience.faults.FaultPlan`).
    retry_policy:
        Optional :class:`repro.resilience.faults.RetryPolicy`; when
        given, message faults marked transient are retransmitted with
        capped exponential backoff instead of raising, and only retry
        exhaustion escalates to a :class:`MessageFailure`.
    sanitize:
        When True, run under the ghost-poison sanitizer: every rank's
        ghost layers are poisoned at construction and before each
        exchange, and verified filled afterwards (see
        :class:`repro.analysis.poison.GhostSanitizer`).  Because ghost
        data moves only through explicit messages here, a sanitizer trip
        pinpoints a missing message in the derived schedule.

    A :class:`repro.analysis.races.RaceDetector` can additionally be
    attached with :meth:`attach_race_detector`; the machine then emits
    publish / receive / ghost-read / consume / interior-write events so
    ordering violations in the bulk-synchronous schedule (write-after-
    publish, read-before-receive) surface immediately.
    """

    def __init__(
        self,
        forest: BlockForest,
        n_ranks: int,
        scheme: FVScheme,
        *,
        bc: Optional[BoundaryHandler] = None,
        assignment: Optional[Assignment] = None,
        fault_plan: Optional["FaultPlan"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
        sanitize: bool = False,
    ) -> None:
        self.topology = forest  # replicated metadata (structure only)
        self.scheme = scheme
        self.bc = bc
        self.n_ranks = n_ranks
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.alive: List[bool] = [True] * n_ranks
        self.step_index = 0
        self._msg_index = 0
        self.assignment = (
            assignment if assignment is not None else sfc_partition(forest, n_ranks)
        )
        self._populate(forest, self.assignment)
        self.stats = ExchangeStats()
        self.time = 0.0
        self._plan = exchange_regions(forest)
        self.race_detector: Optional["RaceDetector"] = None
        self.sanitizer: Optional["GhostSanitizer"] = None
        self.scrubber: Optional["Scrubber"] = None
        self._staged_flips: List["BitFlip"] = []
        if sanitize:
            from repro.analysis.poison import GhostSanitizer, poison_forest

            self.sanitizer = GhostSanitizer(depth=scheme.required_ghost)
            poison_forest(self._all_blocks())

    def _populate(self, forest: BlockForest, assignment: Assignment) -> None:
        """Fill per-rank storage with private copies of the block data:
        every rank gets its own pool, its blocks are rows of it, and one
        :class:`PoolSweep` per rank advances them."""
        owned = list(assignment.values())
        ranks = range(self.n_ranks)
        self.rank_blocks: List[Dict[BlockID, Block]] = [{} for _ in ranks]
        self._arenas = [self._empty_pool(owned.count(rank)) for rank in ranks]
        for bid, block in forest.blocks.items():
            np.copyto(self._place(bid, assignment[bid]).data, block.data)
        self._sweeps = [self._sweep(rank) for rank in ranks]

    def _empty_pool(self, capacity: int = 1) -> BlockArena:
        geom = self.topology
        return BlockArena(geom.m, geom.n_ghost, geom.nvar, initial_capacity=capacity)

    def _place(self, bid: BlockID, rank: int) -> Block:
        """A zeroed private clone of block ``bid`` in a row of ``rank``'s
        pool.  Connectivity comes from the machine's own replicated
        topology, so restores from a checkpoint use identical pointers."""
        arena = self._arenas[rank]
        tmpl = self.topology.blocks[bid]
        row = arena.acquire()
        clone = Block(
            id=tmpl.id, box=tmpl.box, m=tmpl.m, n_ghost=tmpl.n_ghost,
            nvar=tmpl.nvar, data=arena.view(row),
        )
        arena.bind(row, clone)
        clone.face_neighbors = tmpl.face_neighbors
        self.rank_blocks[rank][bid] = clone
        return clone

    def _sweep(self, rank: int) -> PoolSweep:
        """The stage update over the rows ``rank`` holds right now."""
        arena = self._arenas[rank]
        return PoolSweep(
            self.scheme, arena.pool,
            [(b.arena_row, b) for b in self.rank_blocks[rank].values()],
            self.topology.n_ghost,
            save=arena.save_pool(), rate=arena.rate_pool(),
            tile=tile_rows(arena.pool[:1].nbytes),
        )

    # ------------------------------------------------------------------

    def owner_rank(self, bid: BlockID) -> int:
        return self.assignment[bid]

    def local_block(self, bid: BlockID) -> Block:
        return self.rank_blocks[self.assignment[bid]][bid]

    def _all_blocks(self) -> Iterator[Block]:
        """Every block on every alive rank (sanitizer traversal)."""
        for rank in range(self.n_ranks):
            if self.alive[rank]:
                yield from self.rank_blocks[rank].values()

    def blocks_by_id(self) -> Dict[BlockID, Block]:
        """Every live block keyed by id, in deterministic SFC order —
        the traversal the scrubber and bitflip injection index into."""
        out: Dict[BlockID, Block] = {}
        for bid in self.topology.sorted_ids():
            rank = self.assignment.get(bid)
            if rank is None or not self.alive[rank]:
                continue
            block = self.rank_blocks[rank].get(bid)
            if block is not None:
                out[bid] = block
        return out

    def attach_scrubber(self, scrubber: "Scrubber") -> "Scrubber":
        """Attach a memory scrubber and tag the current state as the
        trusted baseline."""
        self.scrubber = scrubber
        scrubber.retag_blocks(self.blocks_by_id())
        return scrubber

    def scrub_retag(self) -> None:
        """Re-baseline every live block's integrity tag (called at the
        write boundaries: post-step, post-restore, post-repair)."""
        if self.scrubber is not None:
            self.scrubber.retag_blocks(self.blocks_by_id())

    def attach_race_detector(
        self, detector: Optional["RaceDetector"] = None
    ) -> "RaceDetector":
        """Attach (and return) an exchange race detector.

        The expected-inbound message sets are derived from the machine's
        own transfer plan — the same source of truth the exchange
        executes — keyed ``(src block, ghost-region offset)`` and split
        into stage 1 (same-level copies + restrictions, ``delta >= 0``)
        and stage 2 (prolongations, ``delta < 0``).
        """
        from repro.analysis.races import RaceDetector

        if detector is None:
            detector = RaceDetector()
        expected: Dict[object, Tuple[Set["InboundKey"], Set["InboundKey"]]] = {}
        for bid, offset, transfers in self._plan:
            stage1, stage2 = expected.setdefault(bid, (set(), set()))
            for t in transfers:
                (stage1 if t.delta >= 0 else stage2).add((t.src_id, offset))
        detector.set_expected_inbound(expected)
        self.race_detector = detector
        return detector

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    @property
    def alive_ranks(self) -> List[int]:
        """Ranks that have not failed (all of them before any fault)."""
        return [r for r in range(self.n_ranks) if self.alive[r]]

    def kill_rank(self, rank: int) -> None:
        """Simulate a node loss: the rank's private block data vanishes."""
        if not (0 <= rank < self.n_ranks):
            raise ValueError(f"rank {rank} out of range")
        self.alive[rank] = False
        self.rank_blocks[rank] = {}
        self._arenas[rank] = self._empty_pool()
        self._sweeps[rank] = self._sweep(rank)

    def lost_blocks(self) -> List[BlockID]:
        """Blocks of the replicated topology no surviving rank owns."""
        owned = set()
        for rank in self.alive_ranks:
            owned.update(self.rank_blocks[rank])
        return [bid for bid in self.topology.sorted_ids() if bid not in owned]

    def restore(
        self,
        forest: BlockForest,
        *,
        time: float,
        step_index: Optional[int] = None,
        assignment: Optional[Assignment] = None,
    ) -> None:
        """Rebuild the machine's global state from a checkpoint forest.

        The block-to-rank assignment is recomputed over the *surviving*
        ranks (SFC repartition) unless one is given, every block's data
        is repopulated from ``forest``, and the simulation clock rewinds
        to the checkpoint — the receiving half of the global
        rollback-and-replay recovery protocol.
        """
        if set(forest.blocks) != set(self.topology.blocks):
            raise ValueError(
                "checkpoint topology does not match the machine's "
                "replicated topology"
            )
        alive = self.alive_ranks
        if not alive:
            raise RuntimeError("cannot restore: every rank has failed")
        if assignment is None:
            chunks = sfc_partition(self.topology, len(alive))
            assignment = {bid: alive[r] for bid, r in chunks.items()}
        else:
            bad = {assignment[bid] for bid in assignment} - set(alive)
            if bad:
                raise ValueError(f"assignment targets dead rank(s) {sorted(bad)}")
        self.assignment = assignment
        self._populate(forest, assignment)
        if self.race_detector is not None:
            # A restore is the rollback after a failure that may have
            # aborted an exchange mid-epoch; close that dead epoch so
            # the checkpoint repopulation is not a write-after-publish.
            self.race_detector.end_epoch()
            for bid, rank in assignment.items():
                self.race_detector.on_interior_write(bid, rank)
        self.time = time
        if step_index is not None:
            self.step_index = step_index
        self._staged_flips.clear()
        self.scrub_retag()

    @phase_effect("heal")
    def adopt_block(self, bid: BlockID, rank: int, interior: np.ndarray) -> None:
        """Recreate one block on ``rank`` from a redundant interior copy.

        The receiving half of *localized* recovery: only the lost block
        is rebuilt (ghosts are garbage until the next exchange refills
        them from live neighbors) and the assignment is updated in
        place — no other rank's data moves.
        """
        if not self.alive[rank]:
            raise ValueError(f"cannot adopt block onto dead rank {rank}")
        old = self.assignment.get(bid)
        gone = self.rank_blocks[old].pop(bid, None) if old is not None else None
        if gone is not None:  # the previous owner is alive: free its row
            self._arenas[old].release(gone)
            self._sweeps[old] = self._sweep(old)
        clone = self._place(bid, rank)
        clone.interior[...] = interior
        self._sweeps[rank] = self._sweep(rank)
        self.assignment[bid] = rank
        if self.race_detector is not None:
            self.race_detector.on_interior_write(bid, rank)
        if self.scrubber is not None:
            self.scrubber.retag_block(bid, clone)

    def _send(self, payload: np.ndarray, src_rank: int, dst_rank: int,
              t: Transfer, *, extra_values: int = 0) -> np.ndarray:
        """Move one payload between ranks, injecting planned faults.

        Remote payloads are counted in the wire stats and checked
        against the fault plan: a "drop" fault never arrives (the
        timeout analogue), a "corrupt" fault flips the payload and is
        caught by the receiver's content checksum.  Faults marked
        transient are retransmitted under the machine's
        :class:`~repro.resilience.faults.RetryPolicy` — each attempt
        re-charges the wire stats plus the backoff wait — and only
        retry exhaustion (or a fatal fault) raises
        :class:`~repro.resilience.faults.MessageFailure`.
        """
        if src_rank == dst_rank:
            self.stats.n_local += 1
            if METRICS.enabled:
                METRICS.inc("exchange.local")
            return payload
        index = self._msg_index
        self._msg_index += 1
        if self._staged_flips:
            for f in list(self._staged_flips):
                if f.block == index:
                    # The staging buffer is corrupted after the sender
                    # computed its content CRC, so the receiver's
                    # independent check catches the mismatch — loud,
                    # like a scripted "corrupt" message fault, but
                    # classified as silent-corruption for the ladder.
                    self._staged_flips.remove(f)
                    from repro.resilience.faults import apply_bitflip
                    from repro.resilience.scrub import (
                        CorruptEntry,
                        CorruptionError,
                    )

                    self.stats.add(payload.size + extra_values)
                    apply_bitflip(payload, f.byte, f.bit)
                    raise CorruptionError(
                        self.step_index,
                        [
                            CorruptEntry(
                                "staging", block=t.dst_id, rank=dst_rank
                            )
                        ],
                    )
        attempt = 0
        while True:
            self.stats.add(payload.size + extra_values)
            fault = None
            if self.fault_plan is not None:
                fault = self.fault_plan.take_message_fault(
                    self.step_index, index
                )
            if fault is None:
                return payload
            # The receiver notices the failure: a dropped payload times
            # out, a corrupted one fails the CRC32 content check (any
            # tampering breaks the checksum computed independently on
            # both sides of the wire — a flipped-in NaN always does).
            if (
                fault.transient
                and self.retry_policy is not None
                and attempt < self.retry_policy.max_retries
            ):
                wait = self.retry_policy.backoff(
                    attempt, step=self.step_index, index=index
                )
                self.stats.add_retry(wait)
                attempt += 1
                continue
            from repro.resilience.faults import MessageFailure

            raise MessageFailure(
                self.step_index, index, fault.mode, t.dst_id, t.src_id,
                retries=attempt,
            )

    # ------------------------------------------------------------------

    @phase_effect("exchange")
    def exchange(self) -> None:
        """One full ghost exchange through explicit messages.

        Stage 1: same-level copies and restrictions (source side
        restricts before sending).  Stage 2: prolongations (source sends
        the bordered coarse region; the receiver prolongs).  Physical
        BCs run rank-locally after each stage, mirroring
        :func:`repro.core.ghost.fill_ghosts`.
        """
        ndim = self.topology.ndim
        order = self.topology.prolong_order
        if not all(self.alive):
            lost = self.lost_blocks()
            if lost:
                raise RuntimeError(
                    f"cannot exchange: {len(lost)} block(s) lost to failed "
                    "ranks; restore from a checkpoint first"
                )
        det = self.race_detector
        if self.sanitizer is not None:
            self.sanitizer.before_exchange(self._all_blocks())
        if det is not None:
            det.begin_epoch()

        # ---- stage 1: same + restriction --------------------------------
        for bid, offset, transfers in self._plan:
            dst_rank = self.owner_rank(bid)
            dst = self.rank_blocks[dst_rank][bid]
            restrict_items = []
            for t in transfers:
                src_rank = self.owner_rank(t.src_id)
                src = self.rank_blocks[src_rank][t.src_id]
                if t.delta == 0:
                    if det is not None:
                        det.on_publish(t.src_id, bid, offset, src_rank)
                    payload = src.view(t.src_box).copy()  # the message
                    payload = self._send(payload, src_rank, dst_rank, t)
                    dst.view(t.dst_box)[...] = payload
                    if det is not None:
                        det.on_receive(bid, t.src_id, offset, dst_rank)
                elif t.delta > 0:
                    if det is not None:
                        det.on_publish(t.src_id, bid, offset, src_rank)
                    coarse_box, csum, wsum = restriction_contribution(
                        src, t, ndim
                    )
                    csum = self._send(
                        csum, src_rank, dst_rank, t, extra_values=wsum.size
                    )
                    restrict_items.append((t.dst_box, coarse_box, csum, wsum))
                    if det is not None:
                        det.on_receive(bid, t.src_id, offset, dst_rank)
            if restrict_items:
                apply_restrictions(dst, restrict_items)
        self._apply_bc()

        # ---- stage 2: prolongation ---------------------------------------
        for bid, offset, transfers in self._plan:
            dst_rank = self.owner_rank(bid)
            dst = self.rank_blocks[dst_rank][bid]
            for t in transfers:
                if t.delta >= 0:
                    continue
                src_rank = self.owner_rank(t.src_id)
                src = self.rank_blocks[src_rank][t.src_id]
                up = -t.delta
                border = prolongation_border(up, order)
                if det is not None:
                    # The bordered gather may read the source's own
                    # ghost cells — legal only once its stage-1 inbound
                    # messages have all arrived in this epoch.
                    det.on_ghost_read(t.src_id, src_rank)
                    det.on_publish(t.src_id, bid, offset, src_rank)
                payload = gather_bordered(src, t.src_box, border)
                payload = self._send(payload, src_rank, dst_rank, t)
                fine = prolong_bordered(payload, t.src_box, up, order, ndim)
                cover = t.src_box.refined(up).shift(_neg(t.shift))
                sub = t.dst_box.slices(cover.lo)
                dst.view(t.dst_box)[...] = fine[(slice(None),) + sub]
                if det is not None:
                    det.on_receive(bid, t.src_id, offset, dst_rank)
        self._apply_bc()
        if det is not None:
            det.end_epoch()
        if self.sanitizer is not None:
            self.sanitizer.after_exchange(self._all_blocks())

    def _apply_bc(self) -> None:
        if self.bc is not None:
            blocks = list(self._all_blocks())
            for block, face, region in _bc_scan_faces(blocks, self.topology.ndim):
                self.bc(block, face, region, self.topology)

    # ------------------------------------------------------------------

    def advance(self, dt: float) -> None:
        """One (two-stage for order 2) time step across all ranks.

        With a fault plan attached, scripted rank deaths fire before the
        step executes; the resulting lost blocks are detected and
        reported by raising :class:`~repro.resilience.faults.RankFailure`
        (message faults surface mid-exchange as
        :class:`~repro.resilience.faults.MessageFailure`).  The machine
        is then in a partial state; recover with :meth:`restore`.
        """
        if self.fault_plan is not None:
            killed = [
                r for r in self.fault_plan.kills_at(self.step_index)
                if 0 <= r < self.n_ranks and self.alive[r]
            ]
            if killed:
                for rank in killed:
                    self.kill_rank(rank)
                lost = self.lost_blocks()
                # Killing a rank that owned no blocks (possible when
                # n_ranks > n_blocks) loses no data, so the step simply
                # proceeds over the survivors instead of raising.
                if lost:
                    from repro.resilience.faults import RankFailure

                    raise RankFailure(
                        self.step_index, tuple(killed), tuple(lost)
                    )
        if self.fault_plan is not None and self.fault_plan.bitflips:
            from repro.resilience.scrub import apply_scripted_flips

            partner = self.scrubber.partner if self.scrubber is not None else None
            self._staged_flips.extend(
                apply_scripted_flips(
                    self.fault_plan.flips_at(self.step_index),
                    self.blocks_by_id(),
                    partner,
                )
            )
        if self.scrubber is not None and self.scrubber.due(self.step_index):
            from repro.resilience.scrub import CorruptionError

            entries = self.scrubber.scrub_blocks(
                self.blocks_by_id(),
                rank_of=self.assignment,
                partner=self.scrubber.partner,
            )
            if entries:
                raise CorruptionError(self.step_index, entries)
        self._msg_index = 0
        if self.race_detector is not None:
            self.race_detector.begin_step()
        self.exchange()
        if self.scheme.n_stages == 1:
            self._stage(lambda sweep: sweep.forward(dt))
        else:
            def predictor(sweep: PoolSweep) -> None:
                sweep.snapshot()
                sweep.forward(0.5 * dt)

            self._stage(predictor)
            self.exchange()
            self._stage(lambda sweep: sweep.correct(dt))
        if self.sanitizer is not None:
            self.sanitizer.after_stage(self._all_blocks())
        self.time += dt
        self.step_index += 1
        # Staging flips whose message index never came up this step are
        # dropped — the staging buffers they targeted no longer exist.
        self._staged_flips.clear()
        self.scrub_retag()

    def _stage(self, update: Callable[[PoolSweep], object]) -> None:
        """Run one stage ``update`` of every alive rank's sweep; the race
        detector sees each block consumed before and written after."""
        det = self.race_detector
        for rank in self.alive_ranks:
            if det is not None:
                for bid in self.rank_blocks[rank]:
                    det.on_consume(bid, rank)
            update(self._sweeps[rank])
            if det is not None:
                for bid in self.rank_blocks[rank]:
                    det.on_interior_write(bid, rank)

    def gather(self) -> Dict[BlockID, np.ndarray]:
        """Collect every surviving block's interior (the 'MPI_Gather' at
        the end).  After a clean run or a completed recovery this covers
        the whole topology; blocks lost to an unrecovered rank failure
        are absent (see :meth:`lost_blocks`)."""
        out: Dict[BlockID, np.ndarray] = {}
        for rank in self.alive_ranks:
            for bid, block in self.rank_blocks[rank].items():
                out[bid] = block.interior.copy()
        return out

    def rank_cells(self) -> List[int]:
        """Computational cells owned per *alive* rank (load distribution).

        Dead ranks are excluded so post-recovery imbalance metrics
        reflect the surviving machine rather than averaging in zeros."""
        return [
            sum(b.n_cells for b in self.rank_blocks[rank].values())
            for rank in self.alive_ranks
        ]
