"""In-process distributed-memory emulation of the parallel algorithm.

The cost model (:mod:`repro.parallel.parallel_driver`) simulates *time*;
this module executes the parallel algorithm *for real*: every rank owns
private copies of its blocks in a pool of its own and runs the process
workers' compiled phases (:class:`~repro.parallel.procworker.RankPhases`)
in-process — ``exch1`` on every rank, then ``exch2-gather``, then
``exch2-write``, then the compute phase.  Ranks read each other only
through their compiled entries, one phase per barrier.  The wire side
of each stage is a data-independent table of its transfers in plan
order, gone through before the stage runs: every remote one is charged
and fault-checked as a message — a same-level slab, source-side-
restricted partial sums or a bordered coarse region, the three payload
kinds a production block-AMR code sends — and every rank-local one is
counted.

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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Set, Tuple, cast

import numpy as np

from repro.analysis.protocol import phase_effect
from repro.core.arena import BlockArena
from repro.core.block import Block
from repro.core.block_id import BlockID
from repro.core.forest import BlockForest
from repro.core.ghost import BoundaryHandler, Region, Transfer, exchange_regions, payload_values
from repro.obs.metrics import METRICS
from repro.parallel.partition import Assignment, sfc_partition
from repro.parallel.procworker import RankPhases
from repro.solvers.scheme import FVScheme

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


class RankMachine:
    """What both executing machines share: blocks spread over ranks by
    an assignment over the replicated topology, the accessors the
    resilience layer uses, and the race-detector events replayed from
    the exchange schedule at the phase barriers."""

    topology: BlockForest
    n_ranks: int
    alive: List[bool]
    assignment: Assignment
    rank_blocks: List[Dict[BlockID, Block]]
    #: the exchange schedule (:func:`repro.core.ghost.exchange_regions`)
    _plan: List[Region]
    race_detector: Optional["RaceDetector"]
    scrubber: Optional["Scrubber"]
    fault_plan: Optional["FaultPlan"]
    _staged_flips: List["BitFlip"]
    time: float
    step_index: int

    def _check_assignment(self, assignment: Assignment) -> None:
        """Raise ``ValueError`` unless ``assignment`` names every block of
        the topology, and nothing else, each on an alive rank."""
        blocks = set(self.topology.blocks)
        missing = len(blocks - set(assignment))
        extra = len(set(assignment) - blocks)
        bad = sorted(
            {
                rank for rank in assignment.values()
                if not isinstance(rank, (int, np.integer))
                or not 0 <= rank < self.n_ranks
                or not self.alive[rank]
            },
            key=repr,
        )
        problems = []
        if missing:
            problems.append(f"{missing} block(s) unassigned")
        if extra:
            problems.append(f"{extra} unknown block(s)")
        if bad:
            problems.append(f"dead or out-of-range rank(s) {bad}")
        if problems:
            raise ValueError("bad assignment: " + "; ".join(problems))

    def _restore_assignment(
        self, forest: BlockForest, assignment: Optional[Assignment]
    ) -> Assignment:
        """The assignment a restore from ``forest`` installs: the given
        one, checked, or an SFC cut over the surviving ranks."""
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
        self._check_assignment(assignment)
        return dict(assignment)

    def _restored(self, time: float, step_index: Optional[int]) -> None:
        """Close a restore: every interior was rewritten and the clock
        rewinds to the checkpoint."""
        if self.race_detector is not None:
            # A restore is the rollback after a failure that may have
            # aborted an exchange mid-epoch; close that dead epoch so
            # the checkpoint repopulation is not a write-after-publish.
            self.race_detector.end_epoch()
            for bid, rank in self.assignment.items():
                self.race_detector.on_interior_write(bid, rank)
        self.time = time
        if step_index is not None:
            self.step_index = step_index
        self._staged_flips.clear()
        self.scrub_retag()

    def _flip_and_scrub(self) -> None:
        """Before a step's first exchange: the step's scripted bit-flips
        land (staging flips wait for their payload), then the scrubber
        runs if it is due and raises on any mismatch."""
        step = self.step_index
        if self.fault_plan is not None and self.fault_plan.bitflips:
            from repro.resilience.scrub import apply_scripted_flips

            partner = self.scrubber.partner if self.scrubber is not None else None
            self._staged_flips.extend(
                apply_scripted_flips(
                    self.fault_plan.flips_at(step), self.blocks_by_id(), partner
                )
            )
        if self.scrubber is not None and self.scrubber.due(step):
            from repro.resilience.scrub import CorruptionError

            entries = self.scrubber.scrub_blocks(
                self.blocks_by_id(),
                rank_of=self.assignment,
                partner=self.scrubber.partner,
            )
            if entries:
                raise CorruptionError(step, entries)

    @property
    def alive_ranks(self) -> List[int]:
        """Ranks that have not failed (all of them before any fault)."""
        return [r for r in range(self.n_ranks) if self.alive[r]]

    def owner_rank(self, bid: BlockID) -> int:
        return self.assignment[bid]

    def local_block(self, bid: BlockID) -> Block:
        return self.rank_blocks[self.assignment[bid]][bid]

    def _all_blocks(self) -> Iterator[Block]:
        """Every block on every alive rank (sanitizer traversal)."""
        for rank in self.alive_ranks:
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

    def lost_blocks(self) -> List[BlockID]:
        """Blocks of the replicated topology no surviving rank owns."""
        owned: Set[BlockID] = set()
        for rank in self.alive_ranks:
            owned.update(self.rank_blocks[rank])
        return [bid for bid in self.topology.sorted_ids() if bid not in owned]

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
        own exchange schedule — the one its ranks execute — keyed
        ``(src block, ghost-region offset)`` and split into stage 1
        (same-level copies + restrictions, ``delta >= 0``) and stage 2
        (prolongations, ``delta < 0``).  The machine replays the
        schedule's publish / receive events at the phase barriers
        (:meth:`_replay_exchange`) and every block's consume /
        interior-write around the compute phase.
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

    def _replay_exchange(self, stage2: bool) -> None:
        """The race-detector events of one exchange stage, at the barrier
        that closes it: every transfer of the stage published by its
        source's rank and received by its destination's; a prolongation
        first reads its source's ghost cells, which stage 1 filled."""
        det = self.race_detector
        if det is None:
            return
        for bid, offset, transfers in self._plan:
            dst_rank = self.owner_rank(bid)
            for t in transfers:
                if (t.delta < 0) == stage2:
                    src_rank = self.owner_rank(t.src_id)
                    if stage2:
                        det.on_ghost_read(t.src_id, src_rank)
                    det.on_publish(t.src_id, bid, offset, src_rank)
                    det.on_receive(bid, t.src_id, offset, dst_rank)

    def _replay_compute(self) -> None:
        """The race-detector events of a compute phase: every block's
        ghosts consumed and its interior written."""
        det = self.race_detector
        if det is not None:
            for rank in self.alive_ranks:
                for bid in self.rank_blocks[rank]:
                    det.on_consume(bid, rank)
                    det.on_interior_write(bid, rank)


class EmulatedMachine(RankMachine):
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
        data reaches a rank only through its compiled entries, a
        sanitizer trip pinpoints a transfer missing from the schedule.

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
        if assignment is not None:
            self._check_assignment(assignment)
        self.step_index = 0
        self._msg_index = 0
        self.assignment = dict(
            assignment if assignment is not None else sfc_partition(forest, n_ranks)
        )
        self._populate(forest)
        self.stats = ExchangeStats()
        self.time = 0.0
        self._plan = exchange_regions(forest)
        #: every alive rank's compiled phases, and the wire table: the
        #: transfers of stage 1 and of stage 2 in plan order, each with
        #: its payload size if it crosses ranks (None if it does not);
        #: both rebuilt at the first exchange after a change
        self._ranks: Dict[int, RankPhases] = {}
        self._wire: Tuple[List[Tuple[Transfer, Optional[int]]], ...] = ([], [])
        self.race_detector: Optional["RaceDetector"] = None
        self.sanitizer: Optional["GhostSanitizer"] = None
        self.scrubber: Optional["Scrubber"] = None
        self._staged_flips: List["BitFlip"] = []
        if sanitize:
            from repro.analysis.poison import GhostSanitizer, poison_forest

            self.sanitizer = GhostSanitizer(depth=scheme.required_ghost)
            poison_forest(self._all_blocks())

    def _populate(self, forest: BlockForest) -> None:
        """Fill per-rank storage with private copies of the block data:
        every rank gets its own pool and its blocks are rows of it."""
        owned = list(self.assignment.values())
        ranks = range(self.n_ranks)
        self.rank_blocks = [{} for _ in ranks]
        self._arenas = [self._empty_pool(owned.count(rank)) for rank in ranks]
        for bid, block in forest.blocks.items():
            np.copyto(self._place(bid, self.assignment[bid]).data, block.data)
        self._config_dirty = True

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

    def _compile(self) -> None:
        """Compile every alive rank's phases over its pool and the wire
        table of the current assignment."""
        geom = self.topology
        blocks = self.blocks_by_id()
        self._ranks = {
            rank: RankPhases(
                rank, geom, self._plan, self.scheme, self.bc, blocks,
                self._arenas[rank].pool,
                {bid: cast(int, b.arena_row)
                 for bid, b in self.rank_blocks[rank].items()},
            )
            for rank in self.alive_ranks
        }
        self._wire = ([], [])
        for bid, _offset, transfers in self._plan:
            for t in transfers:
                remote = self.owner_rank(t.src_id) != self.owner_rank(bid)
                self._wire[t.delta < 0].append((t, payload_values(
                    t, geom.nvar, geom.ndim, geom.prolong_order
                ) if remote else None))
        self._config_dirty = False

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def kill_rank(self, rank: int) -> None:
        """Simulate a node loss: the rank's private block data vanishes."""
        if not (0 <= rank < self.n_ranks):
            raise ValueError(f"rank {rank} out of range")
        self.alive[rank] = False
        self.rank_blocks[rank] = {}
        self._arenas[rank] = self._empty_pool()
        self._config_dirty = True

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
        self.assignment = self._restore_assignment(forest, assignment)
        self._populate(forest)
        self._restored(time, step_index)

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
        clone = self._place(bid, rank)
        clone.interior[...] = interior
        self.assignment[bid] = rank
        self._config_dirty = True
        if self.race_detector is not None:
            self.race_detector.on_interior_write(bid, rank)
        if self.scrubber is not None:
            self.scrubber.retag_block(bid, clone)

    def _send(self, t: Transfer, values: int) -> None:
        """Put one remote transfer's payload of ``values`` float64 on the
        wire, injecting planned faults.

        The payload is counted in the wire stats and checked against
        the fault plan: a "drop" fault never arrives (the timeout
        analogue), a "corrupt" fault flips the payload and is caught by
        the receiver's content checksum, and a staged bit-flip addressed
        to this message index corrupts the staging buffer after the
        sender computed its CRC.  Faults marked transient are
        retransmitted under the machine's
        :class:`~repro.resilience.faults.RetryPolicy` — each attempt
        re-charges the wire stats plus the backoff wait — and only
        retry exhaustion (or a fatal fault) raises
        :class:`~repro.resilience.faults.MessageFailure`.
        """
        index = self._msg_index
        self._msg_index += 1
        flip = next((f for f in self._staged_flips if f.block == index), None)
        if flip is not None:
            # Loud, like a scripted "corrupt" message fault, but
            # classified as silent corruption for the recovery ladder.
            from repro.resilience.scrub import CorruptEntry, CorruptionError

            self._staged_flips.remove(flip)
            self.stats.add(values)
            raise CorruptionError(
                self.step_index,
                [CorruptEntry("staging", block=t.dst_id,
                              rank=self.owner_rank(t.dst_id))],
            )
        attempt = 0
        while True:
            self.stats.add(values)
            fault = None
            if self.fault_plan is not None:
                fault = self.fault_plan.take_message_fault(
                    self.step_index, index
                )
            if fault is None:
                return
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

    def _transmit(self, stage2: bool) -> None:
        """The wire side of one exchange stage, before its phases run, in
        plan order: every remote transfer through :meth:`_send`, every
        rank-local one counted."""
        for t, values in self._wire[stage2]:
            if values is not None:
                self._send(t, values)
                continue
            self.stats.n_local += 1
            if METRICS.enabled:
                METRICS.inc("exchange.local")

    # ------------------------------------------------------------------

    @phase_effect("exchange")
    def exchange(self) -> None:
        """One full ghost exchange, the rank processes' phase program
        with method calls for pipes: stage 1 (same-level copies and
        restrictions, then physical BCs) on every rank, then stage 2
        (prolongations) gathered on every rank before any rank writes.
        """
        if not all(self.alive):
            lost = self.lost_blocks()
            if lost:
                raise RuntimeError(
                    f"cannot exchange: {len(lost)} block(s) lost to failed "
                    "ranks; restore from a checkpoint first"
                )
        if self._config_dirty:
            self._compile()
        det = self.race_detector
        if self.sanitizer is not None:
            self.sanitizer.before_exchange(self._all_blocks())
        if det is not None:
            det.begin_epoch()
        ranks = self._ranks.values()
        self._transmit(stage2=False)
        for phases in ranks:
            phases.exch1()
        self._replay_exchange(stage2=False)
        self._transmit(stage2=True)
        for phases in ranks:
            phases.exch2_gather()
        for phases in ranks:
            phases.exch2_write()
        self._replay_exchange(stage2=True)
        if det is not None:
            det.end_epoch()
        if self.sanitizer is not None:
            self.sanitizer.after_exchange(self._all_blocks())

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
        self._flip_and_scrub()
        self._msg_index = 0
        if self.race_detector is not None:
            self.race_detector.begin_step()
        self.exchange()
        if self.scheme.n_stages == 1:
            self._compute(lambda phases: phases.step(dt))
        else:
            self._compute(lambda phases: phases.predictor(dt))
            self.exchange()
            self._compute(lambda phases: phases.corrector(dt))
        if self.sanitizer is not None:
            self.sanitizer.after_stage(self._all_blocks())
        self.time += dt
        self.step_index += 1
        # Staging flips whose message index never came up this step are
        # dropped — the staging buffers they targeted no longer exist.
        self._staged_flips.clear()
        self.scrub_retag()

    def _compute(self, phase: Callable[[RankPhases], object]) -> None:
        """One compute phase on every alive rank."""
        for phases in self._ranks.values():
            phase(phases)
        self._replay_compute()
