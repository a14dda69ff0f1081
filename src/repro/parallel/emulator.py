"""In-process distributed-memory execution of the parallel algorithm.

The cost model (:mod:`repro.parallel.parallel_driver`) simulates *time*;
this module executes the parallel algorithm *for real*.
:class:`RankMachine` is what both executing machines share, written
once: the assignment, block placement, the step program, the exchange
around its stage hooks, ``restore`` and ``adopt_block``.  Its transport
here, :class:`EmulatedMachine`, gives every rank a private pool and runs
the process workers' compiled phases
(:class:`~repro.parallel.procworker.RankPhases`) in-process — ``exch1``
on every rank, then ``exch2-gather``, then ``exch2-write``, then the
compute phase — with method calls where
:class:`~repro.parallel.procmachine.ProcessMachine` uses pipes.  The
wire side of each stage is a data-independent table of its transfers in
plan order, gone through before the stage runs: every remote one is
charged and fault-checked as a message — a same-level slab,
source-side-restricted partial sums or a bordered coarse region, the
three payload kinds a production block-AMR code sends — and every
rank-local one is counted.

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

The machines are failure-aware: a :class:`repro.resilience.faults.FaultPlan`
can kill ranks and drop/corrupt wire messages at scripted steps.  A
machine *detects* such failures (lost blocks; missing or
checksum-mismatched payloads) and raises
:class:`~repro.resilience.faults.RankFailure` /
:class:`~repro.resilience.faults.MessageFailure`;
:func:`repro.resilience.recovery.run_with_recovery` then rolls the run
back to the last checkpoint (or rebuilds only the lost blocks from
partner copies), repartitions over the surviving ranks, and replays —
bit-for-bit identical to a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple, cast

import numpy as np

from repro.analysis.poison import quiet_poison
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
    from repro.resilience.faults import BitFlip, FaultPlan, RetryPolicy
    from repro.resilience.partner import PartnerStore
    from repro.resilience.scrub import Scrubber

__all__ = ["EmulatedMachine", "ExchangeStats", "RankMachine"]


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
    """Run a block-AMR time step across distributed ranks.

    Parameters
    ----------
    forest:
        Template forest carrying the topology and the initial data; its
        block data is *copied* into per-rank storage (the template is
        not modified by stepping).
    n_ranks:
        Number of ranks.
    scheme:
        Finite-volume scheme for stepping.
    bc:
        Physical boundary handler (applied rank-locally).
    assignment:
        Optional block-to-rank map (default: the SFC cut), checked to
        name every block exactly once, each on a rank in range.
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
        An ordering fault (stages swapped, a compute phase skipped, an
        interior written mid-exchange) leaves no ghost unfilled: only a
        :meth:`gather` that differs from the serial driver's state bit
        for bit shows it.

    A subclass supplies the transport: ``_open`` creates the ranks'
    storage and populates it, ``_arena(rank)`` is a rank's pool,
    ``kill_rank`` loses a rank, ``_configure`` compiles the alive ranks'
    phases for the current placement, and ``_stage1`` (``exch1``),
    ``_stage2`` (``exch2-gather`` then ``exch2-write``) and
    ``_compute(op, dt)`` run a phase on every alive rank.  It may add
    bookkeeping around a step (``_begin_step``, ``_end_step``), classify
    deaths (``_death_kinds``) and revive ranks (``try_respawn``).
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
        self.n_ranks = int(n_ranks)
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.alive: List[bool] = [True] * self.n_ranks
        if assignment is not None:
            self._check_assignment(assignment)
        self.assignment: Assignment = dict(
            assignment if assignment is not None
            else sfc_partition(forest, self.n_ranks)
        )
        self.step_index = 0
        self.time = 0.0
        self.stats = ExchangeStats()
        #: the exchange schedule (:func:`repro.core.ghost.exchange_regions`)
        self._plan: List[Region] = exchange_regions(forest)
        self._msg_index = 0
        self.rank_blocks: List[Dict[BlockID, Block]] = [{} for _ in range(self.n_ranks)]
        #: the ranks' compiled phases are stale: the next exchange
        #: reconfigures them (set whenever blocks move)
        self._config_dirty = True
        self.sanitizer: Optional["GhostSanitizer"] = None
        self.scrubber: Optional["Scrubber"] = None
        self._staged_flips: List["BitFlip"] = []
        self._open(forest)
        if sanitize:
            from repro.analysis.poison import GhostSanitizer, poison_forest

            self.sanitizer = GhostSanitizer(depth=scheme.required_ghost)
            poison_forest(self._all_blocks())

    # -- transport hooks (see the class docstring) ----------------------

    def _open(self, forest: BlockForest) -> None:
        raise NotImplementedError

    def _arena(self, rank: int) -> BlockArena:
        raise NotImplementedError

    def kill_rank(self, rank: int) -> None:
        raise NotImplementedError

    def _configure(self) -> None:
        raise NotImplementedError

    def _stage1(self) -> None:
        raise NotImplementedError

    def _stage2(self) -> None:
        raise NotImplementedError

    def _compute(self, op: str, dt: float) -> None:
        raise NotImplementedError

    def _begin_step(self) -> None:
        pass

    def _end_step(self) -> None:
        pass

    def _death_kinds(self, ranks: Sequence[int]) -> Tuple[str, ...]:
        return ()  # the emulator does not classify its failures

    def try_respawn(self, rank: int) -> bool:
        """Bring a dead rank back; an emulated rank stays dead."""
        return False

    # -- placement and recovery -----------------------------------------

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

    def _place(self, bid: BlockID, rank: int) -> Block:
        """A zeroed clone of block ``bid`` in a row of ``rank``'s pool.
        Connectivity comes from the machine's own replicated topology,
        so restores from a checkpoint use identical pointers."""
        arena = self._arena(rank)
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

    def _populate(self, forest: BlockForest) -> None:
        """Place every block on its assigned rank, in SFC order, holding
        a copy of ``forest``'s padded data; rows held before are freed."""
        for rank, blocks in enumerate(self.rank_blocks):
            for block in blocks.values():
                self._arena(rank).release(block)
        self.rank_blocks = [{} for _ in range(self.n_ranks)]
        for bid in self.topology.sorted_ids():
            np.copyto(self._place(bid, self.assignment[bid]).data, forest.blocks[bid].data)
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

        Dead ranks are revived where the transport can (the rollback
        restarts the whole machine), the block-to-rank assignment is
        recomputed over the *surviving* ranks (SFC repartition) unless
        one is given, every block's data is repopulated from
        ``forest``, and the simulation clock rewinds to the checkpoint —
        the receiving half of the global rollback-and-replay recovery
        protocol.  A bad assignment is rejected before any block moves.
        """
        for rank in range(self.n_ranks):
            if not self.alive[rank]:
                self.try_respawn(rank)
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
        self.assignment = dict(assignment)
        self._populate(forest)
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
        place — no other rank's data moves.  A surviving previous
        owner's row is freed first, so adopting onto the current owner
        reuses its row (``interior`` must not be a view of that row).
        """
        if not self.alive[rank]:
            raise ValueError(f"cannot adopt block onto dead rank {rank}")
        old = self.assignment.get(bid)
        if old is not None and bid in self.rank_blocks[old]:
            # the previous owner is alive: free its row
            self._arena(old).release(self.rank_blocks[old].pop(bid))
        clone = self._place(bid, rank)
        clone.interior[...] = interior
        self.assignment[bid] = rank
        self._config_dirty = True
        if self.scrubber is not None:
            self.scrubber.retag_block(bid, clone)

    def make_partner_store(self) -> "PartnerStore":
        """The localized-recovery tier that keeps this machine's partner
        copies (:func:`repro.resilience.recovery.run_with_recovery`)."""
        from repro.resilience.partner import PartnerStore

        return PartnerStore(self)

    # -- stepping --------------------------------------------------------

    def advance(self, dt: float) -> None:
        """One (two-stage for order 2) time step across all ranks.

        With a fault plan attached, scripted rank deaths fire before the
        step executes; the resulting lost blocks are detected and
        reported by raising :class:`~repro.resilience.faults.RankFailure`
        (message faults surface mid-exchange as
        :class:`~repro.resilience.faults.MessageFailure`).  The machine
        is then in a partial state; recover with :meth:`restore` or
        :meth:`adopt_block`.
        """
        self._begin_step()
        if self.fault_plan is not None:
            killed = [
                r for r in self.fault_plan.kills_at(self.step_index)
                if 0 <= r < self.n_ranks and self.alive[r]
            ]
            for rank in killed:
                self.kill_rank(rank)
            # Killing a rank that owned no blocks (possible when
            # n_ranks > n_blocks) loses no data, so the step simply
            # proceeds over the survivors instead of raising.
            lost = self.lost_blocks() if killed else []
            if lost:
                from repro.resilience.faults import RankFailure

                raise RankFailure(
                    self.step_index, tuple(killed), tuple(lost),
                    kinds=self._death_kinds(killed),
                )
        self._flip_and_scrub()
        self._msg_index = 0
        stages = ("step",) if self.scheme.n_stages == 1 else ("predictor", "corrector")
        with quiet_poison(self.sanitizer is not None):
            for op in stages:
                self.exchange()
                self._compute(op, dt)
        if self.sanitizer is not None:
            self.sanitizer.after_stage(self._all_blocks())
        self.time += dt
        self.step_index += 1
        # Staging flips whose message index never came up this step are
        # dropped — the staging buffers they targeted no longer exist —
        # and the committed state becomes the scrubber's new baseline.
        self._staged_flips.clear()
        self.scrub_retag()
        self._end_step()

    @phase_effect("exchange")
    def exchange(self) -> None:
        """One full ghost exchange: stage 1 (same-level copies and
        restrictions, then physical BCs) on every rank, then stage 2
        (prolongations) gathered on every rank before any rank writes.

        Refuses while blocks are lost to failed ranks (a dead rank holds
        none, nor does a respawned one yet) — a survivor's entries would
        read blocks nobody holds — until :meth:`restore` or
        :meth:`adopt_block` puts them back.
        """
        if sum(map(len, self.rank_blocks)) != self.topology.n_blocks:
            raise RuntimeError(
                f"cannot exchange: {len(self.lost_blocks())} block(s) lost to "
                "failed ranks; restore from a checkpoint first"
            )
        if self._config_dirty:
            self._configure()
        if self.sanitizer is not None:
            self.sanitizer.before_exchange(self._all_blocks())
        self._stage1()
        self._stage2()
        if self.sanitizer is not None:
            self.sanitizer.after_exchange(self._all_blocks())

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


class EmulatedMachine(RankMachine):
    """The in-process transport: every rank's blocks are rows of a
    private pool, and every rank's compiled
    :class:`~repro.parallel.procworker.RankPhases` run as method calls,
    one phase on every rank before the next begins.  Remote transfers
    are charged and fault-checked as wire messages from a
    data-independent table (:meth:`_send`).  Constructor parameters:
    see :class:`RankMachine`.
    """

    #: every rank's private pool (a dead rank's is replaced by an empty one)
    _arenas: List[BlockArena]
    #: every alive rank's compiled phases, and the wire table: the
    #: transfers of stage 1 and of stage 2 in plan order, each with its
    #: payload size if it crosses ranks (None if it does not); both
    #: rebuilt at the first exchange after a change
    _ranks: Dict[int, RankPhases]
    _wire: Tuple[List[Tuple[Transfer, Optional[int]]], ...]

    def _open(self, forest: BlockForest) -> None:
        owned = list(self.assignment.values())
        self._arenas = [self._empty_pool(owned.count(rank)) for rank in range(self.n_ranks)]
        self._populate(forest)

    def _empty_pool(self, capacity: int = 1) -> BlockArena:
        geom = self.topology
        return BlockArena(geom.m, geom.n_ghost, geom.nvar, initial_capacity=capacity)

    def _arena(self, rank: int) -> BlockArena:
        return self._arenas[rank]

    def kill_rank(self, rank: int) -> None:
        """Simulate a node loss: the rank's private block data vanishes."""
        if not (0 <= rank < self.n_ranks):
            raise ValueError(f"rank {rank} out of range")
        self.alive[rank] = False
        self.rank_blocks[rank] = {}
        self._arenas[rank] = self._empty_pool()
        self._config_dirty = True

    def _configure(self) -> None:
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

    def _stage1(self) -> None:
        self._transmit(stage2=False)
        for phases in self._ranks.values():
            phases.exch1()

    def _stage2(self) -> None:
        self._transmit(stage2=True)
        for phases in self._ranks.values():
            phases.exch2_gather()
        for phases in self._ranks.values():
            phases.exch2_write()

    def _compute(self, op: str, dt: float) -> None:
        for phases in self._ranks.values():
            getattr(phases, op)(dt)
