"""Worker-process side of the real-process parallel backend.

Each rank of a :class:`~repro.parallel.procmachine.ProcessMachine` runs
:func:`worker_main` in a forked OS process.  The worker is a pure
command executor: it blocks on its control pipe, executes one *phase*
per command — a barrier-synchronous slice of the step — and replies
with a CRC32-checksummed acknowledgement.  All block data lives in the
shared-memory segments (:mod:`repro.parallel.shared_arena`); the pipes
carry only control messages, never payloads.

Phase protocol (each command is a global barrier: the supervisor sends
the next phase only after every alive rank acknowledged the previous
one).  Every phase but ``config`` is a method of :class:`RankPhases`,
which the emulated machine runs in-process as well:

``exch1``
    Stage 1 of the ghost exchange for the rank's own blocks: same-level
    copies and restrictions, reading only *interiors* of neighbor
    segments (stable during the exchange), then physical BCs.
``exch2-gather``
    Read-only half of stage 2: copy every bordered coarse source region
    (which may read ghosts stage 1 just filled) into private staging.
    Nothing shared is written, so concurrent readers cannot race.
``exch2-write``
    Write half of stage 2: prolong the staged payloads into the rank's
    own ghost regions, then BCs.  Splitting stage 2 around a barrier
    makes every gather see exactly the post-stage-1 state whatever the
    cross-rank timing.  A slope border that reaches ghost cells an
    earlier prolongation writes is served by the entry's
    :attr:`repro.core.ghost._Prolong.deps`, which the gather replays on
    its private copy — the serial fill runs the same two halves.  So no
    gather reads what a write changes: run in-process, writing before
    the barrier leaves every bit as it is (``docs/static-analysis.md``).
``step``, ``predictor``, ``corrector``
    Rank-local compute on own blocks (reads own ghosts, writes own
    interiors): the driver's tiled stage update
    (:class:`repro.solvers.sweep.PoolSweep`) over the rank's pool rows.
``config``
    (Re)build the worker's view of the world: attach segments, create
    Block views per the row locator, compile the exchange entries whose
    destination the rank owns and the sweep over its rows.  Sent at
    spawn, after recoveries, and after respawns.
``resend``
    Supervision probe: retransmit the cached reply for the last
    executed sequence number (idempotent recovery for dropped or
    corrupted acknowledgements).
``shutdown``
    Acknowledge and exit cleanly.

Deterministic scripted misbehavior for the failure-detector tests is
injected through ``test_hooks`` — ``hang``, ``slow:<seconds>``,
``exit``, ``mute``, ``garble``, ``garble-forever`` keyed by
``(step, phase)`` — so edge cases like "slow but alive" and "heartbeat
stale" are exactly reproducible.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.poison import quiet_poison
from repro.analysis.protocol import phase_effect
from repro.core.block import Block
from repro.core.block_id import BlockID
from repro.core.forest import BlockForest
from repro.core.integrity import content_crc
from repro.core.ghost import (
    BoundaryHandler,
    Region,
    compile_plan,
    gather_prolong,
    payload_values,
    run_boundaries,
    run_copies,
    run_restrictions,
    write_prolongs,
)
from repro.parallel.shared_arena import SharedBlockArena
from repro.resilience.faults import apply_bitflip
from repro.solvers.scheme import FVScheme
from repro.solvers.sweep import PoolSweep, tile_rows
from repro.util.timing import wall_clock

__all__ = ["RankPhases", "WorkerSpec", "worker_main"]


@dataclass
class WorkerSpec:
    """Everything a freshly forked worker needs (passed through fork)."""

    rank: int
    conn: Connection
    topology: BlockForest
    #: the exchange schedule (:func:`repro.core.ghost.exchange_regions`),
    #: built once by the supervisor
    regions: List[Region]
    scheme: FVScheme
    bc: Optional[BoundaryHandler]
    heartbeat_name: str
    heartbeat_interval: float
    config: Dict[str, Any]
    #: scripted misbehavior: (step, phase) -> action
    test_hooks: Dict[Tuple[int, str], str] = field(default_factory=dict)
    #: connections inherited from the parent that this worker must close
    #: so a dead supervisor EOFs every worker instead of leaking pipes
    inherited: List[Connection] = field(default_factory=list)
    #: the run is under the ghost sanitizer (see
    #: :func:`repro.analysis.poison.quiet_poison`)
    sanitize: bool = False


class _Heartbeat:
    """Daemon thread bumping this rank's slot on the shared board."""

    def __init__(self, name: str, rank: int, interval: float) -> None:
        # Forked workers share the creator's resource tracker, so the
        # attach re-registers the name there (a set: no-op) — never
        # unregister, that would erase the creator's registration.
        self.shm = shared_memory.SharedMemory(name=name)
        self.board: Optional[np.ndarray] = np.frombuffer(
            self.shm.buf, dtype=np.float64
        )
        self.rank = rank
        self.interval = interval
        self.paused = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            board = self.board
            if board is None:
                return
            if not self.paused.is_set():
                board[self.rank] += 1.0
            time.sleep(self.interval)

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=1.0)
        # Drop the board view so the mapping can actually close.
        self.board = None
        try:
            self.shm.close()
        except BufferError:
            # The join timed out with the thread mid-increment; the
            # mapping dies with the process instead.
            pass


class RankPhases:
    """One rank's share of a step, compiled once per configuration: the
    ghost-exchange entries whose destination the rank owns
    (:func:`repro.core.ghost.compile_plan`), their wire counts, and the
    tiled sweep over its pool rows.

    Both executing machines run it, one method per barrier phase: a rank
    process on views into shared segments (:class:`_Worker`), the
    emulator in-process on each rank's private pool — the same code
    whether a neighbour is local or remote.  ``blocks`` holds every
    block the rank reads (its own and its neighbours'), ``rows`` the row
    of ``pool`` each of its own blocks lives in.
    """

    def __init__(
        self,
        rank: int,
        topology: BlockForest,
        regions: List[Region],
        scheme: FVScheme,
        bc: Optional[BoundaryHandler],
        blocks: Dict[BlockID, Block],
        pool: np.ndarray,
        rows: Dict[BlockID, int],
    ) -> None:
        self.rank = rank
        self.topology = topology
        self.bc = bc
        own = frozenset(rows)
        self.plan = compile_plan(topology, regions=regions, blocks=blocks, dest=own)
        keys = ("n_messages", "n_values", "n_local")
        #: reply counts of stage 1 and stage 2
        self.counts = (dict.fromkeys(keys, 0), dict.fromkeys(keys, 0))
        for bid, _offset, transfers in regions:
            if bid in own:
                for t in transfers:
                    count = self.counts[t.delta < 0]
                    if t.src_id not in own:
                        count["n_messages"] += 1
                        count["n_values"] += payload_values(
                            t, topology.nvar, topology.ndim,
                            topology.prolong_order,
                        )
                    else:
                        count["n_local"] += 1
        tile = tile_rows(pool[:1].nbytes)
        interior = (topology.nvar,) + tuple(topology.m)
        self.sweep = PoolSweep(
            scheme, pool,
            [(row, blocks[bid]) for bid, row in rows.items()],
            topology.n_ghost,
            save=np.empty((len(pool),) + interior),
            rate=np.empty((min(tile, len(pool)),) + interior),
            tile=tile,
        )
        self._payloads: List[np.ndarray] = []
        self._payload_crcs: List[int] = []

    # -- exchange phases ------------------------------------------------

    @phase_effect("exch1")
    def exch1(self) -> Dict[str, Any]:
        """Stage 1: same-level copies + restrictions into own ghosts."""
        run_copies(self.plan)
        run_restrictions(self.plan, self.topology.ndim)
        run_boundaries(self.plan, self.bc, self.topology)
        return {"status": "ok", **self.counts[0]}

    @phase_effect("exch2-gather")
    def exch2_gather(self, cmd: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Read-only half of stage 2: stage bordered coarse sources.

        When the supervisor asks (``payload={"verify": True}`` — the
        scrub tier is on), the worker CRC-tags every gathered payload;
        :meth:`exch2_write` re-checks the tags before prolonging, so a
        bit flipped in the staging buffers between the two phases is
        caught before it ever reaches a ghost region.
        """
        geom = self.topology
        payloads = [
            gather_prolong(p, geom.prolong_order, geom.ndim)
            for p in self.plan.prolongs
        ]
        self._payloads = payloads
        if cmd is not None and cmd.get("verify"):
            self._payload_crcs = [content_crc(p) for p in payloads]
        else:
            self._payload_crcs = []
        return {"status": "ok", **self.counts[1], "n_payloads": len(payloads)}

    @phase_effect("exch2-write")
    def exch2_write(self, cmd: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Write half of stage 2: prolong staged payloads, then BCs.

        Scripted staging bitflips addressed to this rank are applied
        first (after the gather-side CRC tags were taken), then every
        payload is re-checked against its tag: a mismatched payload is
        *not* prolonged — the corruption stays contained in the staging
        buffer — and its index is reported back so the supervisor can
        raise the corruption for the recovery ladder.
        """
        geom = self.topology
        payloads = self._payloads
        if cmd is not None and payloads:
            for f in cmd.get("flips", ()):
                if int(f["rank"]) == self.rank:
                    apply_bitflip(
                        payloads[int(f["index"]) % len(payloads)],
                        f["byte"], f["bit"],
                    )
        bad = set()
        if self._payload_crcs:
            bad = {
                i for i, p in enumerate(payloads)
                if content_crc(p) != self._payload_crcs[i]
            }
        if payloads:
            write_prolongs(
                self.plan, payloads, geom.prolong_order, geom.ndim, skip=bad
            )
        self._payloads = []
        self._payload_crcs = []
        run_boundaries(self.plan, self.bc, geom)
        body: Dict[str, Any] = {"status": "ok", "n_prolonged": len(payloads)}
        if bad:
            body["staging_bad"] = sorted(bad)
        return body

    # -- compute phases -------------------------------------------------

    @phase_effect("step")
    def step(self, dt: float) -> Dict[str, Any]:
        self.sweep.forward(dt)
        return {"status": "ok"}

    @phase_effect("predictor")
    def predictor(self, dt: float) -> Dict[str, Any]:
        self.sweep.snapshot()
        self.sweep.forward(0.5 * dt)
        return {"status": "ok"}

    @phase_effect("corrector")
    def corrector(self, dt: float) -> Dict[str, Any]:
        self.sweep.correct(dt)
        return {"status": "ok"}


class _Worker:
    """Mutable worker state: the attached segments and the rank's
    compiled phases over views into them."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.hooks = dict(spec.test_hooks)
        self.segments: Dict[int, SharedBlockArena] = {}
        self.phases: Optional[RankPhases] = None

    def drop_views(self) -> None:
        """Forget everything that references a segment's memory: a
        mapping cannot close while views into it are alive."""
        self.phases = None

    @phase_effect("config")
    def apply_config(self, cfg: Dict[str, Any]) -> Dict[str, Any]:
        """Attach segments, rebuild block views per the row locator,
        and compile the rank's phases over them."""
        wanted: Dict[int, Tuple[str, int, int]] = cfg["segments"]
        self.drop_views()
        for rank in list(self.segments):
            seg = self.segments[rank]
            if rank not in wanted or wanted[rank][0] != seg.name:
                seg.destroy()  # attach-side: close only, never unlink
                del self.segments[rank]
        spec = self.spec
        geom = spec.topology
        for rank, (name, capacity, mirror_capacity) in wanted.items():
            if rank not in self.segments:
                self.segments[rank] = SharedBlockArena(
                    geom.m, geom.n_ghost, geom.nvar,
                    capacity=capacity, mirror_capacity=mirror_capacity,
                    name=name, create=False,
                )
        assignment: Dict[BlockID, int] = cfg["assignment"]
        blocks: Dict[BlockID, Block] = {}
        rows: Dict[BlockID, int] = {}
        for bid, (rank, row) in cfg["locator"].items():
            tmpl = geom.blocks[bid]
            blk = Block(
                id=tmpl.id, box=tmpl.box, m=tmpl.m,
                n_ghost=tmpl.n_ghost, nvar=tmpl.nvar,
                data=self.segments[rank].pool_view(row),
            )
            blk.face_neighbors = tmpl.face_neighbors
            blocks[bid] = blk
            if assignment.get(bid) == spec.rank:
                rows[bid] = row
        arena = self.segments[spec.rank].arena
        assert arena is not None
        self.phases = RankPhases(
            spec.rank, geom, spec.regions, spec.scheme, spec.bc,
            blocks, arena.pool, rows,
        )
        return {"status": "ok", "n_blocks": len(rows)}


def _execute(worker: _Worker, msg: Dict[str, Any]) -> Dict[str, Any]:
    op = msg["op"]
    if op == "config":
        return worker.apply_config(msg["payload"])
    if op == "shutdown":
        return {"status": "ok"}
    phases = worker.phases
    assert phases is not None
    if op == "exch1":
        return phases.exch1()
    if op == "exch2-gather":
        return phases.exch2_gather(msg.get("payload"))
    if op == "exch2-write":
        return phases.exch2_write(msg.get("payload"))
    if op == "step":
        return phases.step(msg["dt"])
    if op == "predictor":
        return phases.predictor(msg["dt"])
    if op == "corrector":
        return phases.corrector(msg["dt"])
    raise ValueError(f"unknown worker op {op!r}")


def worker_main(spec: WorkerSpec) -> None:
    """Entry point of one rank process (the fork target)."""
    from repro.parallel.supervisor import reply_crc

    # Close inherited control pipes of other ranks: otherwise siblings
    # keep each other's (and the dead supervisor's) pipe ends open and
    # orphaned workers never see EOF.
    for conn in spec.inherited:
        conn.close()
    heartbeat = _Heartbeat(
        spec.heartbeat_name, spec.rank, spec.heartbeat_interval
    )
    heartbeat.start()
    worker = _Worker(spec)
    cached: Optional[Dict[str, Any]] = None
    last_seq = -1

    def send_reply(seq: int, body: Dict[str, Any], *, garbled: bool) -> Dict[str, Any]:
        reply = {
            "seq": seq,
            "rank": spec.rank,
            "body": body,
            "crc": reply_crc(body, seq, spec.rank) + (1 if garbled else 0),
        }
        spec.conn.send(reply)
        return reply

    try:
        # Bootstrap: apply the config carried through the fork and
        # acknowledge it — this reply is the spawn handshake.
        boot_seq = int(spec.config["seq"])
        boot_body = worker.apply_config(spec.config["payload"])
        cached = {
            "seq": boot_seq,
            "rank": spec.rank,
            "body": boot_body,
            "crc": reply_crc(boot_body, boot_seq, spec.rank),
        }
        last_seq = boot_seq
        spec.conn.send(cached)
        while True:
            try:
                msg = spec.conn.recv()
            except EOFError:
                break  # supervisor is gone; die quietly
            op = msg.get("op")
            if op == "resend":
                if msg.get("seq") == last_seq and cached is not None:
                    spec.conn.send(cached)
                continue
            seq = int(msg["seq"])
            if seq == last_seq and cached is not None:
                spec.conn.send(cached)  # duplicate command: idempotent
                continue
            t0 = wall_clock()
            with quiet_poison(spec.sanitize):
                body = _execute(worker, msg)
            # the rank's own busy time for the phase (supervisor-side
            # phase wall minus this is pipe + wait for the slowest rank)
            body["busy_s"] = wall_clock() - t0
            step = int(msg.get("step", -1))
            action = worker.hooks.pop((step, str(op)), None)
            if action == "exit":
                heartbeat.stop()
                return  # clean exit without replying
            if action == "hang":
                heartbeat.paused.set()
                time.sleep(600.0)  # wedged: the supervisor must kill us
            if action is not None and action.startswith("slow:"):
                time.sleep(float(action.split(":", 1)[1]))
            if action == "mute":
                # Compute and cache the reply but never send it — the
                # supervisor's resend probe recovers it.
                cached = {
                    "seq": seq, "rank": spec.rank, "body": body,
                    "crc": reply_crc(body, seq, spec.rank),
                }
                last_seq = seq
                continue
            if action == "garble-forever":
                # Corrupt this reply and every future resend of it.
                cached = send_reply(seq, body, garbled=True)
                last_seq = seq
                continue
            garbled_once = action == "garble"
            good = {
                "seq": seq, "rank": spec.rank, "body": body,
                "crc": reply_crc(body, seq, spec.rank),
            }
            if garbled_once:
                send_reply(seq, body, garbled=True)
            else:
                spec.conn.send(good)
            cached = good  # resends always carry the intact reply
            last_seq = seq
            if op == "shutdown":
                break
    finally:
        heartbeat.stop()
        # Drop every view before closing the mappings, otherwise the
        # exported-pointer check keeps the segments pinned.
        worker.drop_views()
        for seg in worker.segments.values():
            seg.destroy()
        spec.conn.close()
