"""Real-process parallel backend: one OS process per rank.

:class:`ProcessMachine` is the second transport of
:class:`~repro.parallel.emulator.RankMachine`, which owns the step
program, block placement and block adoption for both machines.  Every
rank is a real forked process whose :class:`~repro.core.arena.BlockArena`
pool lives in a POSIX shared-memory segment
(:class:`~repro.parallel.shared_arena.SharedBlockArena`).  Same-node
ghost exchange is therefore a flat index copy out of the neighbor's
segment — no payload ever crosses the control pipes — while each phase
of the step program (``exch1 → exch2-gather → exch2-write → compute``)
is a barrier driven by the supervisor (this class) and acknowledged by
every alive rank before the next begins (see
:mod:`repro.parallel.procworker` for why stage 2 splits around a
barrier and what the gather replays to stay bit-for-bit equal to the
serial exchange).

The robustness layer is the point of this backend:

* the supervisor monitors ranks via a shared heartbeat board and
  classifies failures — clean exit, SIGKILL, crash, hang, unreachable —
  (:mod:`repro.parallel.supervisor`);
* a scripted ``FaultPlan`` kill delivers an **actual SIGKILL** to the
  rank's process, and the loss is detected exactly like a node failure:
  the rank's segment is torn down and :class:`~repro.resilience.faults.
  RankFailure` carries the lost blocks to the recovery driver;
* control-plane replies carry CRC32 checksums; a dropped or corrupted
  reply is retried with the machine's :class:`~repro.resilience.faults.
  RetryPolicy` capped exponential backoff, and only exhaustion
  escalates the rank to *unreachable* (and kills it — a rank we cannot
  talk to is operationally dead);
* localized recovery (:class:`~repro.resilience.procpartner.
  SharedPartnerRing`) respawns a fresh process for a dead rank and
  restores its blocks from the SFC buddy's in-segment mirror — pure
  shared-memory movement, zero disk reads; if respawn keeps failing
  the ring degrades to redistributing the blocks over survivors; double
  faults escalate to the checkpoint rollback through the unchanged
  :func:`~repro.resilience.recovery.run_with_recovery` driver.

Segments are leak-proof: every one carries a ``weakref.finalize`` guard
(PID-fenced so forked children never unlink the parent's segments) and
:meth:`close` — also run by the context manager on *any* exit path —
terminates live workers and unlinks every segment.
"""

from __future__ import annotations

import os
import signal
import time
from multiprocessing import get_context, shared_memory
from multiprocessing.connection import Connection
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np
import weakref

from repro.core.arena import BlockArena
from repro.core.block_id import BlockID
from repro.core.forest import BlockForest
from repro.obs.metrics import METRICS
from repro.parallel.emulator import RankMachine
from repro.parallel.procworker import WorkerSpec, worker_main
from repro.parallel.shared_arena import (
    SharedBlockArena,
    _release_segment,
    segment_name,
)
from repro.parallel.supervisor import (
    FailureKind,
    HeartbeatMonitor,
    ProcConfig,
    RankDeath,
    classify_exit,
    reply_crc,
)
from repro.solvers.scheme import FVScheme
from repro.util.timing import wall_clock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.recorder import RunRecorder
    from repro.resilience.procpartner import SharedPartnerRing

__all__ = ["ProcessMachine"]

#: phases whose wall time counts as exchange (vs compute) in
#: :attr:`ProcessMachine.phase_seconds`
_EXCHANGE_OPS = ("exch1", "exch2-gather", "exch2-write")
_COMPUTE_OPS = ("step", "predictor", "corrector")


class ProcessMachine(RankMachine):
    """Run a block-AMR time step across real single-rank OS processes.

    A :class:`~repro.parallel.emulator.RankMachine` whose ranks' pools
    are the arenas of their shared segments and whose phases are
    barrier round trips over the control pipes.  The supervisor-side
    block views alias the segments directly, so scrubbing and bitflip
    injection touch the same shared memory the workers compute on.
    Constructor parameters are ``RankMachine``'s plus:

    config:
        :class:`~repro.parallel.supervisor.ProcConfig` timeouts.
    test_hooks:
        ``{rank: {(step, phase): action}}`` scripted worker misbehavior
        for the failure-detector tests (hang / slow / exit / mute /
        garble); hooks are per process lifetime — a respawned rank
        starts clean.

    Use as a context manager (or call :meth:`close`): teardown must run
    even when a step raises, or worker processes and shared segments
    leak.
    """

    def __init__(
        self,
        forest: BlockForest,
        n_ranks: int,
        scheme: FVScheme,
        *,
        config: Optional[ProcConfig] = None,
        test_hooks: Optional[Dict[int, Dict[Tuple[int, str], str]]] = None,
        **machine: Any,
    ) -> None:
        if not hasattr(os, "kill") or os.name != "posix":
            raise RuntimeError("the process backend requires a POSIX host")
        n_ranks = int(n_ranks)
        self.config = config if config is not None else ProcConfig()
        self.test_hooks = test_hooks or {}
        #: ranks whose respawn is scripted to fail (degradation tests)
        self.fail_respawn: Set[int] = set()
        self._ctx = get_context("fork")
        #: pool rows and mirror rows per segment: room for every block
        self._capacity = max(1, forest.n_blocks)
        self._segments: List[Optional[SharedBlockArena]] = [None] * n_ranks
        self._procs: List[Optional[Any]] = [None] * n_ranks
        self._conns: List[Optional[Connection]] = [None] * n_ranks
        self._gen = [0] * n_ranks
        self._seq = 0
        self._interiors_dirty = False
        self._closed = False
        self.deaths: List[RankDeath] = []
        self.phase_seconds: Dict[str, float] = {
            "exchange": 0.0, "compute": 0.0, "control": 0.0,
        }
        #: per bucket, what the ranks report of their own phases: busy
        #: seconds by rank, and the rest of the supervisor's wall
        self._work = {b: [0.0] * n_ranks for b in self.phase_seconds}
        self._wait = dict.fromkeys(self.phase_seconds, 0.0)
        self.recorder: Optional["RunRecorder"] = None
        #: whether the workers run on the sanitizer's poison (known
        #: before they fork; the sanitizer itself comes after)
        self._sanitize = bool(machine.get("sanitize", False))
        super().__init__(forest, n_ranks, scheme, **machine)

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------

    def _open(self, forest: BlockForest) -> None:
        # heartbeat board, a segment per rank, then the workers, which
        # get the schedule and their configuration through the fork
        self._hb_shm = shared_memory.SharedMemory(
            name=segment_name("hb"), create=True, size=8 * self.n_ranks
        )
        self._hb_fin = weakref.finalize(
            self, _release_segment, self._hb_shm, True, os.getpid()
        )
        board = np.frombuffer(self._hb_shm.buf, dtype=np.float64)
        board[:] = 0.0
        self._monitor = HeartbeatMonitor(board)
        try:
            for rank in range(self.n_ranks):
                self._create_segment(rank)
            self._populate(forest)
            for rank in range(self.n_ranks):
                if not self._spawn_rank(rank):
                    raise RuntimeError(f"failed to start worker rank {rank}")
        except BaseException:
            self.close()
            raise
        self._config_dirty = False

    def _arena(self, rank: int) -> BlockArena:
        seg = self._segments[rank]
        assert seg is not None and seg.arena is not None
        return seg.arena

    def _create_segment(self, rank: int) -> SharedBlockArena:
        self._gen[rank] += 1
        seg = SharedBlockArena(
            self.topology.m, self.topology.n_ghost, self.topology.nvar,
            capacity=self._capacity, mirror_capacity=self._capacity,
            name=segment_name(f"r{rank}g{self._gen[rank]}"),
            create=True,
        )
        self._segments[rank] = seg
        if METRICS.enabled:
            METRICS.inc("proc.segments_created")
        return seg

    def _config_payload(self) -> Dict[str, Any]:
        # Every live segment is announced — including a just-respawned
        # rank's fresh segment, which exists before the rank is marked
        # alive (the bootstrap handshake needs it) — and every held
        # block's (rank, row) in it.
        return {
            "segments": {
                rank: (seg.name, seg.capacity, seg.mirror_capacity)
                for rank, seg in enumerate(self._segments) if seg is not None
            },
            "locator": {
                bid: (rank, blk.arena_row)
                for rank, blocks in enumerate(self.rank_blocks)
                for bid, blk in blocks.items()
            },
            "assignment": dict(self.assignment),
        }

    def _spawn_rank(self, rank: int) -> bool:
        """Start (or restart) one rank process; True on a good handshake."""
        if self._segments[rank] is None:
            self._create_segment(rank)
        parent_conn, child_conn = self._ctx.Pipe()
        inherited: List[Connection] = [
            c for c in self._conns if c is not None
        ]
        inherited.append(parent_conn)
        self._seq += 1
        seq = self._seq
        spec = WorkerSpec(
            rank=rank,
            conn=child_conn,
            topology=self.topology,
            regions=self._plan,
            scheme=self.scheme,
            bc=self.bc,
            heartbeat_name=self._hb_shm.name,
            heartbeat_interval=self.config.heartbeat_interval,
            config={"seq": seq, "op": "config",
                    "payload": self._config_payload()},
            test_hooks=dict(self.test_hooks.get(rank, {})),
            inherited=inherited,
            sanitize=self._sanitize,
        )
        proc = self._ctx.Process(
            target=_worker_entry, args=(spec,), daemon=True,
            name=f"repro-rank{rank}g{self._gen[rank]}",
        )
        proc.start()
        child_conn.close()
        ok = False
        deadline = wall_clock() + self.config.hard_timeout
        while wall_clock() < deadline:
            if parent_conn.poll(self.config.poll_interval):
                try:
                    msg = parent_conn.recv()
                except (EOFError, OSError):
                    break
                if (
                    msg.get("seq") == seq
                    and msg.get("crc")
                    == reply_crc(msg.get("body", {}), seq, rank)
                ):
                    ok = True
                    break
            if not proc.is_alive():
                break
        if not ok:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=self.config.shutdown_timeout)
            parent_conn.close()
            return False
        self._procs[rank] = proc
        self._conns[rank] = parent_conn
        self.alive[rank] = True
        self._monitor.reset(rank)
        if METRICS.enabled:
            METRICS.gauge("proc.alive_ranks", len(self.alive_ranks))
        return True

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def _emit_supervisor(self, event: str, **fields: Any) -> None:
        if self.recorder is not None:
            self.recorder.emit("supervisor", event=event, **fields)

    def _declare_death(
        self, rank: int, kind: str, detail: str, *, kill: bool
    ) -> RankDeath:
        """Mark a rank dead: reap the process, tear down its segment.

        Destroying the segment models the memory loss for real — the
        partner mirrors *held by* this rank die with it (that is what
        makes a double fault a double fault), while the mirror of this
        rank's own blocks lives on in its buddy's segment.
        """
        proc = self._procs[rank]
        if proc is not None:
            if kill and proc.is_alive() and proc.pid is not None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=self.config.shutdown_timeout)
        conn = self._conns[rank]
        if conn is not None:
            conn.close()
        self._procs[rank] = None
        self._conns[rank] = None
        self.alive[rank] = False
        self.rank_blocks[rank] = {}
        seg = self._segments[rank]
        if seg is not None:
            seg.destroy()
            self._segments[rank] = None
            if METRICS.enabled:
                METRICS.inc("proc.segments_unlinked")
        self._config_dirty = True
        death = RankDeath(
            rank=rank, kind=kind, detail=detail, step=self.step_index
        )
        self.deaths.append(death)
        if METRICS.enabled:
            METRICS.inc("proc.deaths")
            METRICS.inc(f"proc.deaths.{kind}")
            METRICS.gauge("proc.alive_ranks", len(self.alive_ranks))
        self._emit_supervisor(
            "rank-death", rank=rank, step=self.step_index,
            failure=kind, detail=detail,
        )
        return death

    def kill_rank(self, rank: int) -> None:
        """Deliver a real SIGKILL to a rank (operator / fault-plan path)."""
        if not (0 <= rank < self.n_ranks):
            raise ValueError(f"rank {rank} out of range")
        proc = self._procs[rank]
        if proc is not None and proc.is_alive() and proc.pid is not None:
            os.kill(proc.pid, signal.SIGKILL)
        self._declare_death(
            rank, FailureKind.SIGKILL, "SIGKILL delivered", kill=False
        )

    def try_respawn(self, rank: int) -> bool:
        """Bring a dead rank back with a fresh process + segment.

        Bounded by ``config.respawn_max`` attempts; returns False when
        the rank could not be revived (the partner ring then degrades
        to redistributing its blocks over the survivors).
        """
        if self.alive[rank]:
            return True
        attempts = 0
        while attempts < max(1, self.config.respawn_max):
            attempts += 1
            ok = rank not in self.fail_respawn and self._spawn_rank(rank)
            if ok:
                if METRICS.enabled:
                    METRICS.inc("proc.respawns")
                self._emit_supervisor(
                    "respawn", rank=rank, step=self.step_index,
                    attempts=attempts, ok=True,
                )
                # Hooks are per process lifetime: the failure that
                # killed the old process must not replay forever.
                self.test_hooks.pop(rank, None)
                self._config_dirty = True
                return True
            time.sleep(0.01 * attempts)
        if METRICS.enabled:
            METRICS.inc("proc.respawn_failures")
        self._emit_supervisor(
            "respawn", rank=rank, step=self.step_index,
            attempts=attempts, ok=False,
        )
        return False

    def make_partner_store(self) -> "SharedPartnerRing":
        """The localized-recovery tier of this backend: partner copies
        in the holders' shared segments, restored by respawning."""
        from repro.resilience.procpartner import SharedPartnerRing

        return SharedPartnerRing(self)

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------

    def _await_reply(
        self, rank: int, seq: int, op: str, *, injectable: bool
    ) -> Optional[Dict[str, Any]]:
        """Collect one rank's phase acknowledgement under supervision.

        Returns the reply body, or None after declaring the rank dead
        (process exit, stale heartbeat, hard deadline, or control-plane
        retry exhaustion).
        """
        cfg = self.config
        conn = self._conns[rank]
        proc = self._procs[rank]
        if conn is None or proc is None:
            return None
        index = -1
        if injectable:
            index = self._msg_index
            self._msg_index += 1
        attempt = 0
        now = wall_clock()
        soft_deadline = now + cfg.phase_timeout
        hard_deadline = now + cfg.hard_timeout

        def probe() -> bool:
            try:
                conn.send({"op": "resend", "seq": seq})
                return True
            except OSError:
                return False  # pipe gone; the liveness check follows

        while True:
            got = False
            try:
                got = conn.poll(cfg.poll_interval)
            except OSError:
                got = False
            if got:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    msg = None
                if msg is None:
                    pass  # fall through to the liveness checks
                elif msg.get("seq") != seq:
                    continue  # stale reply from an aborted phase
                else:
                    body = msg.get("body", {})
                    intact = msg.get("crc") == reply_crc(body, seq, rank)
                    fault = None
                    if injectable and self.fault_plan is not None:
                        fault = self.fault_plan.take_message_fault(
                            self.step_index, index
                        )
                    if fault is not None and fault.mode == "corrupt":
                        intact = False
                    dropped = fault is not None and fault.mode == "drop"
                    if intact and not dropped:
                        return body
                    # Damaged or discarded acknowledgement: retry with
                    # backoff unless the fault is fatal or retries are
                    # exhausted.
                    transient = fault is None or fault.transient
                    if (
                        transient
                        and self.retry_policy is not None
                        and attempt < self.retry_policy.max_retries
                    ):
                        wait = self.retry_policy.backoff(
                            attempt, step=self.step_index, index=index
                        )
                        self.stats.add_retry(wait)
                        if METRICS.enabled:
                            METRICS.inc("proc.reply_retries")
                        time.sleep(min(wait, 0.05))
                        attempt += 1
                        probe()
                        continue
                    self._declare_death(
                        rank, FailureKind.UNREACHABLE,
                        f"reply for {op!r} (seq {seq}) unusable after "
                        f"{attempt} retr(ies)",
                        kill=True,
                    )
                    return None
            if not proc.is_alive():
                kind = classify_exit(proc.exitcode)
                self._declare_death(
                    rank, kind,
                    f"process exited (code {proc.exitcode}) during {op!r}",
                    kill=False,
                )
                return None
            age = self._monitor.age(rank)
            if METRICS.enabled:
                METRICS.observe("proc.heartbeat_age", age)
            if age > cfg.heartbeat_timeout:
                self._declare_death(
                    rank, FailureKind.HANG,
                    f"heartbeat stale for {age:.2f}s during {op!r}",
                    kill=True,
                )
                return None
            now = wall_clock()
            if now >= hard_deadline:
                self._declare_death(
                    rank, FailureKind.HANG,
                    f"no reply for {op!r} within hard deadline "
                    f"({cfg.hard_timeout:.1f}s)",
                    kill=True,
                )
                return None
            if now >= soft_deadline:
                # Slow but alive (fresh heartbeat): probe for a lost
                # acknowledgement and keep waiting to the hard deadline.
                probe()
                soft_deadline = now + cfg.phase_timeout

    def _phase(
        self,
        op: str,
        *,
        dt: Optional[float] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[int, Dict[str, Any]]:
        """One barrier phase: broadcast, then collect every alive rank.

        Raises :class:`~repro.resilience.faults.RankFailure` when any
        rank died and its blocks are lost (deaths of empty ranks are
        absorbed).
        """
        from repro.resilience.faults import RankFailure

        self._seq += 1
        seq = self._seq
        injectable = op not in ("config", "shutdown")
        msg: Dict[str, Any] = {"op": op, "seq": seq, "step": self.step_index}
        if dt is not None:
            msg["dt"] = dt
        if payload is not None:
            msg["payload"] = payload
        t0 = wall_clock()
        targets = list(self.alive_ranks)
        dead: List[int] = []
        for rank in targets:
            conn = self._conns[rank]
            try:
                assert conn is not None
                conn.send(msg)
            except (OSError, AssertionError):
                proc = self._procs[rank]
                code = proc.exitcode if proc is not None else None
                self._declare_death(
                    rank, classify_exit(code),
                    f"control pipe closed before {op!r}", kill=True,
                )
                dead.append(rank)
        replies: Dict[int, Dict[str, Any]] = {}
        for rank in targets:
            if not self.alive[rank]:
                if rank not in dead:
                    dead.append(rank)
                continue
            body = self._await_reply(rank, seq, op, injectable=injectable)
            if body is None:
                dead.append(rank)
            else:
                replies[rank] = body
        bucket = (
            "exchange" if op in _EXCHANGE_OPS
            else "compute" if op in _COMPUTE_OPS
            else "control"
        )
        wall = wall_clock() - t0
        self.phase_seconds[bucket] += wall
        busy = {r: float(b.get("busy_s", 0.0)) for r, b in replies.items()}
        for rank, seconds in busy.items():
            self._work[bucket][rank] += seconds
        self._wait[bucket] += wall - max(busy.values(), default=0.0)
        if dead:
            lost = self.lost_blocks()
            if lost:
                raise RankFailure(
                    self.step_index, tuple(dead), tuple(lost),
                    kinds=self._death_kinds(dead),
                )
        return replies

    def _death_kinds(self, ranks: Sequence[int]) -> Tuple[str, ...]:
        last = {d.rank: d.kind for d in self.deaths}
        return tuple(last.get(r, FailureKind.CRASH) for r in ranks)

    def phase_breakdown(self) -> Dict[str, Dict[str, Any]]:
        """Work against wait, per :attr:`phase_seconds` bucket, since
        construction: ``wall_s`` (the supervisor's send-to-last-reply
        clock), ``work_s`` (each rank's own busy seconds, from its
        replies) and ``wait_s`` (per phase, wall minus the slowest
        rank's busy: pipe round trip, wake-up and barrier skew)."""
        return {
            bucket: {
                "wall_s": wall,
                "work_s": list(self._work[bucket]),
                "wait_s": self._wait[bucket],
            }
            for bucket, wall in self.phase_seconds.items()
        }

    def _configure(self) -> None:
        """Every rank re-attaches segments and recompiles its phases."""
        self._config_dirty = False
        self._phase("config", payload=self._config_payload())

    def _charge_exchange(self, replies: Dict[int, Dict[str, Any]]) -> None:
        for body in replies.values():
            n = int(body.get("n_messages", 0))
            values = int(body.get("n_values", 0))
            self.stats.n_messages += n
            self.stats.n_bytes += values * 8
            self.stats.n_local += int(body.get("n_local", 0))
            if METRICS.enabled and n:
                METRICS.inc("exchange.messages", n)
                METRICS.inc("exchange.bytes", values * 8)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def _begin_step(self) -> None:
        if self._closed:
            raise RuntimeError("machine is closed")
        # interiors hold a whole step until the first compute phase; the
        # partner ring reads the flag to tell a mid-step failure
        self._interiors_dirty = False

    def _stage1(self) -> None:
        self._charge_exchange(self._phase("exch1"))

    def _stage2(self) -> None:
        """Gather, then write; with the scrub tier on (or staged flips
        pending) the gathered payloads are CRC-tagged and re-checked
        before they are prolonged."""
        verify = self.scrubber is not None or bool(self._staged_flips)
        gather_replies = self._phase(
            "exch2-gather", payload={"verify": True} if verify else None
        )
        self._charge_exchange(gather_replies)
        write_payload = (
            self._plan_staging_flips(gather_replies)
            if self._staged_flips else None
        )
        write_replies = self._phase("exch2-write", payload=write_payload)
        if verify:
            self._check_staging(write_replies)

    def _payload_block(self, rank: int, idx: int) -> Optional[BlockID]:
        """Destination block of ``rank``'s ``idx``-th exch2 payload.

        Workers and supervisor derive payload order from the same plan,
        so a staging-corruption report carrying only a local payload
        index still yields a per-block diagnosis.
        """
        i = 0
        for bid, _offset, transfers in self._plan:
            if self.assignment.get(bid) != rank:
                continue
            for t in transfers:
                if t.delta < 0:
                    if i == idx:
                        return bid
                    i += 1
        return None

    def _plan_staging_flips(
        self, gather_replies: Dict[int, Dict[str, Any]]
    ) -> Optional[Dict[str, Any]]:
        """Address staged bitflips onto concrete (rank, payload) slots.

        The scripted flip's ``block`` field is a global in-flight payload
        index; the gather replies report how many payloads each rank is
        holding, so the supervisor maps the global index to a rank-local
        one and ships the flip down in the ``exch2-write`` command.  With
        no payloads in flight the flips stay staged for a later exchange
        of the same step (they are dropped at the end of the advance,
        like the emulator's).
        """
        counts = [
            (rank, int(body.get("n_payloads", 0)))
            for rank, body in sorted(gather_replies.items())
        ]
        total = sum(n for _, n in counts)
        if total == 0:
            return None
        flips: List[Dict[str, int]] = []
        for f in self._staged_flips:
            g = f.block % total
            for rank, n in counts:
                if g < n:
                    flips.append({
                        "rank": rank, "index": g,
                        "byte": f.byte, "bit": f.bit,
                    })
                    break
                g -= n
        self._staged_flips.clear()
        return {"flips": flips} if flips else None

    def _check_staging(self, replies: Dict[int, Dict[str, Any]]) -> None:
        """Raise on any payload whose write-side CRC check failed."""
        from repro.resilience.scrub import CorruptEntry, CorruptionError

        entries = []
        for rank in sorted(replies):
            for idx in replies[rank].get("staging_bad", ()):
                entries.append(
                    CorruptEntry(
                        "staging",
                        block=self._payload_block(rank, int(idx)),
                        rank=rank,
                    )
                )
        if entries:
            raise CorruptionError(self.step_index, entries)

    def _compute(self, op: str, dt: float) -> None:
        self._interiors_dirty = True
        self._phase(op, dt=dt)

    def _end_step(self) -> None:
        # The step committed: interiors are once again a consistent
        # whole-step state.
        self._interiors_dirty = False
        if self.recorder is not None:
            self._emit_supervisor(
                "phase-breakdown", step=self.step_index,
                **self.phase_breakdown(),
            )

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Terminate workers and unlink every shared segment (idempotent).

        Safe on every exit path: tries a graceful shutdown first, then
        terminates, then SIGKILLs; finally destroys all segments (the
        creator-side unlink that actually frees the memory).
        """
        if self._closed:
            return
        self._closed = True
        self._seq += 1
        seq = self._seq
        for rank in range(self.n_ranks):
            conn = self._conns[rank]
            if conn is None:
                continue
            try:
                conn.send({"op": "shutdown", "seq": seq,
                           "step": self.step_index})
            except OSError:
                pass  # already gone; reaped below
        deadline = wall_clock() + self.config.shutdown_timeout
        for rank in range(self.n_ranks):
            proc = self._procs[rank]
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - wall_clock()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=self.config.shutdown_timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=self.config.shutdown_timeout)
            self._procs[rank] = None
        for rank in range(self.n_ranks):
            conn = self._conns[rank]
            if conn is not None:
                conn.close()
                self._conns[rank] = None
        self.rank_blocks = [{} for _ in range(self.n_ranks)]
        for rank in range(self.n_ranks):
            seg = self._segments[rank]
            if seg is not None:
                seg.destroy()
                self._segments[rank] = None
                if METRICS.enabled:
                    METRICS.inc("proc.segments_unlinked")
        self._monitor = None  # type: ignore[assignment]
        self._hb_fin()

    def __enter__(self) -> "ProcessMachine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _worker_entry(spec: WorkerSpec) -> None:
    """Module-level fork target (kept importable for traceability)."""
    worker_main(spec)
