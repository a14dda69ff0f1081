"""Ghost-exchange message schedules for a partitioned forest.

Converts the geometric transfer stream of
:func:`repro.core.ghost.iter_transfers` into per-PE-pair messages under
a block→rank assignment.  Two aggregation modes expose the paper's
communication-amortization claim:

* ``aggregate=True`` (adaptive blocks): all transfers between the same
  (src PE, dst PE) pair in one exchange are coalesced into a single
  message — the paper's "amortize the overhead of communication over
  entire blocks of cells";
* ``aggregate=False`` (cell-based baseline): every transfer pays its own
  message latency — the per-cell communication of tree/unstructured
  codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.core.forest import BlockForest
from repro.core.ghost import Transfer, iter_transfers
from repro.parallel.partition import Assignment

__all__ = ["MessageSchedule", "build_schedule"]

BYTES_PER_VALUE = 8  # float64


@dataclass
class MessageSchedule:
    """All inter-PE traffic of one ghost exchange.

    ``pair_bytes[(src, dst)]`` is the payload between a PE pair;
    ``n_messages`` counts wire messages under the chosen aggregation;
    ``local_transfers`` counts transfers that stayed on-PE (free).
    """

    pair_bytes: Dict[Tuple[int, int], int] = field(default_factory=dict)
    pair_transfers: Dict[Tuple[int, int], int] = field(default_factory=dict)
    n_messages: int = 0
    local_transfers: int = 0
    total_transfers: int = 0

    @property
    def total_bytes(self) -> int:
        return sum(self.pair_bytes.values())

    @property
    def remote_fraction(self) -> float:
        if self.total_transfers == 0:
            return 0.0
        return 1.0 - self.local_transfers / self.total_transfers

    def messages(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (src, dst, bytes) wire messages under the schedule's
        aggregation (deterministic pair order)."""
        if self.n_messages == sum(self.pair_transfers.values()):
            # Per-transfer mode: emit transfer-sized messages.  Sizes are
            # approximated as equal shares of the pair payload, which
            # keeps total bytes exact and message count exact — the two
            # quantities the cost model charges for.
            for (src, dst) in sorted(self.pair_bytes):
                n = self.pair_transfers[(src, dst)]
                total = self.pair_bytes[(src, dst)]
                share, rem = divmod(total, n)
                for i in range(n):
                    yield src, dst, share + (1 if i < rem else 0)
        else:
            for (src, dst) in sorted(self.pair_bytes):
                yield src, dst, self.pair_bytes[(src, dst)]


def build_schedule(
    forest: BlockForest,
    assignment: Assignment,
    *,
    nvar: int | None = None,
    aggregate: bool = True,
    fill_corners: bool = True,
) -> MessageSchedule:
    """Build the message schedule of one full ghost exchange.

    Every face, edge and corner region is charged, or only the face
    regions without ``fill_corners``.  The executing machines send
    :func:`repro.core.ghost.exchange_regions`: the face regions on a
    forest with a level jump of 1, every region otherwise.  So at a
    level jump of 1 the default schedule is an upper bound on their
    traffic.

    ``nvar`` overrides the forest's variable count for payload sizing
    (the topology-only machine simulations allocate nvar=1 forests but
    model 8-variable MHD messages).
    """
    nv = forest.nvar if nvar is None else int(nvar)
    sched = MessageSchedule()
    for t in iter_transfers(forest, fill_corners=fill_corners):
        sched.total_transfers += 1
        src = assignment[t.src_id]
        dst = assignment[t.dst_id]
        if src == dst:
            sched.local_transfers += 1
            continue
        key = (src, dst)
        payload = t.message_cells * nv * BYTES_PER_VALUE
        sched.pair_bytes[key] = sched.pair_bytes.get(key, 0) + payload
        sched.pair_transfers[key] = sched.pair_transfers.get(key, 0) + 1
    if aggregate:
        sched.n_messages = len(sched.pair_bytes)
    else:
        sched.n_messages = sum(sched.pair_transfers.values())
    return sched
