"""Phase-boundary memory scrubbing: detection tier of the SDC defense.

A flipped bit in live block storage is *silent*: unlike a rank death or
a checksum-failed wire message, nothing raises.  The corrupted cells are
read by the next stencil sweep, smeared across neighbors by the next
exchange, and eventually committed to a checkpoint — at which point no
recovery tier can help.  The :class:`Scrubber` closes that hole by
verifying CRC32 content tags over every block at configurable phase
boundaries, turning silent corruption into a loud, *recoverable*
:class:`CorruptionError` while the damage is still confined to one
block.

Design constraints, mirroring the rest of the resilience stack:

* **Deterministic and wall-clock-free.**  Scrub scheduling depends only
  on the step index (``step % every == 0``), never on elapsed time, so
  scrub-enabled runs replay identically after a rollback.
* **Bit-for-bit transparent.**  Verification only *reads* state; a
  scrub-enabled fault-free run is bit-for-bit identical to baseline on
  every engine.  The tags live beside the data, in the scrubber's own
  map, never in it.
* **One detection per corruption.**  After reporting a mismatch the
  scrubber re-baselines the block's tag; the *recovery* tier decides
  what happens next (mirror repair, rewind, rollback, abort) and
  re-tags again after any repair.  Without the re-baseline a rolled-back
  run would re-detect the same stale mismatch forever.

The scrubber classifies each mismatch by region — ``interior`` (live
cells), ``ghost`` (halo only), ``mirror`` (a partner-store copy) — and
:func:`repro.resilience.recovery.run_with_recovery` maps the class onto
the self-healing ladder: verified-mirror in-place repair, exchange
rewrite, re-mirror, snapshot rewind, checkpoint rollback, abort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.protocol import phase_effect
from repro.core.integrity import content_crc
from repro.obs.metrics import METRICS
from repro.resilience.faults import BitFlip, FaultDetected, apply_bitflip

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.block import Block
    from repro.resilience.partner import PartnerStore

__all__ = [
    "CorruptEntry",
    "CorruptionError",
    "Scrubber",
    "apply_scripted_flips",
]

#: Memory regions a corruption can be localized to.
CORRUPT_REGIONS = ("interior", "ghost", "mirror", "staging")


@dataclass(frozen=True)
class CorruptEntry:
    """One block-level corruption diagnosis from a scrub pass."""

    region: str  #: "interior" | "ghost" | "mirror" | "staging"
    block: Optional[Hashable] = None  #: BlockID of the damaged block
    rank: Optional[int] = None  #: owning rank (mirror: the *owner*, not holder)
    expected: Optional[int] = None  #: tagged CRC32
    actual: Optional[int] = None  #: recomputed CRC32

    def describe(self) -> str:
        where = f" of block {self.block}" if self.block is not None else ""
        rank = f" (rank {self.rank})" if self.rank is not None else ""
        crc = (
            f" [crc {self.expected:#010x} != {self.actual:#010x}]"
            if self.expected is not None and self.actual is not None
            else ""
        )
        return f"{self.region}{where}{rank}{crc}"


class CorruptionError(FaultDetected):
    """Silent data corruption detected by a scrub or payload check.

    Carries the per-block diagnosis (``entries``) so the recovery driver
    can pick the cheapest valid repair per region — and so an
    unrecoverable run aborts with an actionable message instead of a
    bare CRC mismatch.
    """

    def __init__(self, step: int, entries: List[CorruptEntry]) -> None:
        self.step = int(step)
        self.entries: Tuple[CorruptEntry, ...] = tuple(entries)
        detail = "; ".join(e.describe() for e in self.entries) or "unknown"
        super().__init__(
            f"silent data corruption detected at step {step}: {detail}"
        )

    @property
    def regions(self) -> Tuple[str, ...]:
        return tuple(e.region for e in self.entries)


class Scrubber:
    """Deterministic integrity verification over tagged blocks.

    One scrubber serves the serial driver and both machines.  Tags are
    keyed by :class:`~repro.core.block_id.BlockID`, and each remembers
    the :class:`~repro.core.block.Block` it was taken from: a block
    rebuilt under the same id (refine, coarsen, adopt, restore) is
    unverified until the next retag, and a block moved to another pool
    row (compaction, growth) keeps its tag, because its object and its
    contents move together.

    ``every`` is the scrub interval in steps; :meth:`due` gates the
    verification pass, while re-tagging at write boundaries is
    unconditional once scrubbing is on (tags must track every committed
    write or the next scrub would false-positive).
    """

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError("scrub interval must be >= 1")
        self.every = int(every)
        #: key -> (block tagged, data CRC, interior CRC)
        self._tags: Dict[Hashable, Tuple["Block", int, int]] = {}
        #: partner store whose mirrors the scrub also verifies; set by
        #: the recovery driver when the localized tier is active.
        self.partner: Optional["PartnerStore"] = None
        # Counters; mirrored into ``sdc.*`` metrics when enabled.
        self.scrubs = 0
        self.blocks_verified = 0
        self.mirrors_verified = 0
        self.mismatches = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def due(self, step: int) -> bool:
        """Whether a verification pass runs before executing ``step``."""
        return step % self.every == 0

    # ------------------------------------------------------------------
    # tagging
    # ------------------------------------------------------------------

    @staticmethod
    def _tag(block: "Block") -> Tuple["Block", int, int]:
        return (block, content_crc(block.data), content_crc(block.interior))

    def retag_block(self, key: Hashable, block: "Block") -> None:
        """Tag ``block``'s current contents as the trusted baseline."""
        self._tags[key] = self._tag(block)

    def retag_blocks(self, blocks: Mapping[Hashable, "Block"]) -> None:
        """Tag every block of ``blocks`` and forget every other tag, so a
        removed block's tag (and the view it pins) does not outlive
        the retag."""
        self._tags = {key: self._tag(block) for key, block in blocks.items()}

    def drop(self, key: Hashable) -> None:
        self._tags.pop(key, None)

    def lookup(self, key: Hashable, block: "Block") -> Optional[Tuple[int, int]]:
        """``(data_crc, interior_crc)`` tagged for ``key``, or None when
        ``key`` is untagged or its tag was taken from another block."""
        tag = self._tags.get(key)
        if tag is None or tag[0] is not block:
            return None
        return tag[1], tag[2]

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    @phase_effect("scrub")
    def verify_block(
        self, key: Hashable, block: "Block"
    ) -> Optional[CorruptEntry]:
        """Recompute one block's CRCs against its tag.

        Untagged blocks (fresh from refinement, not yet at a retag
        boundary) are skipped.  The interior CRC decides the region: a
        bad interior is live-state corruption; a good interior under a
        bad row CRC localizes the hit to the ghost halo.
        """
        tags = self.lookup(key, block)
        if tags is None:
            return None
        data_crc, interior_crc = tags
        self.blocks_verified += 1
        actual_interior = content_crc(block.interior)
        if actual_interior != interior_crc:
            return CorruptEntry(
                "interior", block=key,
                expected=interior_crc, actual=actual_interior,
            )
        actual_data = content_crc(block.data)
        if actual_data != data_crc:
            return CorruptEntry(
                "ghost", block=key, expected=data_crc, actual=actual_data,
            )
        return None

    @phase_effect("scrub")
    def scrub_blocks(
        self,
        blocks: Mapping[Hashable, "Block"],
        *,
        rank_of: Optional[Mapping[Hashable, int]] = None,
        partner: Optional["PartnerStore"] = None,
    ) -> List[CorruptEntry]:
        """One verification pass; returns every mismatch found.

        Mismatched blocks are re-baselined immediately (see module
        docstring) so each corruption is reported exactly once; the
        caller decides whether the entries are raised, repaired, or
        escalated.  When a ``partner`` store is given its mirror copies
        are verified too — a corrupt mirror must be found *before* it is
        ever considered as a repair source.
        """
        self.scrubs += 1
        verified_before = self.blocks_verified
        entries: List[CorruptEntry] = []
        for key, block in blocks.items():
            entry = self.verify_block(key, block)
            if entry is not None:
                if rank_of is not None:
                    entry = CorruptEntry(
                        entry.region, block=entry.block,
                        rank=rank_of.get(key),
                        expected=entry.expected, actual=entry.actual,
                    )
                entries.append(entry)
                self.retag_block(key, block)
        if partner is not None:
            for owner, bid, expected, actual in partner.verify_copies():
                self.mirrors_verified += 1
                if expected != actual:
                    entries.append(
                        CorruptEntry(
                            "mirror", block=bid, rank=owner,
                            expected=expected, actual=actual,
                        )
                    )
        self.mismatches += len(entries)
        if METRICS.enabled:
            METRICS.inc("sdc.scrubs")
            METRICS.inc(
                "sdc.blocks_verified", self.blocks_verified - verified_before
            )
            if entries:
                METRICS.inc("sdc.mismatches", len(entries))
        return entries

    def __repr__(self) -> str:
        return (
            f"Scrubber(every={self.every}, scrubs={self.scrubs}, "
            f"verified={self.blocks_verified}, mismatches={self.mismatches})"
        )


def _ghost_slab(block: "Block") -> np.ndarray:
    """The innermost low-side ghost layer along axis 0.

    Chosen as the injection site for ``ghost`` flips because every
    block's face-adjacent ghost layer is rewritten by the next exchange
    (neighbor message or physical BC) — the property that makes ghost
    corruption repairable at zero cost.  Corner ghost cells are
    excluded; only the face slab over the interior extent of the other
    axes is targeted.
    """
    g = block.n_ghost
    sl = (slice(None), slice(g - 1, g)) + tuple(
        slice(g, g + m) for m in block.m[1:]
    )
    return block.data[sl]


def apply_scripted_flips(
    flips: List[BitFlip],
    blocks: Mapping[Hashable, "Block"],
    partner: Optional["PartnerStore"] = None,
) -> List[BitFlip]:
    """Apply scripted bitflips to live state; return the staging flips.

    ``interior``/``ghost`` flips index the blocks in the mapping's
    (deterministic, SFC-sorted) order; ``mirror`` flips index the
    partner store's copies and are skipped when no partner tier is
    active.  ``staging`` flips hit in-flight exchange buffers, which do
    not exist yet at the step boundary — they are returned for the
    machine to fire mid-exchange.
    """
    staged: List[BitFlip] = []
    ordered = list(blocks.values())
    for f in flips:
        if f.target == "staging":
            staged.append(f)
        elif f.target == "mirror":
            if partner is None:
                continue
            keys = partner.mirror_keys()
            if not keys:
                continue
            owner, bid = keys[f.block % len(keys)]
            view = partner.copy_view(owner, bid)
            if view is not None:
                apply_bitflip(view, f.byte, f.bit)
        elif ordered:
            block = ordered[f.block % len(ordered)]
            target = block.interior if f.target == "interior" else _ghost_slab(block)
            apply_bitflip(target, f.byte, f.bit)
    return staged
