"""Ghost-poison sanitizer: prove every consumed ghost cell was filled.

The adaptive-block contract is that a stencil kernel may read its
block's ghost layers only *after* an exchange (plus physical BC) has
filled them.  A violation — an unfilled boundary slab, a forgotten
corner region, an exchange skipped after adaptation — does not crash:
it silently feeds stale or garbage values into the flux computation.
This module makes that class of bug loud.

Mechanism (the classic shadow-memory trick, specialized to block AMR):

1. every ghost cell is filled with a **poison** value — a signaling
   NaN whose 64-bit pattern (:data:`POISON_BITS`) cannot occur in real
   data — at allocation, after every adapt, and immediately before
   every exchange;
2. after the exchange + boundary conditions, the exact region the
   finite-volume kernels read (the face slabs ``depth`` layers deep,
   transverse-interior extent — corner/edge ghosts are never consumed
   by the dimension-wise stencils) is verified poison-free;
3. after each kernel stage, interiors are verified NaN-free, catching
   poison that leaked through any unanticipated read path.

Verification is bit-exact: a cell is poisoned iff its bits equal
:data:`POISON_BITS`, so legitimate NaNs produced by the physics are
attributed to step 3 (contamination), never step 2 (unfilled ghosts).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ContextManager, Iterable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.block import Block
    from repro.core.block_id import IndexBox

__all__ = [
    "POISON_BITS",
    "PoisonError",
    "PoisonSite",
    "GhostSanitizer",
    "poison_value",
    "poisoned_mask",
    "poison_ghosts",
    "poison_forest",
    "check_stencil_ghosts",
    "check_exchange_reads",
    "check_interior_clean",
    "quiet_poison",
]

#: Bit pattern of the poison value: sign 0, exponent all-ones, quiet bit
#: clear, non-zero payload — a *signaling* NaN.  The payload spells the
#: sanitizer out in hex so a stray poisoned value is recognizable in a
#: debugger even after it was copied around.
POISON_BITS = np.uint64(0x7FF4_DEAD_BEEF_0BAD)


def poison_value() -> float:
    """The poison as a float64 scalar (a signaling NaN)."""
    return float(np.uint64(POISON_BITS).view(np.float64))


def poisoned_mask(arr: np.ndarray) -> np.ndarray:
    """Boolean mask of cells holding the exact poison bit pattern.

    Bit-exact on purpose: arithmetic involving a poisoned value
    produces an ordinary quiet NaN, which this mask does *not* match —
    distinguishing "this cell was never filled" from "a computation
    downstream went bad".
    """
    if arr.dtype != np.float64:
        return np.zeros(arr.shape, dtype=bool)
    # ``view`` needs a contiguous buffer; sliced views of a padded
    # block array generally are not, so go through a copy.
    bits = np.ascontiguousarray(arr).view(np.uint64)
    return (bits == POISON_BITS).reshape(arr.shape)


@dataclass(frozen=True)
class PoisonSite:
    """One region in which poisoned values were found."""

    block: object  #: offending BlockID
    where: str  #: "ghost" (unfilled ghost read region) or "interior"
    face: Optional[int]  #: face index of the offending slab (ghost only)
    n_cells: int  #: poisoned (ghost) or non-finite (interior) cell count
    variables: Tuple[int, ...]  #: state-variable indices affected

    def __str__(self) -> str:
        at = f" face {self.face}" if self.face is not None else ""
        return (
            f"[{self.where}]{at} of {self.block}: {self.n_cells} cell(s), "
            f"variable(s) {list(self.variables)}"
        )


class PoisonError(RuntimeError):
    """A poisoned (never-filled) ghost value was about to be consumed,
    or non-finite data leaked into block interiors."""

    def __init__(self, context: str, sites: List[PoisonSite]) -> None:
        self.context = context
        self.sites = list(sites)
        lines = "\n".join(f"  - {s}" for s in self.sites)
        super().__init__(
            f"ghost sanitizer: {context}: {len(self.sites)} site(s)\n{lines}"
        )


def _ghost_mask(block: "Block") -> np.ndarray:
    """Boolean mask (spatial shape) selecting the ghost cells."""
    mask = np.ones(block.padded_shape, dtype=bool)
    mask[block.interior_slices] = False
    return mask


def quiet_poison(active: bool) -> ContextManager[Any]:
    """``np.errstate(invalid="ignore")`` while ``active`` (a run under the
    sanitizer), else a no-op.

    The exchange fills only the ghost cells something reads, so the
    unread edge and corner ghosts keep the poison through a step.
    Whole-tile conversions (``cons_to_prim``) and boundary slabs compute
    on it and discard the result — :meth:`GhostSanitizer.after_stage`
    proves none reaches an interior — and numpy would warn about each.
    """
    return np.errstate(invalid="ignore") if active else contextlib.nullcontext()


def poison_ghosts(block: "Block") -> int:
    """Fill every ghost cell of one block with poison; return the count."""
    mask = _ghost_mask(block)
    block.data[:, mask] = poison_value()
    return int(mask.sum()) * block.nvar


def poison_forest(blocks: Iterable["Block"]) -> int:
    """Poison the ghost layers of every block in an iterable (a
    :class:`~repro.core.forest.BlockForest` iterates its blocks, and the
    emulator passes each rank's private blocks)."""
    total = 0
    for block in blocks:
        total += poison_ghosts(block)
    return total


def _face_read_slices(
    block: "Block", face: int, depth: int
) -> Tuple[slice, ...]:
    """Padded-array slices of the ghost slab a stencil reads across
    ``face``: ``depth`` layers deep, interior extent transversally
    (corner/edge ghosts are never consumed by the dimension-wise
    kernels — see :meth:`repro.solvers.scheme.FVScheme.flux_divergence`)."""
    g = block.n_ghost
    axis, side = divmod(face, 2)
    sl = list(block.interior_slices)
    if side == 0:
        sl[axis] = slice(g - depth, g)
    else:
        sl[axis] = slice(g + block.m[axis], g + block.m[axis] + depth)
    return tuple(sl)


def check_stencil_ghosts(
    blocks: Iterable["Block"], depth: Optional[int] = None
) -> List[PoisonSite]:
    """Find poisoned cells in the ghost regions stencil kernels read.

    ``depth`` is the stencil's ghost reach per side (default: each
    block's full ghost width).  Returns one :class:`PoisonSite` per
    (block, face) slab containing poison; an empty list means every
    ghost value the next kernel invocation can consume was filled by
    the exchange / boundary conditions.
    """
    sites: List[PoisonSite] = []
    for block in blocks:
        d = block.n_ghost if depth is None else min(depth, block.n_ghost)
        for face in range(2 * block.ndim):
            region = block.data[(slice(None),) + _face_read_slices(block, face, d)]
            mask = poisoned_mask(region)
            if mask.any():
                sites.append(_poison_site(block, face, mask))
    return sites


def _poison_site(
    block: "Block", face: Optional[int], mask: np.ndarray
) -> PoisonSite:
    """The site record of a non-empty poison mask ``(nvar, *cells)``."""
    return PoisonSite(
        block=block.id,
        where="ghost",
        face=face,
        n_cells=int(mask.any(axis=0).sum()),
        variables=tuple(
            int(v)
            for v in np.nonzero(mask.any(axis=tuple(range(1, mask.ndim))))[0]
        ),
    )


def check_exchange_reads(
    reads: Iterable[Tuple["Block", "IndexBox"]]
) -> List[PoisonSite]:
    """Find poisoned cells in regions an exchange itself read.

    A prolongation's slope border lies in the *source* block's ghost
    layer.  Poison there does not survive as poison (the limiter turns
    a NaN difference into a zero slope), so the destination would hold
    a finite, wrong number; checking the read regions instead makes an
    exchange that skipped a transfer it depended on loud.
    """
    sites: List[PoisonSite] = []
    for block, box in reads:
        mask = poisoned_mask(block.view(box))
        if mask.any():
            sites.append(_poison_site(block, None, mask))
    return sites


def check_interior_clean(blocks: Iterable["Block"]) -> List[PoisonSite]:
    """Find blocks whose *interior* holds non-finite values.

    Any poison consumed by a kernel propagates as NaN into the updated
    interior, so this is the sanitizer's backstop after each stage (it
    also catches genuine physics blow-ups, reported as contamination).
    """
    sites: List[PoisonSite] = []
    for block in blocks:
        interior = block.interior
        bad = ~np.isfinite(interior)
        if bad.any():
            bad_vars = tuple(
                int(v) for v in np.nonzero(bad.any(axis=tuple(range(1, bad.ndim))))[0]
            )
            sites.append(
                PoisonSite(
                    block=block.id,
                    where="interior",
                    face=None,
                    n_cells=int(bad.any(axis=0).sum()),
                    variables=bad_vars,
                )
            )
    return sites


class GhostSanitizer:
    """Driver-facing sanitizer state machine.

    The serial driver (and the emulated machine) call three hooks:

    * :meth:`before_exchange` — re-poison every ghost layer, so the
      exchange must prove it fills everything the kernels need;
    * :meth:`after_exchange` — verify the stencil read regions (and the
      ghost cells the exchange itself read) are poison-free and raise
      :class:`PoisonError` otherwise;
    * :meth:`after_stage` — verify no NaN leaked into the interiors.

    ``depth`` bounds the verified slab to what the attached scheme
    actually reads (``scheme.required_ghost``); ``None`` checks the
    full ghost width.
    """

    def __init__(self, depth: Optional[int] = None) -> None:
        self.depth = depth
        #: exchanges verified and ghost cells poisoned (diagnostics)
        self.n_exchanges_checked = 0
        self.n_cells_poisoned = 0

    def before_exchange(self, blocks: Iterable["Block"]) -> None:
        self.n_cells_poisoned += poison_forest(blocks)

    def after_exchange(
        self,
        blocks: Iterable["Block"],
        reads: Sequence[Tuple["Block", "IndexBox"]] = (),
    ) -> None:
        """Verify the stencil read slabs of ``blocks`` (the blocks the
        exchange filled) and the ``reads`` the exchange made of ghost
        cells on the way (see :func:`check_exchange_reads`)."""
        sites = check_stencil_ghosts(blocks, self.depth)
        sites += check_exchange_reads(reads)
        self.n_exchanges_checked += 1
        if sites:
            raise PoisonError(
                "unfilled ghost cells in a stencil read region after an "
                "exchange (exchange or boundary conditions left them stale)",
                sites,
            )

    def after_stage(self, blocks: Iterable["Block"]) -> None:
        sites = check_interior_clean(blocks)
        if sites:
            raise PoisonError(
                "non-finite values in block interiors after a kernel stage "
                "(poison or NaN was consumed by the update)",
                sites,
            )
