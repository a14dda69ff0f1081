"""The block forest: the paper's adaptive block decomposition.

A :class:`BlockForest` partitions a rectangular domain into
non-overlapping adaptive blocks (only *leaves* exist — unlike a
cell-based tree there are no interior nodes, so no region is represented
twice).  It supports:

* refinement — replace a block with its ``2^d`` children, each again an
  ``m1 × ... × md`` cell array with cell extents halved per axis;
* coarsening — the exact reverse;
* the paper's *refinement-level constraint*: adjacent blocks differ by
  at most ``max_level_jump`` levels (default 1), enforced by cascading
  refinement across the grid;
* explicit per-face neighbor pointers, recomputed after every topology
  change so neighbor location is a direct lookup (no tree traversal);
* periodic or physical domain boundaries per axis.

The forest is deterministic: iteration follows the Morton space-filling
curve, and all adaptation decisions are order-independent.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.arena import BlockArena
from repro.core.block import Block, FaceNeighbors, NeighborKind
from repro.core.block_id import BlockID, IndexBox
from repro.core.prolong import prolong_inject, prolong_linear
from repro.core.restrict import restrict_mean
from repro.util.geometry import (
    Box,
    child_offsets,
    face_axis,
    face_side,
    iter_faces,
    opposite_face,
)

__all__ = ["BlockForest", "AdaptSummary", "ForestError"]


class ForestError(RuntimeError):
    """Raised when the forest is found in an inconsistent state."""


@dataclass
class AdaptSummary:
    """What one :meth:`BlockForest.adapt` call did."""

    refined: int = 0
    coarsened: int = 0
    cascaded: int = 0          #: extra refinements forced by the level constraint
    coarsen_vetoed: int = 0    #: coarsen flags dropped to preserve the constraint

    @property
    def changed(self) -> bool:
        return self.refined > 0 or self.coarsened > 0


class BlockForest:
    """Dynamic adaptive-block decomposition of a rectangular domain.

    Parameters
    ----------
    domain:
        Physical bounding box of the whole computational region.
    n_root:
        Number of root (level-0) blocks per axis.  Need not be equal per
        axis — this is the paper's "initial block configuration need not
        be Cartesian [unit cube]" generalization in its rectangular form.
    m:
        Cells per block per axis (even, ``>= 2 * n_ghost``).
    nvar:
        Number of state variables stored per cell.
    n_ghost:
        Ghost layers around each block (1 for first-order operators,
        2 for higher-resolution schemes).
    periodic:
        Per-axis periodicity flags (default: all False).
    max_level:
        Maximum refinement level (roots are level 0).
    max_level_jump:
        Maximum refinement-level difference across a shared face
        (default 1 — the paper's standard constraint; larger values are
        the paper's "loosened constraint" generalization).
    prolong_order:
        1 = piecewise-constant injection, 2 = limited linear (default).
    """

    def __init__(
        self,
        domain: Box,
        n_root: Sequence[int],
        m: Sequence[int],
        nvar: int,
        *,
        n_ghost: int = 2,
        periodic: Optional[Sequence[bool]] = None,
        max_level: int = 10,
        max_level_jump: int = 1,
        prolong_order: int = 2,
    ) -> None:
        self.domain = domain
        self.ndim = domain.ndim
        self.n_root = tuple(int(n) for n in n_root)
        self.m = tuple(int(mi) for mi in m)
        self.nvar = int(nvar)
        self.n_ghost = int(n_ghost)
        self.max_level = int(max_level)
        self.max_level_jump = int(max_level_jump)
        self.prolong_order = int(prolong_order)
        if len(self.n_root) != self.ndim or len(self.m) != self.ndim:
            raise ValueError("n_root / m dimension mismatch with domain")
        if any(n < 1 for n in self.n_root):
            raise ValueError(f"n_root must be >= 1 per axis, got {self.n_root}")
        if self.max_level_jump < 1:
            raise ValueError("max_level_jump must be >= 1")
        if self.prolong_order not in (1, 2):
            raise ValueError("prolong_order must be 1 or 2")
        self.periodic = (
            tuple(bool(p) for p in periodic)
            if periodic is not None
            else (False,) * self.ndim
        )
        if len(self.periodic) != self.ndim:
            raise ValueError("periodic dimension mismatch")

        self.blocks: Dict[BlockID, Block] = {}
        #: total refinements/coarsenings performed (for adaptation-cost stats)
        self.n_refinements = 0
        self.n_coarsenings = 0
        #: topology revision: bumped on every refine/coarsen; consumers
        #: (ghost-exchange plans, partitions) key their caches on it.
        self.revision = 0
        self._sorted_cache: Optional[List[BlockID]] = None
        #: ghost-exchange geometry computed once per block-pair key
        #: (:mod:`repro.core.ghost`); it holds no views, so it outlives
        #: every topology revision and arena layout epoch
        self._ghost_templates: Dict[Any, Any] = {}
        #: pooled storage: every block's padded array is a row of one
        #: contiguous pool; all allocation/release routes through it.
        n_roots = 1
        for n in self.n_root:
            n_roots *= n
        self.arena = BlockArena(
            self.m, self.n_ghost, self.nvar, initial_capacity=n_roots
        )

        for coords in IndexBox((0,) * self.ndim, self.n_root).iter_cells():
            bid = BlockID(0, coords)
            self.blocks[bid] = self._make_block(bid)
        self.update_neighbors()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _make_block(self, bid: BlockID, data: Optional[np.ndarray] = None) -> Block:
        row = self.arena.acquire()
        blk = Block(
            id=bid,
            box=self.block_box(bid),
            m=self.m,
            n_ghost=self.n_ghost,
            nvar=self.nvar,
            data=self.arena.view(row),
        )
        self.arena.bind(row, blk)
        if data is not None:
            blk.data[...] = data
        return blk

    def __deepcopy__(self, memo: Dict[int, Any]) -> "BlockForest":
        """Deep copy with arena views kept consistent.

        ``copy.deepcopy`` of an ndarray *view* yields an independent
        array, which would detach every block's ``data`` from the copied
        pool.  Re-bind them to their rows (the pool itself is copied with
        identical contents) and drop cached ghost plans, which hold raw
        views into the original pool.  The ghost templates hold none and
        depend only on what the copy keeps (``m``, ``n_ghost``, ``nvar``,
        ``prolong_order``), so the copy shares them.
        """
        cls = self.__class__
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        state = dict(self.__dict__)
        state.pop("_ghost_plan", None)
        state.pop("_ghost_plan_key", None)
        templates = state.pop("_ghost_templates")
        clone.__dict__.update(copy.deepcopy(state, memo))
        clone._ghost_templates = templates
        for blk in clone.blocks.values():
            if blk.arena_row is not None:
                blk.data = clone.arena.pool[blk.arena_row]
        return clone

    def block_box(self, bid: BlockID) -> Box:
        """Physical bounding box of a block's computational region."""
        widths = self.domain.widths
        lo = []
        hi = []
        for axis in range(self.ndim):
            n_level = self.n_root[axis] << bid.level
            w = widths[axis] / n_level
            lo.append(self.domain.lo[axis] + bid.coords[axis] * w)
            hi.append(self.domain.lo[axis] + (bid.coords[axis] + 1) * w)
        return Box(tuple(lo), tuple(hi))

    def level_extent(self, level: int) -> Tuple[int, ...]:
        """Blocks per axis at the given level."""
        return tuple(n << level for n in self.n_root)

    def level_cell_extent(self, level: int) -> Tuple[int, ...]:
        """Global cells per axis at the given level."""
        return tuple((n << level) * mi for n, mi in zip(self.n_root, self.m))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_cells(self) -> int:
        """Total computational (non-ghost) cells."""
        per_block = 1
        for mi in self.m:
            per_block *= mi
        return per_block * self.n_blocks

    @property
    def levels(self) -> Tuple[int, int]:
        """(min, max) refinement level among current blocks."""
        ls = [bid.level for bid in self.blocks]
        return (min(ls), max(ls))

    def sorted_ids(self) -> List[BlockID]:
        """Block IDs in deterministic Morton (SFC) order."""
        if self._sorted_cache is None:
            self._sorted_cache = sorted(
                self.blocks, key=lambda b: (b.morton_key(), b.level)
            )
        return self._sorted_cache

    def __iter__(self) -> Iterator[Block]:
        for bid in self.sorted_ids():
            yield self.blocks[bid]

    def __len__(self) -> int:
        return len(self.blocks)

    def __contains__(self, bid: BlockID) -> bool:
        return bid in self.blocks

    def block_at(self, point: Sequence[float]) -> Block:
        """The leaf block containing a physical point (O(max_level))."""
        if not self.domain.contains(point):
            raise ValueError(f"point {point} outside domain")
        for level in range(self.max_level + 1):
            coords = []
            for axis in range(self.ndim):
                n_level = self.n_root[axis] << level
                w = self.domain.widths[axis] / n_level
                c = int((point[axis] - self.domain.lo[axis]) / w)
                coords.append(min(c, n_level - 1))
            bid = BlockID(level, tuple(coords))
            if bid in self.blocks:
                return self.blocks[bid]
        raise ForestError(f"no leaf block contains {point}")

    def _invalidate(self) -> None:
        self.revision += 1
        self._sorted_cache = None

    # ------------------------------------------------------------------
    # neighbor pointers (the paper's explicit connectivity)
    # ------------------------------------------------------------------

    def _wrap_coord(self, level: int, axis: int, c: int) -> Tuple[Optional[int], int]:
        """Wrap a block coordinate; returns (coord, wrap_sign) or (None, 0)
        when the coordinate leaves a non-periodic domain.

        ``wrap_sign`` is +1 when the neighbor was reached by wrapping off
        the low edge (so converting indices into the neighbor frame adds
        one domain extent) and -1 for the high edge.
        """
        extent = self.n_root[axis] << level
        if 0 <= c < extent:
            return c, 0
        if not self.periodic[axis]:
            return None, 0
        if c < 0:
            return c + extent, +1
        return c - extent, -1

    def find_face_neighbors(self, bid: BlockID, face: int) -> FaceNeighbors:
        """Compute the neighbor pointer set across one face of a leaf."""
        axis, side = face_axis(face), face_side(face)
        c = bid.coords[axis] + (1 if side else -1)
        c_wrapped, wrap = self._wrap_coord(bid.level, axis, c)
        if c_wrapped is None:
            return FaceNeighbors(NeighborKind.BOUNDARY, (), (0,) * self.ndim)
        shift = tuple(wrap if a == axis else 0 for a in range(self.ndim))
        coords = bid.coords[:axis] + (c_wrapped,) + bid.coords[axis + 1 :]
        cand = BlockID(bid.level, coords)
        if cand in self.blocks:
            return FaceNeighbors(NeighborKind.SAME, (cand,), shift)
        # Coarser: some ancestor of the candidate is a leaf.
        anc = cand
        while anc.level > 0:
            anc = anc.parent
            if anc in self.blocks:
                return FaceNeighbors(NeighborKind.COARSER, (anc,), shift)
        # Finer: the candidate's descendants touching my face are leaves.
        ids = self._descendant_leaves_on_face(cand, opposite_face(face))
        if ids:
            return FaceNeighbors(NeighborKind.FINER, tuple(sorted(ids)), shift)
        raise ForestError(
            f"no leaf found across face {face} of {bid}; forest inconsistent"
        )

    def _descendant_leaves_on_face(self, bid: BlockID, face: int) -> List[BlockID]:
        """Leaves strictly below ``bid`` whose ``face`` lies on bid's face."""
        axis, side = face_axis(face), face_side(face)
        result: List[BlockID] = []
        stack = [bid]
        while stack:
            cur = stack.pop()
            if cur.level > self.max_level:
                continue
            for child in cur.children():
                if (child.coords[axis] & 1) != side:
                    continue
                if child in self.blocks:
                    result.append(child)
                else:
                    stack.append(child)
        return result

    def update_neighbors(self, only: Optional[Iterable[BlockID]] = None) -> None:
        """Recompute explicit neighbor pointers.

        With ``only`` given, just those leaves are refreshed — the
        incremental path :meth:`adapt` uses, since a topology change only
        invalidates pointers of blocks adjacent to the changed region
        (the paper's neighbor lists are likewise maintained locally, not
        rebuilt globally).
        """
        targets = (
            self.blocks.keys()
            if only is None
            else [b for b in only if b in self.blocks]
        )
        for bid in targets:
            self.blocks[bid].face_neighbors = {
                face: self.find_face_neighbors(bid, face)
                for face in iter_faces(self.ndim)
            }

    def neighbor_leaf_levels(self, bid: BlockID) -> List[int]:
        """Levels of every leaf sharing a face with ``bid`` (uses pointers)."""
        block = self.blocks[bid]
        levels: List[int] = []
        for fn in block.face_neighbors.values():
            levels.extend(n.level for n in fn.ids)
        return levels

    def check_balance(self) -> None:
        """Validate the level-jump constraint; raise ForestError on failure."""
        for bid in self.blocks:
            for lvl in self.neighbor_leaf_levels(bid):
                if abs(lvl - bid.level) > self.max_level_jump:
                    raise ForestError(
                        f"balance violated: {bid} (level {bid.level}) has a "
                        f"face neighbor at level {lvl} with max jump "
                        f"{self.max_level_jump}"
                    )

    def check_coverage(self) -> None:
        """Validate that leaves tile the domain exactly once (by volume)."""
        total = sum(self.blocks[bid].box.volume for bid in self.blocks)
        if not np.isclose(total, self.domain.volume, rtol=1e-10):
            raise ForestError(
                f"coverage violated: leaf volume {total} != domain volume "
                f"{self.domain.volume}"
            )

    def check_no_overlap(self) -> None:
        """Validate that no leaf is a descendant of another leaf (every
        region represented exactly once); raise ForestError on failure.

        Complements :meth:`check_coverage`: correct total volume can
        hide an overlap paired with a hole — together the two checks pin
        down an exact tiling.
        """
        for bid in self.blocks:
            anc = bid
            while anc.level > 0:
                anc = anc.parent
                if anc in self.blocks:
                    raise ForestError(
                        f"overlap violated: leaf {bid} and its ancestor "
                        f"{anc} are both present"
                    )

    # ------------------------------------------------------------------
    # refinement / coarsening
    # ------------------------------------------------------------------

    def refine(self, bid: BlockID, *, update: bool = True) -> Tuple[BlockID, ...]:
        """Replace a leaf with its 2^d children; prolong its data.

        With ``update=False`` the neighbor-pointer rebuild is skipped so
        batch operations (``adapt``) can do it once at the end.
        """
        if bid not in self.blocks:
            raise KeyError(f"{bid} is not a leaf")
        if bid.level >= self.max_level:
            raise ForestError(f"cannot refine {bid}: already at max level")
        parent = self.blocks.pop(bid)
        self._invalidate()
        children = bid.children()

        # Prolong the parent interior (with one-cell ghost border for
        # slopes) to a double-resolution array, then hand each child its
        # quadrant/octant.
        g = self.n_ghost
        border = tuple(slice(g - 1, g + mi + 1) for mi in self.m)
        bordered = parent.data[(slice(None),) + border]
        if self.prolong_order == 2:
            fine = prolong_linear(bordered, self.ndim)
        else:
            inner = (slice(None),) + tuple(slice(1, -1) for _ in self.m)
            fine = prolong_inject(bordered[inner], self.ndim)
        # ``fine`` is a fresh array, so the parent's pool row can be
        # recycled before the children are allocated into it.
        self.arena.release(parent)

        for child, off in zip(children, child_offsets(self.ndim)):
            blk = self._make_block(child)
            src = tuple(
                slice(o * mi, o * mi + mi) for o, mi in zip(off, self.m)
            )
            blk.interior[...] = fine[(slice(None),) + src]
            self.blocks[child] = blk
        self.n_refinements += 1
        if update:
            self.update_neighbors()
        return children

    def coarsen(self, parent_id: BlockID, *, update: bool = True) -> BlockID:
        """Replace 2^d sibling leaves by their parent; restrict their data."""
        children = parent_id.children()
        for child in children:
            if child not in self.blocks:
                raise KeyError(
                    f"cannot coarsen {parent_id}: child {child} is not a leaf"
                )
        blk = self._make_block(parent_id)
        for child, off in zip(children, child_offsets(self.ndim)):
            child_blk = self.blocks.pop(child)
            dst = tuple(
                slice(o * mi // 2, o * mi // 2 + mi // 2)
                for o, mi in zip(off, self.m)
            )
            blk.interior[(slice(None),) + dst] = restrict_mean(
                child_blk.interior, self.ndim
            )
            self.arena.release(child_blk)
        self._invalidate()
        self.blocks[parent_id] = blk
        self.n_coarsenings += 1
        if update:
            self.update_neighbors()
        return parent_id

    # ------------------------------------------------------------------
    # flag-driven adaptation with constraint enforcement
    # ------------------------------------------------------------------

    def adapt(
        self,
        refine_flags: Iterable[BlockID],
        coarsen_flags: Iterable[BlockID] = (),
    ) -> AdaptSummary:
        """Apply refinement/coarsening flags while preserving invariants.

        Refinement flags may *cascade*: refining a block can force the
        refinement of coarser neighbors to keep the level-jump constraint
        — the effect the paper describes as "refinement can potentially
        cascade across the grid".  Coarsening is vetoed when it would
        break the constraint, when not all 2^d siblings are flagged, or
        when the block is also flagged for refinement.
        """
        summary = AdaptSummary()
        refine_set: Set[BlockID] = {
            b for b in refine_flags if b in self.blocks and b.level < self.max_level
        }
        coarsen_set: Set[BlockID] = {
            b
            for b in coarsen_flags
            if b in self.blocks and b.level > 0 and b not in refine_set
        }
        requested = set(refine_set)

        # --- cascade refinement to a fixpoint -------------------------
        # planned level of each current leaf after the refines.
        def planned_level(bid: BlockID) -> int:
            return bid.level + 1 if bid in refine_set else bid.level

        changed = True
        while changed:
            changed = False
            for bid in list(refine_set):
                for fn in self.blocks[bid].face_neighbors.values():
                    for nid in fn.ids:
                        if planned_level(nid) < bid.level + 1 - self.max_level_jump:
                            if (
                                nid in self.blocks
                                and nid.level < self.max_level
                                and nid not in refine_set
                            ):
                                refine_set.add(nid)
                                coarsen_set.discard(nid)
                                changed = True

        summary.cascaded = len(refine_set - requested)

        # --- veto invalid coarsening -----------------------------------
        valid_parents: Set[BlockID] = set()
        seen_parents: Set[BlockID] = set()
        vetoed = 0
        for bid in coarsen_set:
            parent = bid.parent
            if parent in seen_parents:
                continue
            seen_parents.add(parent)
            siblings = parent.children()
            if not all(s in coarsen_set for s in siblings):
                vetoed += 1
                continue
            # After merging, the parent (level L-1) must not face a leaf
            # finer than L-1+max_jump.  Check planned neighbor levels of
            # every sibling (excluding the siblings themselves).
            sib_set = set(siblings)
            ok = True
            for s in siblings:
                for fn in self.blocks[s].face_neighbors.values():
                    for nid in fn.ids:
                        if nid in sib_set:
                            continue
                        if planned_level(nid) > parent.level + self.max_level_jump:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                valid_parents.add(parent)
            else:
                vetoed += 1
        summary.coarsen_vetoed = vetoed

        # --- apply (deterministic order) -------------------------------
        # Collect the dirty region before mutating: every leaf adjacent
        # to a changed block needs its pointers refreshed, and so do the
        # created blocks themselves.  Nothing farther away can change.
        affected: Set[BlockID] = set()
        for parent in valid_parents:
            for child in parent.children():
                affected.add(parent)
                for fn in self.blocks[child].face_neighbors.values():
                    affected.update(fn.ids)
        for bid in refine_set:
            affected.update(bid.children())
            for fn in self.blocks[bid].face_neighbors.values():
                affected.update(fn.ids)
        for parent in sorted(valid_parents, key=lambda b: (b.morton_key(), b.level)):
            self.coarsen(parent, update=False)
            summary.coarsened += 1
        for bid in sorted(refine_set, key=lambda b: (b.morton_key(), b.level)):
            self.refine(bid, update=False)
            summary.refined += 1
        if summary.changed:
            self.update_neighbors(only=affected)
        return summary

    def refine_uniformly(self, times: int = 1) -> None:
        """Refine every block ``times`` times (uniform grid at level+times)."""
        for _ in range(times):
            self.adapt(list(self.blocks))

    def refine_where(
        self, predicate: Callable[[Block], bool], max_rounds: int = 64
    ) -> int:
        """Repeatedly refine blocks satisfying ``predicate`` until stable.

        Returns the number of adaptation rounds performed.  Useful to set
        up statically refined initial grids (e.g. refine near a body).
        """
        rounds = 0
        for _ in range(max_rounds):
            flags = [blk.id for blk in self if predicate(blk)]
            if not flags:
                break
            summary = self.adapt(flags)
            rounds += 1
            if not summary.changed:
                break
        return rounds

    # ------------------------------------------------------------------
    # statistics used by the benchmark tables
    # ------------------------------------------------------------------

    def neighbor_count_stats(self) -> Dict[str, float]:
        """Distribution of per-face neighbor counts (T-B benchmark)."""
        counts: List[int] = []
        for block in self.blocks.values():
            for fn in block.face_neighbors.values():
                if fn.kind != NeighborKind.BOUNDARY:
                    counts.append(len(fn.ids))
        if not counts:
            return {"max": 0.0, "mean": 0.0, "total_pointers": 0.0}
        return {
            "max": float(max(counts)),
            "mean": float(np.mean(counts)),
            "total_pointers": float(sum(counts)),
        }

    def ghost_cell_ratio(self) -> float:
        """Total ghost cells / total computational cells across the forest."""
        ghost = sum(b.n_ghost_cells for b in self.blocks.values())
        real = sum(b.n_cells for b in self.blocks.values())
        return ghost / real if real else 0.0

    def level_histogram(self) -> Dict[int, int]:
        """Number of blocks per refinement level."""
        hist: Dict[int, int] = {}
        for bid in self.blocks:
            hist[bid.level] = hist.get(bid.level, 0) + 1
        return dict(sorted(hist.items()))
