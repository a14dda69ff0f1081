"""Ghost-cell exchange between adaptive blocks.

Each block carries ``n_ghost`` layers of ghost cells holding copies of
neighboring blocks' data so that stencil kernels can run over the whole
interior without any neighbor indirection — the paper's key performance
mechanism.  Three transfer kinds occur:

* **copy** — the neighbor is at the same level: direct slab copy;
* **prolongation** — the neighbor is coarser: its cells are interpolated
  (injection or limited linear) onto my finer ghost cells;
* **restriction** — the neighbors are finer: their cells are
  volume-averaged onto my coarser ghost cells.

Ghost regions are organized by *offset vector*: each of the ``3^d - 1``
directions around a block (its faces, edges and corners) is an
independent region whose owner leaves are located through the same
integer arithmetic that backs the forest's explicit face pointers — this
is the paper's generalized connectivity ("the neighbor pointers can be
extended to include blocks sharing low dimensional boundaries").

The exchange runs in two stages so prolongation can use valid slope
borders:

1. same-level copies and fine→coarse restrictions (read interiors only);
2. coarse→fine prolongations (slope borders may read the source's own
   ghost cells, valid after stage 1).

Restriction uses volume-weighted accumulation across all fine owners of
a region, so ghost cells straddling several fine blocks — or blocks at
different levels, which occur across edges/corners even under 2:1 face
balance — are filled exactly.

All of that geometry is worked out once per topology and row layout
and compiled into a :class:`GhostPlan` of array views, slices and
weights; a fill only executes it.  A caller that reads the ghosts of
some blocks only names them (``dest=``) and gets the part of the plan
that fills those, dependencies included (:func:`ghost_plan`).

The same geometry is exposed as :class:`Transfer` records
(:func:`exchange_regions`, :func:`iter_transfers`) so the simulated
parallel machines can account messages (:func:`payload_values`) without
touching any arrays.  There is one executor, made of stage functions:
:func:`run_copies`, :func:`run_restrictions` and :func:`run_boundaries`
for stage 1, then :func:`gather_prolong` for every prolongation before
:func:`write_prolongs` writes any.  :func:`fill_ghosts` calls them in
that order on the forest's plan; the ranks of the emulated and of the
process machine call them one per barrier phase on the part of the plan
they own — the same code whether a neighbour is local or remote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.block import Block, NeighborKind
from repro.core.block_id import BlockID, IndexBox
from repro.core.forest import BlockForest, ForestError
from repro.core.prolong import prolong_inject, prolong_linear
from repro.obs.metrics import METRICS

__all__ = [
    "Transfer",
    "Region",
    "FillCounts",
    "GhostPlan",
    "fill_ghosts",
    "ghost_plan",
    "compile_plan",
    "exchange_regions",
    "iter_transfers",
    "payload_values",
    "run_copies",
    "run_restrictions",
    "run_boundaries",
    "gather_prolong",
    "write_prolongs",
    "region_owners",
    "all_offsets",
    "BoundaryHandler",
]

#: Signature of a physical boundary-condition callback: it must fill the
#: ghost cells of ``block`` inside ``region`` (a global-index box at the
#: block's level covering the boundary slab of ``face``).
BoundaryHandler = Callable[[Block, int, IndexBox, BlockForest], None]

Slices = Tuple[slice, ...]

#: The transfers into one ghost region: (destination block, the region's
#: offset vector, transfers).
Region = Tuple[BlockID, Tuple[int, ...], List["Transfer"]]

#: Covered volume (in coarse cells) above which a restriction target
#: counts as filled by its fine owners.
_FILLED_VOLUME = 1e-12


@dataclass(frozen=True)
class Transfer:
    """One block-to-block ghost data movement.

    ``src_box`` is given in the *source* block's frame at the source
    level; ``dst_box`` in the destination frame at the destination level.
    ``shift`` maps destination-frame indices (at the destination level)
    into the source frame — non-zero only across periodic boundaries.
    ``offset`` is the direction vector of the ghost region being filled.
    """

    dst_id: BlockID
    src_id: BlockID
    offset: Tuple[int, ...]
    src_box: IndexBox
    dst_box: IndexBox
    shift: Tuple[int, ...]

    @property
    def delta(self) -> int:
        """Source level minus destination level (+ = finer source)."""
        return self.src_id.level - self.dst_id.level

    @property
    def kind(self) -> str:
        if self.delta == 0:
            return NeighborKind.SAME
        return NeighborKind.FINER if self.delta > 0 else NeighborKind.COARSER

    @property
    def is_face(self) -> bool:
        return sum(1 for o in self.offset if o != 0) == 1

    @property
    def message_cells(self) -> int:
        """Cells that cross the wire in a distributed implementation.

        Fine→coarse data is restricted *before* sending and coarse→fine
        is prolonged *after* receiving (both standard), so the message
        always carries the smaller representation.
        """
        return min(self.src_box.size, self.dst_box.size)


def all_offsets(ndim: int, *, faces_only: bool = False) -> List[Tuple[int, ...]]:
    """The ``3^d - 1`` ghost-region direction vectors (faces first)."""
    out: List[Tuple[int, ...]] = []

    def rec(axis: int, cur: Tuple[int, ...]) -> None:
        if axis == ndim:
            if any(cur):
                out.append(cur)
            return
        for v in (-1, 0, 1):
            rec(axis + 1, cur + (v,))

    rec(0, ())
    out.sort(key=lambda o: (sum(1 for v in o if v != 0), o))
    if faces_only:
        out = [o for o in out if sum(1 for v in o if v != 0) == 1]
    return out


def ghost_region_for_offset(block: Block, offset: Sequence[int]) -> IndexBox:
    """Ghost slab of a block in the given direction, global indices."""
    ib = block.cell_box
    lo = list(ib.lo)
    hi = list(ib.hi)
    g = block.n_ghost
    for axis, o in enumerate(offset):
        if o < 0:
            hi[axis] = lo[axis]
            lo[axis] -= g
        elif o > 0:
            lo[axis] = hi[axis]
            hi[axis] += g
    return IndexBox(tuple(lo), tuple(hi))


def region_owners(
    forest: BlockForest, bid: BlockID, offset: Sequence[int]
) -> Optional[Tuple[Tuple[int, ...], List[BlockID]]]:
    """Leaves covering the ghost region of ``bid`` in direction ``offset``.

    Returns ``(wrap, owners)`` where ``wrap`` is the per-axis periodic
    wrap sign, or None when the region lies outside a non-periodic domain
    boundary.  Owners are: the same-level neighbor slot if it is a leaf,
    its leaf ancestor if one exists (exactly one — coarser), or every
    finer leaf whose cells intersect the ghost region (the region is
    ``n_ghost`` cells deep, so with deep refinement it can intersect
    several layers of fine leaves, not only those touching the shared
    face/edge/corner).
    """
    coords: List[int] = []
    wrap: List[int] = []
    for axis in range(forest.ndim):
        c = bid.coords[axis] + offset[axis]
        c_wrapped, w = forest._wrap_coord(bid.level, axis, c)
        if c_wrapped is None:
            return None
        coords.append(c_wrapped)
        wrap.append(w)
    cand = BlockID(bid.level, tuple(coords))
    if cand in forest.blocks:
        return tuple(wrap), [cand]
    anc = cand
    while anc.level > 0:
        anc = anc.parent
        if anc in forest.blocks:
            return tuple(wrap), [anc]
    # Finer: descend through the candidate slot collecting every leaf
    # whose cells intersect the (wrapped) ghost region.
    g = forest.n_ghost
    region = IndexBox(
        tuple(
            bid.coords[a] * forest.m[a] + (forest.m[a] if o > 0 else (-g if o < 0 else 0))
            for a, o in enumerate(offset)
        ),
        tuple(
            bid.coords[a] * forest.m[a]
            + (forest.m[a] + g if o > 0 else (0 if o < 0 else forest.m[a]))
            for a, o in enumerate(offset)
        ),
    ).shift(_cell_shift(forest, wrap, bid.level))
    owners: List[BlockID] = []
    stack = [cand]
    while stack:
        cur = stack.pop()
        if cur.level > forest.max_level:
            continue
        for child in cur.children():
            delta = child.level - bid.level
            if region.refined(delta).intersect(child.cell_box(forest.m)).empty:
                continue
            if child in forest.blocks:
                owners.append(child)
            else:
                stack.append(child)
    if not owners:
        raise ForestError(
            f"no leaf covers offset {tuple(offset)} of {bid}; forest inconsistent"
        )
    return tuple(wrap), sorted(owners)


def _cell_shift(
    forest: BlockForest, wrap: Sequence[int], level: int
) -> Tuple[int, ...]:
    """Periodic wrap displacement in cells at the given level."""
    return tuple(
        w * (n << level) * mi
        for w, n, mi in zip(wrap, forest.n_root, forest.m)
    )


def _neg(t: Sequence[int]) -> Tuple[int, ...]:
    return tuple(-x for x in t)


def _restrict_sum(arr: np.ndarray, ndim: int, times: int) -> np.ndarray:
    """Sum (not mean) over 2^d groups, applied ``times`` times."""
    for _ in range(times):
        spatial = arr.shape[1:]
        new_shape = [arr.shape[0]]
        for n in spatial:
            new_shape.extend((n // 2, 2))
        axes = tuple(2 * (a + 1) for a in range(ndim))
        arr = arr.reshape(new_shape).sum(axis=axes)
    return arr


def _align_out(box: IndexBox, factor: int) -> IndexBox:
    """Grow a box so both corners are multiples of ``factor``."""
    lo = tuple((a // factor) * factor for a in box.lo)
    hi = tuple(-((-b) // factor) * factor for b in box.hi)
    return IndexBox(lo, hi)


def _hull(boxes: Sequence[IndexBox]) -> IndexBox:
    """Smallest box containing every box of a non-empty sequence."""
    return IndexBox(
        tuple(min(lo) for lo in zip(*(b.lo for b in boxes))),
        tuple(max(hi) for hi in zip(*(b.hi for b in boxes))),
    )


def prolongation_border(up: int, order: int) -> int:
    """Coarse border cells a prolongation payload must carry.

    Each linear step consumes one border cell per side; starting with a
    border of 2 keeps a >=1-cell border available at every subsequent
    level (border widths evolve as w -> 2*(w-1)), so every step is a
    genuine limited-linear prolongation and multi-level prolongation
    stays exact on linear fields.
    """
    if order == 1:
        return 0
    return 1 if up == 1 else 2


def _bordered_read(
    src: Block, region: IndexBox, border: int
) -> Tuple[IndexBox, Optional[List[Tuple[int, int]]]]:
    """What of ``src`` holds ``region.grow(border)``: the part inside its
    padded array, and the ``np.pad`` edge-replication widths that
    restore the rest (None when nothing falls outside)."""
    desired = region.grow(border)
    avail = desired.intersect(src.padded_box)
    pad = [(0, 0)] + [
        (al - dl, dh - ah)
        for dl, dh, al, ah in zip(desired.lo, desired.hi, avail.lo, avail.hi)
    ]
    return avail, pad if any(p != (0, 0) for p in pad) else None


def _prolonged_slices(region: IndexBox, up: int, border: int) -> Slices:
    """Where ``region.refined(up)`` sits in an array covering
    ``region.grow(border)`` after ``up`` prolongation steps (each linear
    step consumes one border cell per side, injection none)."""
    covered = region.grow(border)
    for _ in range(up):
        covered = covered.grow(-1 if border else 0).refined(1)
    return region.refined(up).slices(covered.lo)


def _region_transfers(
    forest: BlockForest,
    block: Block,
    offset: Tuple[int, ...],
) -> Iterator[Transfer]:
    """Geometry of the transfers filling one ghost region of one block."""
    found = region_owners(forest, block.id, offset)
    if found is None:
        return
    wrap, owners = found
    level = block.level
    region = ghost_region_for_offset(block, offset)
    shift = _cell_shift(forest, wrap, level)
    region_src = region.shift(shift)
    for nid in owners:
        nb = forest.blocks[nid]
        delta = nid.level - level
        if delta == 0:
            r = region_src.intersect(nb.cell_box)
            if r.empty:
                continue
            yield Transfer(block.id, nid, offset, r, r.shift(_neg(shift)), shift)
        elif delta < 0:
            up = -delta
            rc = region_src.coarsened(up).intersect(nb.cell_box)
            if rc.empty:
                continue
            covered = rc.refined(up).intersect(region_src)
            yield Transfer(
                block.id, nid, offset, rc, covered.shift(_neg(shift)), shift
            )
        else:
            down = delta
            rf = region_src.refined(down).intersect(nb.cell_box)
            if rf.empty:
                continue
            dst = rf.coarsened(down).intersect(region_src).shift(_neg(shift))
            yield Transfer(block.id, nid, offset, rf, dst, shift)


def _restriction_geometry(
    t: Transfer, ndim: int
) -> Tuple[IndexBox, Slices, float, IndexBox]:
    """Data-independent half of one fine→coarse transfer.

    Returns ``(aligned, inner, frac, coarse_box)``: the source box grown
    to whole ``2^down`` groups, the slices of the source box inside it,
    the volume of one fine cell in coarse-cell units, and the coarse
    box the group sums land on, in the *destination* frame.
    """
    down = t.delta
    aligned = _align_out(t.src_box, 1 << down)
    inner = t.src_box.slices(aligned.lo)
    frac = (0.5 ** down) ** ndim
    coarse_box = IndexBox(
        tuple(a >> down for a in aligned.lo),
        tuple(b >> down for b in aligned.hi),
    ).shift(_neg(t.shift))
    return aligned, inner, frac, coarse_box


def _restriction_weights(
    aligned: IndexBox, inner: Slices, down: int, frac: float, ndim: int
) -> np.ndarray:
    """Covered volume per coarse cell of one fine source."""
    w = np.zeros(aligned.shape)
    w[inner] = 1.0
    return _restrict_sum(w[np.newaxis], ndim, down)[0] * frac


def payload_values(t: Transfer, nvar: int, ndim: int, order: int) -> int:
    """Float64 values the wire payload of ``t`` holds between ranks: the
    slab itself (same level), value and volume sums per coarse cell (a
    fine source restricts before it sends), or the bordered coarse
    region (a fine receiver prolongs after it receives)."""
    if t.delta == 0:
        return nvar * t.src_box.size
    if t.delta > 0:
        return (nvar + 1) * _restriction_geometry(t, ndim)[3].size
    return nvar * t.src_box.grow(prolongation_border(-t.delta, order)).size


def _iter_regions(forest: BlockForest, fill_corners: bool) -> Iterator[Region]:
    offsets = all_offsets(forest.ndim, faces_only=not fill_corners)
    for bid in forest.sorted_ids():
        block = forest.blocks[bid]
        for offset in offsets:
            transfers = list(_region_transfers(forest, block, offset))
            if transfers:
                yield bid, offset, transfers


def exchange_regions(
    forest: BlockForest, *, fill_corners: bool = True
) -> List[Region]:
    """Every non-empty ghost region of a full exchange with its
    transfers, in plan order: blocks in SFC order (level-major), each
    block's regions faces first.

    Pure geometry — no data is moved.  The one schedule every executor
    derives its work from: :func:`compile_plan`, the emulated machine,
    and the process machine's supervisor and rank processes.  With
    ``fill_corners=False`` only face regions are included (the paper's
    minimal face-pointer connectivity).
    """
    return list(_iter_regions(forest, fill_corners))


def iter_transfers(
    forest: BlockForest, *, fill_corners: bool = True
) -> Iterator[Transfer]:
    """Yield every Transfer of a full ghost exchange (the regions of
    :func:`exchange_regions`, flattened) — used to build message
    schedules and by tests to inspect transfer regions."""
    for _bid, _offset, transfers in _iter_regions(forest, fill_corners):
        yield from transfers


# ----------------------------------------------------------------------
# the compiled plan
# ----------------------------------------------------------------------


class FillCounts(NamedTuple):
    """Block-to-block transfers one ghost fill executed, by kind."""

    copy: int
    restrict: int
    prolong: int


class _Copy(NamedTuple):
    """Same-level transfer: ``dst_view[...] = src_view``."""

    dst_view: np.ndarray
    src_view: np.ndarray
    dst: Block
    dst_box: IndexBox
    src: Block


class _RestrictSource(NamedTuple):
    """One fine owner's contribution to a restriction group."""

    src_view: np.ndarray
    #: ``(nvar, *aligned)`` zero-padded staging shape, or None when the
    #: source box is already made of whole ``2^down`` groups
    aligned_shape: Optional[Tuple[int, ...]]
    inner: Slices
    down: int
    frac: float
    dst_sl: Slices
    src_sl: Slices


class _Restrict(NamedTuple):
    """Fine→coarse transfers into one ghost region of one block."""

    dst_view: np.ndarray
    acc_shape: Tuple[int, ...]
    sources: Tuple[_RestrictSource, ...]
    #: cells some fine owner covers, and the covered volume there (1
    #: elsewhere) — both data-independent
    filled: np.ndarray
    safe_vol: np.ndarray
    dst: Block
    dst_box: IndexBox
    srcs: Tuple[Block, ...]


class _Prolong(NamedTuple):
    """Coarse→fine transfer: ``dst_view[...] = prolong^up(pad(src_view))[crop]``."""

    dst_view: np.ndarray
    src_view: np.ndarray
    #: edge-replication widths where the slope border leaves the
    #: source's padded array (None: it does not)
    pad: Optional[List[Tuple[int, int]]]
    up: int
    crop: Slices
    dst: Block
    dst_box: IndexBox
    src: Block
    #: cells of ``src`` (interior and ghost) the transfer reads
    need: IndexBox
    #: prolongations ahead of this one in plan order that write cells of
    #: ``need``, each with where its result lands in ``src_view`` and the
    #: part of its destination box that lands there; :func:`gather_prolong`
    #: replays them (see :func:`compile_plan`)
    deps: Tuple[Tuple["_Prolong", Slices, Slices], ...] = ()


class _Boundary(NamedTuple):
    """Physical-boundary slab ``dst_box`` of ``dst`` outside ``face``."""

    dst: Block
    face: int
    dst_box: IndexBox


@dataclass
class GhostPlan:
    """A ghost exchange compiled down to array views and slice tuples.

    Built once per forest topology revision and arena layout epoch
    (owner searches and box intersections are the expensive part) and
    executed many times — mirroring how the paper's code rebuilds its
    neighbor pointers only on refinement/coarsening.  A fill does no box
    arithmetic: every entry carries the views, slices and weights it
    needs.

    The plan of a whole forest also serves the parts of itself that fill
    a given set of blocks (:func:`ghost_plan`); those sub-plans are
    plans too, cached in :attr:`subplans`, so they die with their parent.
    """

    copies: List[_Copy]
    restricts: List[_Restrict]
    prolongs: List[_Prolong]
    bc_faces: List[_Boundary]
    subplans: Dict[FrozenSet[BlockID], "GhostPlan"] = field(default_factory=dict)

    @cached_property
    def counts(self) -> FillCounts:
        return FillCounts(
            len(self.copies),
            sum(len(r.sources) for r in self.restricts),
            len(self.prolongs),
        )

    @cached_property
    def sources(self) -> List[Block]:
        """Blocks whose cells the plan reads (transfer sources, and the
        blocks a boundary handler extrapolates), in plan order."""
        seen: Dict[BlockID, Block] = {}
        for c in self.copies:
            seen.setdefault(c.src.id, c.src)
        for r in self.restricts:
            for src in r.srcs:
                seen.setdefault(src.id, src)
        for b in self.bc_faces:
            seen.setdefault(b.dst.id, b.dst)
        for p in self.prolongs:
            seen.setdefault(p.src.id, p.src)
        return list(seen.values())

    @cached_property
    def prolong_groups(self) -> List[List[int]]:
        """Indices into :attr:`prolongs` of the entries that prolong
        alike: same bordered-source shape, depth and crop."""
        groups: Dict[Any, List[int]] = {}
        for i, p in enumerate(self.prolongs):
            pad = p.pad or [(0, 0)] * p.src_view.ndim
            shape = tuple(n + lo + hi for n, (lo, hi) in zip(p.src_view.shape, pad))
            crop = tuple((sl.start, sl.stop) for sl in p.crop)
            groups.setdefault((shape, p.up, crop), []).append(i)
        return list(groups.values())

    def ghost_reads(self) -> List[Tuple[Block, IndexBox]]:
        """``(block, box)`` of every region whose *ghost* cells the plan
        reads: the slope borders of its prolongations."""
        return [(p.src, p.need) for p in self.prolongs]


def _compile_restrict(
    block: Block,
    transfers: List[Transfer],
    blocks: Mapping[BlockID, Block],
    ndim: int,
) -> _Restrict:
    nvar = block.nvar
    union = _hull([t.dst_box for t in transfers])
    vol = np.zeros(union.shape)
    sources = []
    for t in transfers:
        src = blocks[t.src_id]
        aligned, inner, frac, coarse_box = _restriction_geometry(t, ndim)
        tgt = coarse_box.intersect(union)
        src_sl = tgt.slices(coarse_box.lo)
        dst_sl = tgt.slices(union.lo)
        vol[dst_sl] += _restriction_weights(aligned, inner, t.delta, frac, ndim)[src_sl]
        sources.append(
            _RestrictSource(
                src.view(t.src_box),
                None if aligned == t.src_box else (nvar,) + aligned.shape,
                (slice(None),) + inner,
                t.delta,
                frac,
                (slice(None),) + dst_sl,
                (slice(None),) + src_sl,
            )
        )
    filled = vol > _FILLED_VOLUME
    return _Restrict(
        block.view(union),
        (nvar,) + union.shape,
        tuple(sources),
        filled,
        np.where(filled, vol, 1.0),
        block,
        union,
        tuple(blocks[t.src_id] for t in transfers),
    )


def _compile_prolong(block: Block, src: Block, t: Transfer, order: int) -> _Prolong:
    up = -t.delta
    region = t.src_box
    border = prolongation_border(up, order)
    need, pad = _bordered_read(src, region, border)
    # Two crops in one: the prolonged region inside the prolonged
    # bordered array, then the destination box inside that region.
    outer = _prolonged_slices(region, up, border)
    cover = region.refined(up).shift(_neg(t.shift))
    crop = (slice(None),) + tuple(
        slice(o.start + s.start, o.start + s.stop)
        for o, s in zip(outer, t.dst_box.slices(cover.lo))
    )
    return _Prolong(
        block.view(t.dst_box), src.view(need), pad, up, crop,
        block, t.dst_box, src, need,
    )


def _prolong_entry(
    t: Transfer,
    blocks: Mapping[BlockID, Block],
    order: int,
    inbound: Mapping[BlockID, List[Transfer]],
    compiled: Dict[Any, _Prolong],
) -> _Prolong:
    """The compiled entry of ``t`` with its :attr:`_Prolong.deps` among
    ``inbound``, the prolongations ahead of it in plan order (memoized
    in ``compiled`` by destination, region and source)."""
    key = (t.dst_id, t.offset, t.src_id)
    p = compiled.get(key)
    if p is None:
        p = _compile_prolong(blocks[t.dst_id], blocks[t.src_id], t, order)
        deps = []
        for q in inbound.get(t.src_id, ()):
            overlap = q.dst_box.intersect(p.need)
            if not overlap.empty:
                deps.append((
                    _prolong_entry(q, blocks, order, inbound, compiled),
                    (slice(None),) + overlap.slices(p.need.lo),
                    (slice(None),) + overlap.slices(q.dst_box.lo),
                ))
        if deps:
            p = p._replace(deps=tuple(deps))
        compiled[key] = p
    return p


def compile_plan(
    forest: BlockForest,
    fill_corners: bool = True,
    *,
    regions: Optional[Iterable[Region]] = None,
    blocks: Optional[Mapping[BlockID, Block]] = None,
    dest: Optional[FrozenSet[BlockID]] = None,
) -> GhostPlan:
    """Compile the exchange of ``forest`` (see :class:`GhostPlan`).

    :func:`fill_ghosts` calls this through a cache; it is public for
    benchmarks that time plan construction and for executors that hold
    the block arrays themselves: ``regions`` is the schedule when the
    caller already has it (:func:`exchange_regions`), ``blocks`` the
    blocks whose arrays the views go into when they are not the
    forest's own, ``dest`` keeps only the entries and boundary slabs
    whose destination it names (no dependency closure, unlike
    :func:`ghost_plan`: whoever owns the other blocks fills those).

    Stage 2 gathers the source of every prolongation before it writes
    any.  The exchange it reproduces runs them in plan order, where a
    prolongation whose slope border reaches ghost cells an earlier one
    writes reads them prolonged; gathered up front it would read them
    stale.  So each entry records those earlier entries in
    :attr:`_Prolong.deps` — of whatever destination, recursively — and
    :func:`gather_prolong` replays them on its private copy.
    """
    if regions is None:
        # streamed: a region's transfers are garbage once compiled
        regions = _iter_regions(forest, fill_corners)
    if blocks is None:
        blocks = forest.blocks
    order = forest.prolong_order
    copies: List[_Copy] = []
    restricts: List[_Restrict] = []
    prolongs: List[_Prolong] = []
    #: the prolongation transfers seen so far, by destination
    inbound: Dict[BlockID, List[Transfer]] = {}
    compiled: Dict[Any, _Prolong] = {}

    for bid, _offset, transfers in regions:
        mine = dest is None or bid in dest
        fine: List[Transfer] = []
        for t in transfers:
            if t.delta < 0:
                if mine:
                    prolongs.append(
                        _prolong_entry(t, blocks, order, inbound, compiled)
                    )
                inbound.setdefault(bid, []).append(t)
            elif not mine:
                continue
            elif t.delta == 0:
                dst, src = blocks[bid], blocks[t.src_id]
                copies.append(_Copy(
                    dst.view(t.dst_box), src.view(t.src_box), dst, t.dst_box, src,
                ))
            else:
                fine.append(t)
        if fine:
            restricts.append(
                _compile_restrict(blocks[bid], fine, blocks, forest.ndim)
            )
    return GhostPlan(
        copies, restricts, prolongs,
        _bc_scan_faces(
            [
                blocks[bid] for bid in forest.sorted_ids()
                if dest is None or bid in dest
            ],
            forest.ndim,
        ),
    )


def _bc_scan_faces(blocks: Sequence[Block], ndim: int) -> List[_Boundary]:
    """Physical-boundary slabs of ``blocks``, axis by axis; the slab for
    axis ``a`` is extended across the full ghost width of every *other*
    axis, so edge/corner ghosts outside the domain are filled
    consistently (the last axis wins at corners shared by two physical
    boundaries, the standard convention)."""
    bc_faces: List[_Boundary] = []
    for axis in range(ndim):
        other_axes = tuple(a for a in range(ndim) if a != axis)
        for block in blocks:
            for side in (0, 1):
                face = 2 * axis + side
                fn = block.face_neighbors.get(face)
                if fn is not None and fn.kind == NeighborKind.BOUNDARY:
                    bc_faces.append(
                        _Boundary(block, face, block.ghost_region(face, other_axes))
                    )
    return bc_faces


def ghost_plan(
    forest: BlockForest,
    dest: Optional[FrozenSet[BlockID]] = None,
    *,
    fill_corners: bool = True,
) -> GhostPlan:
    """The compiled plan that fills the ghosts of the ``dest`` blocks
    (None: of every block), from the cache.

    The full plan is cached on the topology revision and the arena
    layout epoch (it holds raw views into pool rows, so it is stale
    whenever rows move — growth or compaction); the part of it serving a
    given ``dest`` is cached on the full plan.
    """
    key = (forest.revision, forest.arena.layout_epoch, fill_corners)
    if getattr(forest, "_ghost_plan_key", None) != key:
        if METRICS.enabled:
            METRICS.inc("ghost.plan_misses")
        forest._ghost_plan = compile_plan(forest, fill_corners)  # type: ignore[attr-defined]
        forest._ghost_plan_key = key  # type: ignore[attr-defined]
    elif METRICS.enabled:
        METRICS.inc("ghost.plan_hits")
    plan: GhostPlan = forest._ghost_plan  # type: ignore[attr-defined]
    if dest is None:
        return plan
    sub = plan.subplans.get(dest)
    if sub is None:
        unknown = sorted(bid for bid in dest if bid not in forest.blocks)
        if unknown:
            raise ForestError(f"dest names blocks that are not leaves: {unknown}")
        sub = plan.subplans[dest] = _select(plan, dest)
    return sub


def _select(plan: GhostPlan, dest: FrozenSet[BlockID]) -> GhostPlan:
    """The part of ``plan`` that fills the ghosts of the ``dest`` blocks.

    That is every entry whose destination is in ``dest`` plus the
    dependency closure of its prolongations: a prolongation reads
    ``need`` of its source, ghost cells included, so the entries and
    boundary slabs into the source that write any of those cells run
    too — recursively, since such an entry can itself be a prolongation.
    (A boundary handler fills a ghost cell ``d`` layers outside its face
    from the cells of the same row up to ``d`` layers inside it; ``need``
    is a box reaching at least as far in as out, so whatever the handler
    reads there is in ``need`` as well.)  Entries keep the relative
    order they have in ``plan``.  Ghosts of blocks outside ``dest`` are
    written only where the closure needs them; whoever reads those asks
    for them.
    """
    lists: Tuple[Sequence[Any], ...] = (
        plan.copies, plan.restricts, plan.prolongs, plan.bc_faces,
    )
    #: entries and boundary slabs by destination block, as (list, index)
    into: Dict[BlockID, List[Tuple[int, int]]] = {}
    for k, entries in enumerate(lists):
        for i, entry in enumerate(entries):
            into.setdefault(entry.dst.id, []).append((k, i))
    keep: Tuple[Set[int], ...] = tuple(set() for _ in lists)
    pending: List[_Prolong] = []

    def take(k: int, i: int) -> None:
        if i not in keep[k]:
            keep[k].add(i)
            if lists[k] is plan.prolongs:
                pending.append(plan.prolongs[i])

    for bid in dest:
        for k, i in into.get(bid, ()):
            take(k, i)
    while pending:
        p = pending.pop()
        if p.src.id not in dest:
            for k, i in into.get(p.src.id, ()):
                if not lists[k][i].dst_box.intersect(p.need).empty:
                    take(k, i)
    copies, restricts, prolongs, bc_faces = (
        [entry for i, entry in enumerate(entries) if i in keep[k]]
        for k, entries in enumerate(lists)
    )
    return GhostPlan(copies, restricts, prolongs, bc_faces)


def run_copies(plan: GhostPlan) -> None:
    """Stage 1a: the plan's same-level copies, one slab assignment each."""
    for c in plan.copies:
        c.dst_view[...] = c.src_view


def run_restrictions(plan: GhostPlan, ndim: int) -> None:
    """Stage 1b: the plan's fine→coarse regions, volume-averaged."""
    for r in plan.restricts:
        acc = np.zeros(r.acc_shape)
        for src_view, aligned_shape, inner, down, frac, dst_sl, src_sl in r.sources:
            if aligned_shape is None:
                data = np.ascontiguousarray(src_view)
            else:
                data = np.zeros(aligned_shape)
                data[inner] = src_view
            acc[dst_sl] += (_restrict_sum(data, ndim, down) * frac)[src_sl]
        r.dst_view[...] = np.where(r.filled, acc / r.safe_vol, r.dst_view)


def run_boundaries(
    plan: GhostPlan, bc: Optional[BoundaryHandler], forest: BlockForest
) -> None:
    """The plan's physical-boundary slabs (after either stage)."""
    if bc is not None:
        for block, face, region in plan.bc_faces:
            bc(block, face, region, forest)


def _prolonged(p: _Prolong, data: np.ndarray, order: int, ndim: int) -> np.ndarray:
    prolong: Callable[[np.ndarray, int], np.ndarray] = (
        prolong_inject if order == 1 else prolong_linear
    )
    for _ in range(p.up):
        data = prolong(data, ndim)
    return data[p.crop]


def gather_prolong(p: _Prolong, order: int, ndim: int) -> np.ndarray:
    """Read-only half of a stage-2 transfer: a private copy of the
    bordered source region, edge-replicated where the border leaves the
    source's padded array, with the earlier prolongations it depends on
    (:attr:`_Prolong.deps`) replayed on the copy."""
    data = p.src_view.copy()
    for q, into, part in p.deps:
        data[into] = _prolonged(q, gather_prolong(q, order, ndim), order, ndim)[part]
    return data if p.pad is None else np.pad(data, p.pad, mode="edge")


def write_prolongs(
    plan: GhostPlan,
    payloads: Sequence[np.ndarray],
    order: int,
    ndim: int,
    skip: Iterable[int] = (),
) -> None:
    """Write half of stage 2 for every entry of ``plan`` at once, from
    the sources gathered up front: prolong ``payloads[i]`` into the
    destination ghost cells of ``prolongs[i]`` (indices in ``skip`` are
    left unwritten).

    Nothing here reads what it writes, so the order is free, and
    prolongation is elementwise along the variable axis: entries that
    prolong alike are stacked along it and prolonged by one call — the
    same values for a fraction of the numpy dispatches.
    """
    skip = frozenset(skip)
    for members in plan.prolong_groups:
        if skip:
            members = [i for i in members if i not in skip]
            if not members:
                continue
        first = plan.prolongs[members[0]]
        fine = _prolonged(
            first, np.concatenate([payloads[i] for i in members]), order, ndim
        )
        nvar = first.dst_view.shape[0]
        for k, i in enumerate(members):
            plan.prolongs[i].dst_view[...] = fine[k * nvar:(k + 1) * nvar]


def fill_ghosts(
    forest: BlockForest,
    bc: Optional[BoundaryHandler] = None,
    *,
    fill_corners: bool = True,
    dest: Optional[FrozenSet[BlockID]] = None,
) -> FillCounts:
    """Fill block ghost cells from their neighbors.

    Physical-boundary ghost slabs are delegated to ``bc`` (see
    :mod:`repro.amr.boundary`); with ``bc=None`` they are left untouched.
    Returns the block-to-block transfers executed, by kind.

    With ``fill_corners=True`` (default) edge and corner ghost regions
    are exchanged as well, via the generalized lower-dimensional
    connectivity; ``False`` restricts the exchange to face slabs — all a
    first-order dimension-split scheme needs, and the paper's minimal
    configuration.

    ``dest`` names the blocks whose ghosts the caller is about to read
    (None: every block).  Only the transfers into those blocks, and the
    ones their prolongations depend on, are executed (:func:`_select`);
    the ghosts of every other block are left as they were, possibly
    stale, and must not be read before a fill that names them.  The
    ``dest`` blocks end up bit-identical to a full fill.

    The stages are the ones the ranks of the executing machines run,
    one per barrier phase (:class:`repro.parallel.procworker.RankPhases`),
    here back to back on the whole plan.
    """
    plan = ghost_plan(forest, dest, fill_corners=fill_corners)
    ndim = forest.ndim
    order = forest.prolong_order
    # Stage 1: same-level copies + restrictions (read interiors only).
    run_copies(plan)
    run_restrictions(plan, ndim)
    # Applying the BC after stage 1 gives stage-2 prolongations valid
    # slope borders next to physical boundaries.
    run_boundaries(plan, bc, forest)
    # Stage 2: prolongations (may read the sources' now-valid ghosts).
    write_prolongs(
        plan, [gather_prolong(p, order, ndim) for p in plan.prolongs], order, ndim
    )
    # Re-apply so boundary slabs adjacent to prolonged ghosts are
    # consistent with the final data.
    run_boundaries(plan, bc, forest)
    counts = plan.counts
    if METRICS.enabled:
        METRICS.inc("ghost.transfers.copy", counts.copy)
        METRICS.inc("ghost.transfers.restrict", counts.restrict)
        METRICS.inc("ghost.transfers.prolong", counts.prolong)
        if dest is not None:
            METRICS.inc("ghost.scoped_fills")
    return counts

