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

All of that geometry is worked out once per forest for each distinct
block pair — blocks share one shape, so a transfer's boxes in the
padded frames of its two blocks depend only on the pair's relative
position (:class:`_Template`) — and bound to the blocks' arrays once per
topology and row layout, compiling a :class:`GhostPlan` of array views,
slices and weights; a fill only executes it.  A caller that reads the
ghosts of some blocks only names them (``dest=``) and gets the part of
the plan that fills those, dependencies included (:func:`ghost_plan`).

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
from repro.util.geometry import child_offsets

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
    ``template`` is the geometry every transfer of its key shares
    (:class:`_Template`), which :func:`compile_plan` binds to arrays.
    """

    dst_id: BlockID
    src_id: BlockID
    offset: Tuple[int, ...]
    src_box: IndexBox
    dst_box: IndexBox
    shift: Tuple[int, ...]
    template: Optional["_Template"] = field(default=None, compare=False, repr=False)

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


#: A leaf found for a ghost region: its level minus the region's, its
#: coordinates relative to the neighbour slot at the finer of the two
#: levels (the slot's relative to the leaf's when the leaf is coarser),
#: and its id.
_Owner = Tuple[int, Tuple[int, ...], BlockID]

#: ``(level, coords)`` of every leaf -> its id (:func:`_leaf_index`)
_LeafIndex = Dict[Tuple[int, Tuple[int, ...]], BlockID]


def _leaf_index(forest: BlockForest) -> _LeafIndex:
    return {(bid.level, bid.coords): bid for bid in forest.blocks}


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

    Raises ValueError for an offset outside ``{-1, 0, 1}^d \\ {0}`` and
    ForestError for an id that is not a leaf.
    """
    direction = tuple(offset)
    if len(direction) != forest.ndim or not any(direction) or not set(direction) <= {-1, 0, 1}:
        raise ValueError(f"offset {direction} is not a ghost-region direction in {forest.ndim}-D")
    if bid not in forest.blocks:
        raise ForestError(f"{bid} is not a leaf")
    found = _owners(forest, _leaf_index(forest), bid.level, bid.coords, direction)
    if found is None:
        return None
    wrap, owners = found
    return wrap, [nid for _delta, _rel, nid in owners]


def _owners(
    forest: BlockForest, index: _LeafIndex, level: int, coords: Tuple[int, ...],
    offset: Tuple[int, ...],
) -> Optional[Tuple[Tuple[int, ...], List[_Owner]]]:
    """:func:`region_owners` without its checks, on integer tuples: no
    BlockID or IndexBox is built for a slot that holds no leaf."""
    slot: List[int] = []
    wrap: List[int] = []
    for axis, (c, o) in enumerate(zip(coords, offset)):
        wrapped, w = forest._wrap_coord(level, axis, c + o)
        if wrapped is None:
            return None
        slot.append(wrapped)
        wrap.append(w)
    cand = tuple(slot)
    nid = index.get((level, cand))
    if nid is not None:
        return tuple(wrap), [(0, (0,) * len(cand), nid)]
    for up in range(1, level + 1):
        nid = index.get((level - up, tuple(c >> up for c in cand)))
        if nid is not None:
            low = (1 << up) - 1
            return tuple(wrap), [(-up, tuple(c & low for c in cand), nid)]
    # Finer: descend through the slot collecting every leaf whose cells
    # intersect the ghost region, ``[lo, hi)`` per axis relative to the slot.
    g = forest.n_ghost
    region = [
        (0, g) if o > 0 else (mi - g, mi) if o < 0 else (0, mi)
        for o, mi in zip(offset, forest.m)
    ]
    owners: List[_Owner] = []
    stack: List[Tuple[int, Tuple[int, ...]]] = [(0, (0,) * len(cand))]
    while stack:
        depth, parent = stack.pop()
        depth += 1
        if level + depth > forest.max_level:
            continue
        for child_off in child_offsets(len(cand)):
            rel = tuple(2 * p + b for p, b in zip(parent, child_off))
            if any(
                k * mi >= hi << depth or (k + 1) * mi <= lo << depth
                for k, mi, (lo, hi) in zip(rel, forest.m, region)
            ):
                continue
            nid = index.get(
                (level + depth, tuple((c << depth) + k for c, k in zip(cand, rel)))
            )
            if nid is not None:
                owners.append((depth, rel, nid))
            else:
                stack.append((depth, rel))
    if not owners:
        raise ForestError(
            f"no leaf covers offset {offset} of L{level}{coords}; forest inconsistent"
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


#: What fixes a transfer's geometry in the padded frames of its two
#: blocks: the region's offset, the level delta, and the owner's
#: position relative to the neighbour slot (see :class:`_Template`).
_TemplateKey = Tuple[Tuple[int, ...], int, Tuple[int, ...]]


class _Template(NamedTuple):
    """The geometry every transfer with one :data:`_TemplateKey` shares.

    Boxes are relative to each block's padded origin and slices index
    its padded array, so the template holds no view and outlives every
    topology revision and layout epoch: a translation by whole blocks
    at the coarser level moves every box by a multiple of ``2^delta``
    cells at the finer one, which commutes with ``coarsened``/``refined``
    (docs/internals.md, "Compiled entries").
    """

    key: _TemplateKey
    src_box: IndexBox
    dst_box: IndexBox
    src: Slices
    dst: Slices
    #: a prolongation's read of its source (``delta < 0`` only): ``need``
    #: relative to the source's padded origin, its slices, and the
    #: ``pad`` (a tuple: entries get their own list) and ``crop`` of
    #: :class:`_Prolong`
    prolong: Optional[
        Tuple[IndexBox, Slices, Optional[Tuple[Tuple[int, int], ...]], Slices]
    ] = None


def _framed(block: Block, box: IndexBox) -> Tuple[IndexBox, Slices]:
    """``box`` relative to the padded origin of ``block`` and its slices
    there, bounds-checked by :meth:`Block.view`."""
    block.view(box)
    origin = block.index_origin
    return box.shift(_neg(origin)), (slice(None),) + box.slices(origin)


def _transfer_template(
    forest: BlockForest, key: _TemplateKey, block: Block, nb: Block,
    shift: Tuple[int, ...],
) -> Optional[_Template]:
    """The template of ``key`` from its instance ``nb`` → ``block``, by
    box algebra (None: the owner's cells miss the region)."""
    offset, delta, _rel = key
    region_src = ghost_region_for_offset(block, offset).shift(shift)
    if delta == 0:
        src = covered = region_src.intersect(nb.cell_box)
    elif delta < 0:
        src = region_src.coarsened(-delta).intersect(nb.cell_box)
        covered = src.refined(-delta).intersect(region_src)
    else:
        src = region_src.refined(delta).intersect(nb.cell_box)
        covered = src.coarsened(delta).intersect(region_src)
    if src.empty:
        return None
    dst = covered.shift(_neg(shift))
    src_box, src_sl = _framed(nb, src)
    dst_box, dst_sl = _framed(block, dst)
    tpl = _Template(key, src_box, dst_box, src_sl, dst_sl)
    if delta >= 0:
        return tpl
    up = -delta
    border = prolongation_border(up, forest.prolong_order)
    need, pad = _bordered_read(nb, src, border)
    # Two crops in one: the prolonged region inside the prolonged
    # bordered array, then the destination box inside that region.
    outer = _prolonged_slices(src, up, border)
    cover = src.refined(up).shift(_neg(shift))
    crop = (slice(None),) + tuple(
        slice(o.start + s.start, o.start + s.stop)
        for o, s in zip(outer, dst.slices(cover.lo))
    )
    return tpl._replace(prolong=(*_framed(nb, need), None if pad is None else tuple(pad), crop))


def _region_transfers(
    forest: BlockForest, index: _LeafIndex, origins: Mapping[BlockID, Tuple[int, ...]],
    block: Block, offset: Tuple[int, ...],
) -> List[Transfer]:
    """The transfers filling one ghost region of one block, each bound
    to its template (computed on first sight of its key); ``origins``
    holds every leaf's padded origin."""
    bid = block.id
    found = _owners(forest, index, bid.level, bid.coords, offset)
    if found is None:
        return []
    wrap, owners = found
    shift = _cell_shift(forest, wrap, bid.level)
    table = forest._ghost_templates
    out = []
    for delta, rel, nid in owners:
        key = (offset, delta, rel)
        if key not in table:
            table[key] = _transfer_template(forest, key, block, forest.blocks[nid], shift)
        tpl: Optional[_Template] = table[key]
        if tpl is not None:
            out.append(Transfer(
                bid, nid, offset, tpl.src_box.shift(origins[nid]),
                tpl.dst_box.shift(origins[bid]), shift, tpl,
            ))
    return out


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
    index = _leaf_index(forest)
    origins = {bid: block.index_origin for bid, block in forest.blocks.items()}
    for bid in forest.sorted_ids():
        block = forest.blocks[bid]
        for offset in offsets:
            transfers = _region_transfers(forest, index, origins, block, offset)
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
    (owner searches, and binding each transfer's template to the
    blocks' arrays) and executed many times — mirroring how the paper's code rebuilds its
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


class _RestrictTemplate(NamedTuple):
    """The geometry of a restriction group, keyed by the ordered
    :data:`_TemplateKey` of its sources: the union of their destination
    boxes (destination padded frame) with its slices, and every
    :class:`_Restrict` field that holds no view.  The shared ``filled``
    and ``safe_vol`` are read-only."""

    dst_box: IndexBox
    dst: Slices
    acc_shape: Tuple[int, ...]
    #: per source, the fields of :class:`_RestrictSource` after its view
    sources: Tuple[
        Tuple[Optional[Tuple[int, ...]], Slices, int, float, Slices, Slices], ...
    ]
    filled: np.ndarray
    safe_vol: np.ndarray


def _template(t: Transfer) -> _Template:
    if t.template is None:
        raise ValueError(f"{t} has no template: take transfers from exchange_regions")
    return t.template


def _restrict_template(
    block: Block, transfers: List[Transfer], ndim: int
) -> _RestrictTemplate:
    nvar = block.nvar
    union = _hull([t.dst_box for t in transfers])
    vol = np.zeros(union.shape)
    sources = []
    for t in transfers:
        aligned, inner, frac, coarse_box = _restriction_geometry(t, ndim)
        tgt = coarse_box.intersect(union)
        src_sl = tgt.slices(coarse_box.lo)
        dst_sl = tgt.slices(union.lo)
        vol[dst_sl] += _restriction_weights(aligned, inner, t.delta, frac, ndim)[src_sl]
        sources.append((
            None if aligned == t.src_box else (nvar,) + aligned.shape,
            (slice(None),) + inner,
            t.delta,
            frac,
            (slice(None),) + dst_sl,
            (slice(None),) + src_sl,
        ))
    filled = vol > _FILLED_VOLUME
    safe_vol = np.where(filled, vol, 1.0)
    filled.flags.writeable = safe_vol.flags.writeable = False
    return _RestrictTemplate(
        *_framed(block, union), (nvar,) + union.shape, tuple(sources), filled, safe_vol,
    )


def _restrict_entry(
    forest: BlockForest,
    block: Block,
    transfers: List[Transfer],
    blocks: Mapping[BlockID, Block],
) -> _Restrict:
    """The fine→coarse transfers into one region, bound to the arrays."""
    templates = [_template(t) for t in transfers]
    key = tuple(tpl.key for tpl in templates)
    group: Optional[_RestrictTemplate] = forest._ghost_templates.get(key)
    if group is None:
        group = _restrict_template(block, transfers, forest.ndim)
        forest._ghost_templates[key] = group
    srcs = tuple(blocks[t.src_id] for t in transfers)
    return _Restrict(
        block.data[group.dst],
        group.acc_shape,
        tuple(
            _RestrictSource(src.data[tpl.src], *rest)
            for src, tpl, rest in zip(srcs, templates, group.sources)
        ),
        group.filled,
        group.safe_vol,
        block,
        group.dst_box.shift(block.index_origin),
        srcs,
    )


def _prolong_entry(
    t: Transfer,
    blocks: Mapping[BlockID, Block],
    inbound: Mapping[BlockID, List[Transfer]],
    compiled: Dict[Any, _Prolong],
) -> _Prolong:
    """The compiled entry of ``t`` with its :attr:`_Prolong.deps` among
    ``inbound``, the prolongations ahead of it in plan order (memoized
    in ``compiled`` by destination, region and source)."""
    key = (t.dst_id, t.offset, t.src_id)
    p = compiled.get(key)
    if p is None:
        tpl = _template(t)
        assert tpl.prolong is not None  # every template with delta < 0 has one
        need, need_sl, pad, crop = tpl.prolong
        dst, src = blocks[t.dst_id], blocks[t.src_id]
        p = _Prolong(
            dst.data[tpl.dst], src.data[need_sl], None if pad is None else list(pad),
            -t.delta, crop, dst, t.dst_box, src, need.shift(src.index_origin),
        )
        deps = []
        for q in inbound.get(t.src_id, ()):
            overlap = q.dst_box.intersect(p.need)
            if not overlap.empty:
                deps.append((
                    _prolong_entry(q, blocks, inbound, compiled),
                    (slice(None),) + overlap.slices(p.need.lo),
                    (slice(None),) + overlap.slices(q.dst_box.lo),
                ))
        if deps:
            p = p._replace(deps=tuple(deps))
        compiled[key] = p
    return p


def compile_plan(
    forest: BlockForest,
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
    Every entry is its transfers' templates bound to ``blocks`` — one
    slice per view; the templates come from the forest's table, so
    every caller binds the same geometry.

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
        regions = _iter_regions(forest, fill_corners=True)
    if blocks is None:
        blocks = forest.blocks
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
                    prolongs.append(_prolong_entry(t, blocks, inbound, compiled))
                inbound.setdefault(bid, []).append(t)
            elif not mine:
                continue
            elif t.delta == 0:
                tpl = _template(t)
                dst, src = blocks[bid], blocks[t.src_id]
                copies.append(_Copy(
                    dst.data[tpl.dst], src.data[tpl.src], dst, t.dst_box, src,
                ))
            else:
                fine.append(t)
        if fine:
            restricts.append(_restrict_entry(forest, blocks[bid], fine, blocks))
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
) -> GhostPlan:
    """The compiled plan that fills the ghosts of the ``dest`` blocks
    (None: of every block), from the cache.

    The full plan is cached on the topology revision and the arena
    layout epoch (it holds raw views into pool rows, so it is stale
    whenever rows move — growth or compaction); the part of it serving a
    given ``dest`` is cached on the full plan.
    """
    key = (forest.revision, forest.arena.layout_epoch)
    if getattr(forest, "_ghost_plan_key", None) != key:
        if METRICS.enabled:
            METRICS.inc("ghost.plan_misses")
        forest._ghost_plan = compile_plan(forest)  # type: ignore[attr-defined]
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
    dest: Optional[FrozenSet[BlockID]] = None,
) -> FillCounts:
    """Fill block ghost cells from their neighbors.

    Physical-boundary ghost slabs are delegated to ``bc`` (see
    :mod:`repro.amr.boundary`); with ``bc=None`` they are left untouched.
    Returns the block-to-block transfers executed, by kind.

    Edge and corner ghost regions are exchanged as well as faces, via
    the generalized lower-dimensional connectivity.  Face-only
    schedules, the paper's minimal configuration, serve only the cost
    model (:func:`exchange_regions`).

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
    plan = ghost_plan(forest, dest)
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

