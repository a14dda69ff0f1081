"""The compiled ghost plan against ``tests/oracle.py::compile_plan_reference``.

Production compiles a plan by binding block-pair templates — geometry
computed once per forest — to the blocks' arrays; the reference does
the box algebra on every transfer.  Every entry must agree field by
field: a view by the array it views, its byte offset there, its shape
and strides; weights and masks by bytes; blocks by identity; boxes,
slices and scalars by value; ``deps`` recursively.  A template that is
off by one cell anywhere fails here before any data moves.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import compile_plan_reference, regions_reference
from repro.core.block import Block
from repro.core.block_id import BlockID, IndexBox
from repro.core.forest import BlockForest
from repro.core.ghost import _iter_regions, compile_plan, exchange_regions
from repro.util.geometry import Box


def fingerprint(x):
    if isinstance(x, np.ndarray):
        if x.base is None:
            return ("array", x.dtype.str, x.shape, x.tobytes())
        root = x
        while isinstance(root.base, np.ndarray):
            root = root.base
        offset = x.__array_interface__["data"][0] - root.__array_interface__["data"][0]
        return ("view", id(root), offset, x.shape, x.strides)
    if isinstance(x, Block):
        return ("block", x.id, id(x))
    if isinstance(x, IndexBox):
        return ("box", x.lo, x.hi)
    if isinstance(x, slice):
        return ("slice", x.start, x.stop, x.step)
    if isinstance(x, (tuple, list)):
        return (type(x).__name__,) + tuple(fingerprint(y) for y in x)
    return (type(x).__name__, x)


def assert_plans_equal(ours, ref):
    for kind in ("copies", "restricts", "prolongs", "bc_faces"):
        a, b = getattr(ours, kind), getattr(ref, kind)
        assert len(a) == len(b), kind
        for i, (x, y) in enumerate(zip(a, b)):
            assert fingerprint(x) == fingerprint(y), (kind, i, x.dst.id)


def build_forest(seed, ndim, m, n_ghost, nvar, periodic, max_level_jump, prolong_order):
    rng = np.random.default_rng(seed)
    f = BlockForest(
        Box((0.0,) * ndim, (1.0,) * ndim), (3, 2) if ndim == 2 else (2, 2, 2), m,
        nvar=nvar, n_ghost=n_ghost, periodic=periodic, max_level=3 if ndim == 2 else 2,
        max_level_jump=max_level_jump, prolong_order=prolong_order,
    )
    for _ in range(3 if ndim == 2 else 2):
        f.adapt([b for b in list(f.blocks) if rng.random() < (0.3 if ndim == 2 else 0.15)])
    return f


@st.composite
def forests(draw):
    ndim = draw(st.sampled_from((2, 3)))
    n_ghost = draw(st.sampled_from((1, 2)))
    return build_forest(
        draw(st.integers(0, 10_000)),
        ndim,
        tuple(draw(st.sampled_from((4, 6, 8))) for _ in range(ndim)),
        n_ghost,
        draw(st.sampled_from((1, 3))),
        tuple(draw(st.booleans()) for _ in range(ndim)),
        draw(st.sampled_from((1, 2))),
        draw(st.sampled_from((1, 2))),
    )


def rank_blocks(forest, rng, n_ranks):
    """A random rank split and blocks viewing a pool of their own, as a
    rank process holds them; returns (blocks, rank 0's ids)."""
    ids = forest.sorted_ids()
    pool = np.zeros((len(ids), forest.nvar) + forest.blocks[ids[0]].padded_shape)
    blocks = {
        bid: Block(bid, forest.blocks[bid].box, forest.m, forest.n_ghost, forest.nvar,
                   data=pool[i])
        for i, bid in enumerate(ids)
    }
    own = frozenset(bid for bid in ids if rng.integers(n_ranks) == 0)
    return blocks, own


@settings(max_examples=40, deadline=None)
@given(forest=forests(), fill_corners=st.booleans(), n_ranks=st.integers(2, 3),
       seed=st.integers(0, 10_000))
def test_compiled_plan_equals_reference(forest, fill_corners, n_ranks, seed):
    assert exchange_regions(forest) == regions_reference(
        forest, fill_corners=forest.max_level_jump > 1
    )
    assert_plans_equal(compile_plan(forest), compile_plan_reference(forest))
    # every template, edge and corner ones included, on any level jump
    regions = list(_iter_regions(forest, fill_corners))
    assert regions == regions_reference(forest, fill_corners)
    assert_plans_equal(
        compile_plan(forest, regions=regions),
        compile_plan_reference(forest, regions=regions_reference(forest, fill_corners)),
    )
    # the rank processes' form: the schedule passed in, other arrays, one rank's part
    blocks, own = rank_blocks(forest, np.random.default_rng(seed), n_ranks)
    assert_plans_equal(
        compile_plan(forest, regions=regions, blocks=blocks, dest=own),
        compile_plan_reference(forest, regions=regions_reference(forest, fill_corners),
                               blocks=blocks, dest=own),
    )


def amr_forest(**kw):
    f = BlockForest(Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 6), nvar=2,
                    periodic=(True, False), **kw)
    f.adapt([BlockID(0, (0, 0))])
    f.adapt([BlockID(1, (1, 1))])
    return f


def test_shared_weights_are_read_only():
    f = amr_forest()
    plan = compile_plan(f)
    assert plan.restricts
    for r in plan.restricts:
        for shared in (r.filled, r.safe_vol):
            with pytest.raises(ValueError, match="read-only"):
                shared[...] = 0
    # a recompile binds the same template arrays again
    for r, again in zip(plan.restricts, compile_plan(f).restricts):
        assert again.filled is r.filled and again.safe_vol is r.safe_vol


def test_row_moves_and_growth_build_no_template():
    f = amr_forest()
    compile_plan(f)
    n_templates = len(f._ghost_templates)
    epoch = f.arena.layout_epoch
    f.arena.ensure_compact([f.blocks[bid] for bid in sorted(f.blocks, reverse=True)])
    assert f.arena.layout_epoch != epoch
    assert_plans_equal(compile_plan(f), compile_plan_reference(f))
    grows = f.arena.n_grows
    for _ in range(f.arena.capacity - f.arena.n_active + 1):
        f.arena.acquire()
    assert f.arena.n_grows == grows + 1
    assert_plans_equal(compile_plan(f), compile_plan_reference(f))
    assert len(f._ghost_templates) == n_templates


def test_deepcopy_compiles_into_its_own_pool():
    f = amr_forest(prolong_order=1)
    compile_plan(f)
    clone = copy.deepcopy(f)
    plan = compile_plan(clone)
    assert_plans_equal(plan, compile_plan_reference(clone))
    views = [c.dst_view for c in plan.copies] + [c.src_view for c in plan.copies]
    views += [p.src_view for p in plan.prolongs] + [p.dst_view for p in plan.prolongs]
    for r in plan.restricts:
        views += [r.dst_view] + [s.src_view for s in r.sources]
    assert views
    for v in views:
        assert np.shares_memory(v, clone.arena.pool)
        assert not np.shares_memory(v, f.arena.pool)
