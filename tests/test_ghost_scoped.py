"""Tests for level-scoped ghost fills (``fill_ghosts(..., dest=...)``).

The oracle is the full fill: the ``dest`` blocks must come out
bit-identical to it — interiors and every ghost cell a fill writes
(``oracle.read_cells``) — whatever the other blocks' ghosts held before.
The two forests therefore start from *different* stale ghosts (poison in
one, a large finite number in the other), so a sub-plan that misses an
entry its prolongations depend on shows up as a difference.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import read_cells
from repro.amr import Simulation
from repro.amr.boundary import ExtrapolationBC, ReflectingBC
from repro.analysis.poison import PoisonError, poison_forest
from repro.core.block_id import BlockID
from repro.core.forest import BlockForest, ForestError
from repro.core.ghost import GhostPlan, fill_ghosts, ghost_plan
from repro.solvers import AdvectionScheme
from repro.util.geometry import Box


def random_forest(rng, ndim, periodic, prolong_order, rounds=3):
    """A 2:1-balanced forest with random interiors and poisoned ghosts."""
    f = BlockForest(
        Box((0.0,) * ndim, (1.0,) * ndim),
        (2,) * ndim,
        (4,) * ndim,
        nvar=2,
        periodic=(periodic,) * ndim,
        max_level=3,
        prolong_order=prolong_order,
    )
    for _ in range(rounds):
        f.adapt([b for b in list(f.blocks) if rng.random() < (0.3 if ndim == 2 else 0.12)])
    f.check_balance()
    for b in f:
        b.interior[...] = rng.uniform(-1.0, 1.0, size=b.interior.shape)
    poison_forest(f)
    return f


def level_ids(forest, level):
    return frozenset(bid for bid in forest.blocks if bid.level == level)


def stale_copy(forest, value=1e300):
    """A deep copy whose ghosts hold ``value`` instead of poison."""
    other = copy.deepcopy(forest)
    for b in other:
        interior = b.interior.copy()
        b.data[...] = value
        b.interior[...] = interior
    return other


def assert_same_bytes(a, b, ids):
    """Interiors and read ghost cells of ``ids`` equal bit for bit (the
    unread edge and corner ghosts keep whatever each side held)."""
    masks = read_cells(a)
    for bid in ids:
        mask = masks[bid]
        assert a.blocks[bid].data[:, mask].tobytes() == b.blocks[bid].data[:, mask].tobytes(), bid


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ndim=st.sampled_from((2, 3)),
    periodic=st.booleans(),
    prolong_order=st.sampled_from((1, 2)),
)
def test_scoped_fill_equals_full_fill(seed, ndim, periodic, prolong_order):
    rng = np.random.default_rng(seed)
    f = random_forest(rng, ndim, periodic, prolong_order, rounds=3 if ndim == 2 else 2)
    bc = None if periodic else ReflectingBC({a: (1,) for a in range(ndim)})
    level = int(rng.choice(sorted({bid.level for bid in f.blocks})))
    dest = level_ids(f, level)
    full = stale_copy(f)

    counts = fill_ghosts(f, bc, dest=dest)
    full_counts = fill_ghosts(full, bc)

    assert_same_bytes(f, full, dest)
    assert all(a <= b for a, b in zip(counts, full_counts))
    # Interiors are never written, in or out of the scope.
    for bid in f.blocks:
        np.testing.assert_array_equal(f.blocks[bid].interior, full.blocks[bid].interior)


# Boundary handlers and limiters do arithmetic on poisoned (NaN) ghosts
# that a later entry overwrites; numpy warns about it.
poison_arithmetic = pytest.mark.filterwarnings("ignore:invalid value encountered")


@poison_arithmetic
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), periodic=st.booleans(), batched=st.booleans())
def test_scoped_fill_passes_the_sanitizer(seed, periodic, batched):
    rng = np.random.default_rng(seed)
    f = random_forest(rng, 2, periodic, 2)
    sim = Simulation(
        f,
        AdvectionScheme((1.0, 0.5), order=2),
        bc=None if periodic else ExtrapolationBC(),
        engine="batched" if batched else "blocked",
        sanitize=True,
    )
    if batched:
        f.arena.ensure_compact([f.blocks[bid] for bid in f.sorted_ids()])
    for level in sorted({bid.level for bid in f.blocks}):
        sim.fill_ghosts(level_ids(f, level))  # raises PoisonError on a gap


def two_level_forest(**kw):
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), nvar=1,
        periodic=(True, True), max_level=3, **kw,
    )
    f.adapt([BlockID(0, (0, 0))])
    f.adapt([BlockID(1, (1, 1))])
    rng = np.random.default_rng(7)
    for b in f:
        b.interior[...] = rng.uniform(size=b.interior.shape)
    return f


class TestClosure:
    @poison_arithmetic
    def test_dropping_a_closure_entry_is_caught(self):
        """A sub-plan short of one entry its prolongations read must not
        pass: the slope border it leaves poisoned would reach the fine
        ghosts as a finite, wrong number (the limiter zeroes a NaN
        slope), so the sanitizer checks the cells the exchange read."""
        f = two_level_forest()
        sim = Simulation(f, AdvectionScheme((1.0, 0.5), order=2), sanitize=True)
        dest = level_ids(f, 2)
        sub = ghost_plan(f, dest)
        sim.fill_ghosts(dest)  # intact: passes
        closure = [
            (name, i)
            for name in ("copies", "restricts", "prolongs")
            for i, entry in enumerate(getattr(sub, name))
            if entry.dst.id not in dest
        ]
        assert closure, "the finest level reads no coarser ghosts?"
        caught = 0
        for name, i in closure:
            entries = list(getattr(sub, name))
            del entries[i]
            mutant = GhostPlan(**{
                k: entries if k == name else getattr(sub, k)
                for k in ("copies", "restricts", "prolongs", "bc_faces")
            })
            ghost_plan(f).subplans[dest] = mutant
            try:
                sim.fill_ghosts(dest)
            except PoisonError:
                caught += 1
            finally:
                ghost_plan(f).subplans[dest] = sub
        assert caught == len(closure)

    def test_scoped_plan_is_a_proper_part_of_the_plan(self):
        f = two_level_forest()
        full = ghost_plan(f).counts
        for level in (0, 1, 2):
            sub = ghost_plan(f, level_ids(f, level)).counts
            assert all(a <= b for a, b in zip(sub, full)), (level, sub, full)
            assert 0 < sum(sub) < sum(full), (level, sub, full)

    def test_none_and_all_blocks_give_the_same_bytes(self):
        f = two_level_forest()
        g = stale_copy(f)
        counts_none = fill_ghosts(f)
        counts_all = fill_ghosts(g, dest=frozenset(g.blocks))
        assert counts_none == counts_all
        assert_same_bytes(f, g, f.blocks)

    def test_unknown_block_raises(self):
        f = two_level_forest()
        with pytest.raises(ForestError, match="not leaves"):
            fill_ghosts(f, dest=frozenset({BlockID(3, (0, 0))}))
        # The refined root is no longer a leaf either.
        with pytest.raises(ForestError, match="not leaves"):
            fill_ghosts(f, dest=frozenset({BlockID(0, (0, 0))}))


class TestSubplanCache:
    def test_reused_while_nothing_moves(self):
        f = two_level_forest()
        dest = level_ids(f, 1)
        assert ghost_plan(f, dest) is ghost_plan(f, dest)
        assert ghost_plan(f, frozenset(dest)) is ghost_plan(f, dest)

    def test_rebuilt_after_adapt(self):
        f = two_level_forest()
        dest = level_ids(f, 1)
        before = ghost_plan(f, dest)
        f.adapt([BlockID(0, (1, 1))])
        after = ghost_plan(f, level_ids(f, 1))
        assert after is not before
        g = stale_copy(f)
        fill_ghosts(f, dest=level_ids(f, 1))
        fill_ghosts(g)
        assert_same_bytes(f, g, level_ids(f, 1))

    def test_rebuilt_after_rows_move(self):
        f = two_level_forest()
        dest = level_ids(f, 2)
        before = ghost_plan(f, dest)
        # Level-major order differs from the allocation order: rows move.
        blocks = sorted(f, key=lambda b: -b.level)
        epoch = f.arena.layout_epoch
        f.arena.ensure_compact(blocks)
        assert f.arena.layout_epoch > epoch
        assert ghost_plan(f, dest) is not before
        g = stale_copy(f)
        fill_ghosts(f, dest=dest)
        fill_ghosts(g)
        assert_same_bytes(f, g, dest)
