"""Production ``fill_ghosts`` against the in-order oracle, bit for bit.

Production gathers the source of every prolongation before it writes
any, replaying per entry the earlier prolongations its slope border
reads (``_Prolong.deps``).  ``tests/oracle.py`` runs the prolongations
one after another in plan order instead, so each reads what the earlier
ones wrote, and it runs the full exchange: every face, edge and corner
region.  Every interior and every ghost cell a kernel or a prolongation
reads (``oracle.read_cells``) must come out byte-equal — for a scoped
fill, those of the ``dest`` blocks.  The two sides start from
*different* stale ghosts, so a read cell production leaves unwritten,
or writes from the wrong state, shows up.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import fill_ghosts_in_order
from test_ghost_scoped import assert_same_bytes, level_ids, random_forest, stale_copy
from repro.amr.boundary import ReflectingBC
from repro.analysis.engine_bench import build_deep_pulse
from repro.core.ghost import fill_ghosts, ghost_plan


def assert_fill_equals_oracle(forest, bc, dest=None):
    ours = stale_copy(forest, 1e300)
    oracle = stale_copy(forest, -7e200)
    fill_ghosts(ours, bc, dest=dest)
    fill_ghosts_in_order(oracle, bc)
    assert_same_bytes(ours, oracle, forest.blocks if dest is None else dest)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ndim=st.sampled_from((2, 3)),
    periodic=st.booleans(),
    prolong_order=st.sampled_from((1, 2)),
    scoped=st.booleans(),
)
def test_fill_equals_in_order_oracle(seed, ndim, periodic, prolong_order, scoped):
    rng = np.random.default_rng(seed)
    forest = random_forest(rng, ndim, periodic, prolong_order, rounds=3 if ndim == 2 else 2)
    bc = None if periodic else ReflectingBC({a: (1,) for a in range(ndim)})
    dest = None
    if scoped:
        level = int(rng.choice(sorted({bid.level for bid in forest.blocks})))
        dest = level_ids(forest, level)
    assert_fill_equals_oracle(forest, bc, dest)


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_dependent_prolongations_equal_in_order_oracle(levels):
    """Deep hierarchies have prolongations whose slope border reads ghosts
    an earlier prolongation writes: only the replayed ``deps`` make the
    gathered sources equal the in-order ones."""
    forest = build_deep_pulse(levels).forest
    assert any(p.deps for p in ghost_plan(forest).prolongs), "no dependent entry"
    assert_fill_equals_oracle(forest, None)
    for level in range(levels + 1):
        assert_fill_equals_oracle(forest, None, level_ids(forest, level))
