"""Tests for the ghost-cell exchange (repro.core.ghost).

Correctness oracles:

* constants must be reproduced exactly in every ghost cell that lies
  inside the (periodic closure of the) domain;
* linear fields must be reproduced exactly (order-2 prolongation is
  exact on linears, restriction of linears is exact);
* transfers must cover every interior ghost cell exactly once per
  variable (no double-writes with conflicting data, no gaps).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block_id import BlockID
from repro.core.forest import BlockForest, ForestError
from repro.core.ghost import (
    all_offsets,
    fill_ghosts,
    ghost_region_for_offset,
    iter_transfers,
    region_owners,
)
from repro.amr.boundary import ExtrapolationBC
from repro.util.geometry import Box


def forest2d(**kw):
    kw.setdefault("nvar", 1)
    return BlockForest(Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), **kw)


def forest3d(**kw):
    kw.setdefault("nvar", 1)
    return BlockForest(
        Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), (2, 2, 2), (4, 4, 4), **kw
    )


def set_linear(forest, coeffs):
    for b in forest:
        grids = b.meshgrid()
        b.interior[0] = sum(c * g for c, g in zip(coeffs, grids))


def ghost_errors_inside_domain(forest, coeffs):
    """Max |ghost - exact| over ghost cells strictly inside the domain."""
    worst = 0.0
    for b in forest:
        grids = b.meshgrid(include_ghost=True)
        expect = sum(c * g for c, g in zip(coeffs, grids))
        g = b.n_ghost
        inside = np.ones(b.padded_shape, dtype=bool)
        for axis, grid in enumerate(grids):
            lo, hi = forest.domain.lo[axis], forest.domain.hi[axis]
            inside &= (grid > lo) & (grid < hi)
        interior = np.zeros(b.padded_shape, dtype=bool)
        interior[tuple(slice(g, -g) for _ in b.m)] = True
        check = inside & ~interior
        if check.any():
            worst = max(worst, float(np.abs(b.data[0] - expect)[check].max()))
    return worst


class TestOffsets:
    def test_counts(self):
        assert len(all_offsets(2)) == 8
        assert len(all_offsets(3)) == 26
        assert len(all_offsets(2, faces_only=True)) == 4
        assert len(all_offsets(3, faces_only=True)) == 6

    def test_faces_come_first(self):
        offs = all_offsets(3)
        assert all(sum(1 for v in o if v) == 1 for o in offs[:6])

    def test_ghost_region_geometry(self):
        f = forest2d()
        b = f.blocks[BlockID(0, (0, 0))]
        r = ghost_region_for_offset(b, (1, 0))
        assert r.lo == (4, 0) and r.hi == (6, 4)
        r = ghost_region_for_offset(b, (-1, 1))
        assert r.lo == (-2, 4) and r.hi == (0, 6)


class TestRegionOwners:
    def test_same_level(self):
        f = forest2d()
        wrap, owners = region_owners(f, BlockID(0, (0, 0)), (1, 0))
        assert wrap == (0, 0)
        assert owners == [BlockID(0, (1, 0))]

    def test_outside_nonperiodic(self):
        f = forest2d()
        assert region_owners(f, BlockID(0, (0, 0)), (-1, 0)) is None

    def test_periodic_wrap_sign(self):
        f = forest2d(periodic=(True, True))
        wrap, owners = region_owners(f, BlockID(0, (0, 0)), (-1, -1))
        assert wrap == (1, 1)
        assert owners == [BlockID(0, (1, 1))]

    def test_finer_owners_on_face(self):
        f = forest2d()
        f.adapt([BlockID(0, (0, 0))])
        wrap, owners = region_owners(f, BlockID(0, (1, 0)), (-1, 0))
        assert set(owners) == {BlockID(1, (1, 0)), BlockID(1, (1, 1))}

    def test_coarser_owner_diagonal(self):
        f = forest2d()
        f.adapt([BlockID(0, (0, 0))])
        wrap, owners = region_owners(f, BlockID(1, (1, 1)), (1, 1))
        assert owners == [BlockID(0, (1, 1))]

    @pytest.mark.parametrize("offset", [(2, 0), (0, 0), (1,), (1, 0, 0), (-2, 1)])
    def test_offset_outside_the_directions_is_rejected(self, offset):
        f = forest2d(periodic=(True, True))
        with pytest.raises(ValueError, match="not a ghost-region direction"):
            region_owners(f, BlockID(0, (0, 0)), offset)

    def test_non_leaf_is_rejected(self):
        f = forest2d(periodic=(True, True))
        f.adapt([BlockID(0, (0, 0))])
        for bid in (BlockID(0, (0, 0)), BlockID(2, (0, 0))):
            with pytest.raises(ForestError, match="not a leaf"):
                region_owners(f, bid, (1, 0))


class TestExchangeExactness:
    @pytest.mark.parametrize("coeffs", [(0.0, 0.0), (1.0, 2.0), (-3.0, 0.5)])
    def test_2d_uniform_linear(self, coeffs):
        f = forest2d()
        set_linear(f, coeffs)
        fill_ghosts(f)
        assert ghost_errors_inside_domain(f, coeffs) < 1e-12

    @pytest.mark.parametrize(
        "refine",
        [
            [BlockID(0, (0, 0))],
            [BlockID(0, (0, 0)), BlockID(0, (1, 1))],
            [BlockID(0, (0, 0)), BlockID(0, (1, 0)), BlockID(0, (0, 1))],
        ],
    )
    def test_2d_amr_linear(self, refine):
        f = forest2d()
        f.adapt(refine)
        set_linear(f, (2.0, -1.0))
        fill_ghosts(f, bc=ExtrapolationBC())
        assert ghost_errors_inside_domain(f, (2.0, -1.0)) < 1e-12

    def test_2d_two_level_amr_linear(self):
        f = forest2d()
        f.adapt([BlockID(0, (0, 0))])
        f.adapt([BlockID(1, (0, 0)), BlockID(1, (1, 1))])
        f.check_balance()
        set_linear(f, (1.0, 1.0))
        fill_ghosts(f, bc=ExtrapolationBC())
        assert ghost_errors_inside_domain(f, (1.0, 1.0)) < 1e-12

    def test_3d_amr_linear(self):
        f = forest3d()
        f.adapt([BlockID(0, (0, 0, 0)), BlockID(0, (1, 1, 1))])
        set_linear(f, (1.0, -2.0, 0.5))
        fill_ghosts(f, bc=ExtrapolationBC())
        assert ghost_errors_inside_domain(f, (1.0, -2.0, 0.5)) < 1e-12

    def test_periodic_constant_everywhere(self):
        f = forest3d(periodic=(True, True, True))
        f.adapt([BlockID(0, (0, 0, 0))])
        for b in f:
            b.interior[...] = 4.25
            b.zero_ghosts()
            b.interior[...] = 4.25
        fill_ghosts(f)
        for b in f:
            assert float(np.abs(b.data - 4.25).max()) < 1e-13

    def test_mixed_periodicity(self):
        f = forest2d(periodic=(True, False))
        for b in f:
            b.interior[...] = 1.5
        fill_ghosts(f)
        for b in f:
            # x ghosts must be filled (periodic), interior-y only.
            g = b.n_ghost
            assert np.all(b.data[0, :, g:-g] == 1.5)

    def test_injection_prolongation_constant(self):
        f = forest2d(prolong_order=1)
        f.adapt([BlockID(0, (0, 0))])
        for b in f:
            b.interior[...] = -2.0
        fill_ghosts(f)
        assert ghost_errors_inside_domain(f, (0.0, 0.0)) == pytest.approx(2.0)
        # i.e. ghosts hold the constant -2 exactly (error vs 0-field is 2).

    def test_smooth_field_second_order(self):
        # Prolonged ghosts converge at second order in h on smooth data.
        errs = []
        for m in (4, 8, 16):
            f = BlockForest(
                Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (m, m), nvar=1
            )
            f.adapt([BlockID(0, (0, 0))])
            for b in f:
                X, Y = b.meshgrid()
                b.interior[0] = np.sin(3 * X) * np.cos(2 * Y)
            fill_ghosts(f, bc=ExtrapolationBC())
            worst = 0.0
            for b in f:
                if b.level != 1:
                    continue
                Xg, Yg = b.meshgrid(include_ghost=True)
                expect = np.sin(3 * Xg) * np.cos(2 * Yg)
                g = b.n_ghost
                inside = (Xg > 0) & (Xg < 1) & (Yg > 0) & (Yg < 1)
                interior = np.zeros(b.padded_shape, dtype=bool)
                interior[g:-g, g:-g] = True
                check = inside & ~interior
                if check.any():
                    worst = max(worst, float(np.abs(b.data[0] - expect)[check].max()))
            errs.append(worst)
        # Halving h should cut the error by ~4; allow slack for the limiter.
        assert errs[1] < errs[0] / 2.5
        assert errs[2] < errs[1] / 2.5


class TestTransferStream:
    def test_every_transfer_geometry_consistent(self):
        f = forest3d()
        f.adapt([BlockID(0, (0, 0, 0))])
        for t in iter_transfers(f):
            assert not t.src_box.empty and not t.dst_box.empty
            if t.delta == 0:
                assert t.src_box.shape == t.dst_box.shape
            elif t.delta > 0:
                assert t.message_cells == t.dst_box.size
            else:
                assert t.message_cells == t.src_box.size

    def test_no_conflicting_double_writes(self):
        # Fill ghosts twice; second pass must be idempotent.
        f = forest2d()
        f.adapt([BlockID(0, (0, 0))])
        set_linear(f, (1.0, 2.0))
        fill_ghosts(f)
        snap = {bid: b.data.copy() for bid, b in f.blocks.items()}
        fill_ghosts(f)
        for bid, b in f.blocks.items():
            np.testing.assert_allclose(b.data, snap[bid], rtol=1e-14)

    def test_interior_never_modified(self):
        f = forest2d()
        f.adapt([BlockID(0, (1, 1))])
        rng = np.random.default_rng(7)
        for b in f:
            b.interior[...] = rng.random(b.interior.shape)
        snap = {bid: b.interior.copy() for bid, b in f.blocks.items()}
        fill_ghosts(f)
        for bid, b in f.blocks.items():
            np.testing.assert_array_equal(b.interior, snap[bid])

    def test_face_transfer_counts_match_pointers(self):
        f = forest2d()
        face_transfers = [t for t in iter_transfers(f) if t.is_face]
        # Uniform 2x2 grid, no periodicity: 4 interior face pairs -> 8
        # directed transfers.
        assert len(face_transfers) == 8


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_property_random_forest_constant_exactness(seed):
    """Property: after any (balanced) adaptation pattern, a constant field
    survives a ghost exchange exactly in every in-domain ghost cell."""
    rng = np.random.default_rng(seed)
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)),
        (2, 2),
        (4, 4),
        nvar=2,
        periodic=(True, True),
        max_level=3,
    )
    for _ in range(3):
        ids = list(f.blocks)
        picks = [b for b in ids if rng.random() < 0.3]
        f.adapt(picks)
    f.check_balance()
    for b in f:
        b.interior[0] = 3.75
        b.interior[1] = -1.25
    fill_ghosts(f)
    for b in f:
        assert float(np.abs(b.data[0] - 3.75).max()) < 1e-13
        assert float(np.abs(b.data[1] + 1.25).max()) < 1e-13


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_property_random_forest_linear_exactness_with_bc(seed):
    """Property: on any balanced random topology with extrapolation
    boundary conditions, a linear field survives the exchange exactly in
    every ghost cell (prolongation/restriction are linear-exact and the
    BC extrapolates linearly)."""
    rng = np.random.default_rng(seed)
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), nvar=1, max_level=3
    )
    for _ in range(3):
        ids = list(f.blocks)
        f.adapt([b for b in ids if rng.random() < 0.3])
    coeffs = (float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
    set_linear(f, coeffs)
    fill_ghosts(f, bc=ExtrapolationBC())
    worst = 0.0
    for b in f:
        Xg, Yg = b.meshgrid(include_ghost=True)
        expect = coeffs[0] * Xg + coeffs[1] * Yg
        worst = max(worst, float(np.abs(b.data[0] - expect).max()))
    assert worst < 1e-10
