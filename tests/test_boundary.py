"""Tests for physical boundary conditions (repro.amr.boundary)."""

import numpy as np
import pytest

from oracle import read_cells
from repro.amr.boundary import (
    CompositeBC,
    ExtrapolationBC,
    FixedBC,
    OutflowBC,
    ReflectingBC,
    region_centers,
)
from repro.core.block_id import BlockID, IndexBox
from repro.core.forest import BlockForest
from repro.core.ghost import fill_ghosts
from repro.util.geometry import Box


def forest2d(nvar=1, **kw):
    return BlockForest(Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), nvar, **kw)


def linear_field(forest, coeffs=(1.0, 2.0)):
    for b in forest:
        grids = b.meshgrid()
        b.interior[0] = sum(c * g for c, g in zip(coeffs, grids))


class TestOutflow:
    def test_ghosts_copy_nearest_interior(self):
        f = forest2d()
        linear_field(f)
        fill_ghosts(f, bc=OutflowBC())
        b = f.blocks[BlockID(0, (0, 0))]
        # x-low ghosts equal the first interior column.
        np.testing.assert_allclose(b.data[0, 0, 2:-2], b.data[0, 2, 2:-2])
        np.testing.assert_allclose(b.data[0, 1, 2:-2], b.data[0, 2, 2:-2])

    def test_corner_outside_domain_filled(self):
        f = forest2d()
        for b in f:
            b.interior[...] = 3.0
        fill_ghosts(f, bc=OutflowBC())
        b = f.blocks[BlockID(0, (0, 0))]
        assert np.all(b.data[0, :2, :2] == 3.0)  # (-x,-y) corner


class TestExtrapolation:
    def test_linear_exact(self):
        """Exact in every ghost cell outside the domain and every one the
        exchange fills (the corner between four blocks is not read)."""
        f = forest2d()
        linear_field(f, (2.0, -1.0))
        fill_ghosts(f, bc=ExtrapolationBC())
        read = read_cells(f)
        for b in f:
            Xg, Yg = b.meshgrid(include_ghost=True)
            check = read[b.id] | (Xg < 0) | (Xg > 1) | (Yg < 0) | (Yg > 1)
            np.testing.assert_allclose(
                b.data[0][check], (2 * Xg - Yg)[check], rtol=1e-12, atol=1e-12
            )


class TestReflecting:
    def test_flips_normal_momentum(self):
        f = forest2d(nvar=3)
        for b in f:
            b.interior[0] = 1.0
            b.interior[1] = 0.5   # "x-momentum"
            b.interior[2] = 0.25  # "y-momentum"
        bc = ReflectingBC({0: [1], 1: [2]})
        fill_ghosts(f, bc=bc)
        b = f.blocks[BlockID(0, (0, 0))]
        # Across x-low: var 1 flips, vars 0, 2 mirror unchanged.
        assert np.all(b.data[1, 0, 2:-2] == -0.5)
        assert np.all(b.data[0, 0, 2:-2] == 1.0)
        assert np.all(b.data[2, 0, 2:-2] == 0.25)
        # Across y-low: var 2 flips.
        assert np.all(b.data[2, 2:-2, 0] == -0.25)
        assert np.all(b.data[1, 2:-2, 0] == 0.5)

    def test_mirror_ordering(self):
        # Ghost layer q mirrors interior layer q (distance-symmetric).
        f = forest2d(nvar=1)
        b = f.blocks[BlockID(0, (0, 0))]
        for blk in f:
            X, _ = blk.meshgrid()
            blk.interior[0] = X
        fill_ghosts(f, bc=ReflectingBC())
        # interior columns at x = 1/16, 3/16 -> ghosts mirror: 1/16, 3/16.
        np.testing.assert_allclose(b.data[0, 1, 2:-2], b.data[0, 2, 2:-2])
        np.testing.assert_allclose(b.data[0, 0, 2:-2], b.data[0, 3, 2:-2])


class TestFixed:
    def test_values_from_centers(self):
        f = forest2d()
        linear_field(f)

        def values(centers):
            return (10.0 * centers[0] + centers[1])[np.newaxis]

        fill_ghosts(f, bc=FixedBC(values))
        b = f.blocks[BlockID(0, (0, 0))]
        Xg, Yg = b.meshgrid(include_ghost=True)
        np.testing.assert_allclose(
            b.data[0, :2, 2:-2], (10 * Xg + Yg)[:2, 2:-2], rtol=1e-12
        )


class TestComposite:
    def test_per_face_dispatch(self):
        f = forest2d()
        for b in f:
            b.interior[...] = 1.0
        bc = CompositeBC(
            {0: FixedBC(lambda c: np.full((1,) + c[0].shape, 9.0))},
            default=OutflowBC(),
        )
        fill_ghosts(f, bc=bc)
        b = f.blocks[BlockID(0, (0, 0))]
        assert np.all(b.data[0, :2, 2:-2] == 9.0)   # x-low fixed
        assert np.all(b.data[0, 2:-2, :2] == 1.0)   # y-low outflow


class TestRegionCenters:
    def test_matches_block_meshgrid(self):
        f = forest2d()
        b = f.blocks[BlockID(0, (1, 0))]
        centers = region_centers(f, 0, b.cell_box)
        X, Y = b.meshgrid()
        np.testing.assert_allclose(centers[0], X)
        np.testing.assert_allclose(centers[1], Y)

    def test_extends_outside_domain(self):
        f = forest2d()
        region = IndexBox((-2, 0), (0, 4))
        X, _ = region_centers(f, 0, region)
        assert X[0, 0] == pytest.approx(-2 * 0.125 + 0.0625)
