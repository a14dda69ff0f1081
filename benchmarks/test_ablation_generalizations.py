"""Ablation Abl-3: the paper's Generalizations section.

"Options include: various orders of spatial accuracy can be achieved by
varying the number of ghost cells around each block; the neighbor
pointers can be extended to include blocks sharing low dimensional
boundaries; the constraint on the relative refinements of neighbors can
be loosened, allowing refinement level differences greater than one; the
initial block configuration need not be Cartesian [square]."

Reproduction:

* ghost width 1 vs 2 vs 3: memory and exchange-volume cost of higher
  spatial order;
* max_level_jump 1 vs 2 vs 3: cells needed to satisfy the constraint on
  a deeply refined spot (looser constraint -> fewer cascade blocks) vs
  the neighbor-count ceiling;
* face-only vs full (edge/corner) connectivity: exchange volume;
* a non-square 6 x 2 root configuration exercising anisotropic domains.
"""

import numpy as np
import pytest

from repro.core import BlockForest, BlockID, iter_transfers
from repro.core.ghost import all_offsets, ghost_region_for_offset
from repro.util.geometry import Box

from _tables import emit_table


def test_ghost_width(benchmark):
    rows = []
    vols = {}
    for g in (1, 2, 3):
        f = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (4, 4), (8, 8), nvar=1, n_ghost=g
        )
        volume = sum(t.message_cells for t in iter_transfers(f))
        vols[g] = volume
        rows.append(
            (g, "1st" if g == 1 else f"{g}nd/high-res",
             f"{f.ghost_cell_ratio():.2f}", volume)
        )
    emit_table(
        "ablation_ghost_width",
        "Abl-3a: ghost-layer width (spatial order) vs memory and "
        "exchange volume (4x4 roots of 8x8 cells)",
        ("ghosts", "order", "ghost ratio", "exchange cells"),
        rows,
        notes="paper: 'For first-order accurate spatial operators only "
        "one layer of ghost cells is needed; for so-called higher-"
        "resolution methods, more layers'",
    )
    assert vols[2] > 1.8 * vols[1]
    assert vols[3] > vols[2]
    benchmark(lambda: sum(
        t.message_cells for t in iter_transfers(
            BlockForest(Box((0.0, 0.0), (1.0, 1.0)), (4, 4), (8, 8),
                        nvar=1, n_ghost=2)
        )
    ))


def _deep_spot_forest(jump):
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (4, 4), (8, 8), nvar=1,
        max_level=3, max_level_jump=jump,
    )
    # Refine the leaf containing an interior point three levels deep.
    # The point sits away from the sibling cluster, so each refinement
    # puts fine blocks next to coarser regions and the constraint decides
    # how far refinement cascades outward.
    point = (0.12, 0.12)
    for _ in range(3):
        f.adapt([f.block_at(point).id])
    f.check_balance()
    return f


def test_level_jump_constraint(benchmark):
    rows = []
    cells = {}
    for jump in (1, 2, 3):
        f = _deep_spot_forest(jump)
        stats = f.neighbor_count_stats()
        cells[jump] = f.n_cells
        rows.append(
            (jump, f.n_blocks, f.n_cells, int(stats["max"]),
             2 ** (jump * (2 - 1)))
        )
    emit_table(
        "ablation_level_jump",
        "Abl-3b: loosened level-jump constraint (deep corner refinement "
        "to level 3, 2-D)",
        ("max jump k", "blocks", "cells", "max face neighbors",
         "2^(k(d-1)) bound"),
        rows,
        notes="paper: loosening the constraint trades fewer cascade "
        "refinements against more neighbors per face",
    )
    # Looser constraint -> fewer forced refinements -> fewer cells.
    assert cells[2] <= cells[1]
    assert cells[3] <= cells[2]
    assert cells[3] < cells[1]
    benchmark(lambda: _deep_spot_forest(2))


def test_connectivity_modes(benchmark):
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (4, 4), (8, 8), nvar=1, n_ghost=2
    )
    f.adapt([BlockID(0, (1, 1))])
    full = sum(t.message_cells for t in iter_transfers(f, fill_corners=True))
    faces = sum(t.message_cells for t in iter_transfers(f, fill_corners=False))
    n_full = sum(1 for _ in iter_transfers(f, fill_corners=True))
    n_faces = sum(1 for _ in iter_transfers(f, fill_corners=False))
    emit_table(
        "ablation_connectivity",
        "Abl-3c: face-only vs extended (edge/corner) connectivity",
        ("mode", "transfers", "exchange cells"),
        [("faces only", n_faces, faces), ("faces+edges+corners", n_full, full)],
        notes="paper: 'the neighbor pointers can be extended to include "
        "blocks sharing low dimensional boundaries'",
    )
    assert faces < full
    assert n_faces < n_full
    benchmark(lambda: sum(1 for _ in iter_transfers(f)))


def test_non_square_roots(benchmark):
    """Anisotropic root configuration (a 3:1 channel)."""
    f = BlockForest(
        Box((0.0, 0.0), (3.0, 1.0)), (6, 2), (8, 8), nvar=1, n_ghost=2
    )
    f.adapt([BlockID(0, (2, 0)), BlockID(0, (3, 1))])
    f.check_balance()
    f.check_coverage()
    from repro.amr.boundary import ExtrapolationBC
    from repro.core import fill_ghosts
    bc = ExtrapolationBC()
    for b in f:
        X, Y = b.meshgrid()
        b.interior[0] = X - 2 * Y
    fill_ghosts(f, bc=bc)
    # at level jump 1 the exchange fills the face slabs only
    worst = 0.0
    for b in f:
        Xg, Yg = b.meshgrid(include_ghost=True)
        g = b.n_ghost
        inside = (Xg > 0) & (Xg < 3) & (Yg > 0) & (Yg < 1)
        interior = np.zeros(b.padded_shape, dtype=bool)
        interior[g:-g, g:-g] = True
        filled = np.zeros(b.padded_shape, dtype=bool)
        for offset in all_offsets(2, faces_only=True):
            filled[ghost_region_for_offset(b, offset).slices(b.index_origin)] = True
        check = inside & ~interior & filled
        if check.any():
            worst = max(
                worst, float(np.abs(b.data[0] - (Xg - 2 * Yg))[check].max())
            )
    emit_table(
        "ablation_non_square",
        "Abl-3d: non-square root configuration (6x2 roots over a 3:1 "
        "channel, two refined blocks)",
        ("quantity", "value"),
        [("blocks", f.n_blocks), ("levels", f"{f.levels}"),
         ("ghost-exchange max error on linear field", f"{worst:.1e}")],
    )
    assert worst < 1e-12
    benchmark(lambda: fill_ghosts(f, bc=bc))
