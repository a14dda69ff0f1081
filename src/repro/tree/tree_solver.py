"""Finite-volume solver over cell-tree leaves — the slow baseline.

The same physics as :mod:`repro.solvers` (flux functions, Rusanov
dissipation), but organized the way a cell-based tree forces it to be:

* one cell per node — state gathered through per-cell indirect
  addressing (Python object attribute access, the analogue of the
  pointer chasing that throttled cell-based trees on the T3D);
* neighbors located by tree traversal for every face of every cell,
  every step;
* no whole-array operations — every flux is computed on a 1-cell array.

The per-cell time of :func:`tree_step` versus the per-cell time of the
block scheme is the paper's "significantly faster than a single
processor solving the same problem using a cell based tree" claim,
reproduced by ``benchmarks/test_table_block_vs_tree.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.solvers.scheme import FVScheme
from repro.tree.celltree import CellNode, CellTree
from repro.tree.traversal import neighbor_leaves
from repro.util.geometry import face_axis, face_side

__all__ = ["tree_step", "tree_stable_dt", "tree_total"]


def _face_value(
    tree: CellTree, leaf: CellNode, face: int
) -> Optional[np.ndarray]:
    """State on the other side of ``face``: the neighbor leaf's value,
    restricted (averaged) when several finer leaves share the face, or
    the coarser leaf's value (injection) when the neighbor is coarser.
    Returns None at domain boundaries (caller applies outflow)."""
    leaves, _ = neighbor_leaves(tree, leaf, face)
    if not leaves:
        return None
    if len(leaves) == 1:
        return leaves[0].data
    return np.mean([lf.data for lf in leaves], axis=0)


def tree_step(tree: CellTree, scheme: FVScheme, dt: float) -> None:
    """One first-order finite-volume step over every leaf of the tree.

    Boundary faces use outflow (zero-gradient).  The update is gathered
    cell by cell — deliberately so; this function *is* the measurement
    of single-cell indirect addressing.
    """
    updates: List[Tuple[CellNode, np.ndarray]] = []
    for leaf in tree.leaves():
        w_c = scheme.cons_to_prim(leaf.data[:, np.newaxis])
        dx = tree.cell_widths(leaf)
        du = np.zeros(tree.nvar)
        for axis in range(tree.ndim):
            for side in (0, 1):
                face = 2 * axis + side
                other = _face_value(tree, leaf, face)
                if other is None:
                    other = leaf.data
                w_o = scheme.cons_to_prim(np.asarray(other)[:, np.newaxis])
                sides = (w_c, w_o) if side == 1 else (w_o, w_c)
                f = scheme.riemann(scheme, np.stack(sides, axis=1), axis)[:, 0]
                sign = 1.0 if side == 1 else -1.0
                du -= sign * f / dx[axis]
        updates.append((leaf, du))
    for leaf, du in updates:
        leaf.data = leaf.data + dt * du


def tree_stable_dt(tree: CellTree, scheme: FVScheme) -> float:
    """CFL-stable step over all leaves (cell-by-cell, like everything
    else in the tree baseline)."""
    dt = np.inf
    for leaf in tree.leaves():
        dx = tree.cell_widths(leaf)
        w = scheme.cons_to_prim(leaf.data[:, np.newaxis])
        s = 0.0
        for a in range(tree.ndim):
            s = max(s, float(scheme.max_char_speed(w, a)[0]))
        if s > 0:
            dt = min(dt, scheme.cfl / sum(s / d for d in dx))
    return dt


def tree_total(tree: CellTree, var: int = 0) -> float:
    """Volume-weighted total of one conserved variable over all leaves
    (the conservation diagnostic)."""
    total = 0.0
    for leaf in tree.leaves():
        total += leaf.data[var] * tree.cell_box(leaf).volume
    return total
