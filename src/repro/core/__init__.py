"""Adaptive blocks — the paper's core data structure.

Public surface:

* :class:`BlockID`, :class:`IndexBox` — logical addressing & index algebra
* :class:`Block`, :class:`FaceNeighbors`, :class:`NeighborKind` — one block
* :class:`BlockForest`, :class:`AdaptSummary` — the dynamic decomposition
* :func:`fill_ghosts`, :func:`iter_transfers`, :class:`Transfer` — ghost
  exchange
* prolongation / restriction operators
* refinement criteria
"""

from repro.core.block import Block, FaceNeighbors, NeighborKind
from repro.core.block_id import BlockID, IndexBox
from repro.core.forest import AdaptSummary, BlockForest, ForestError
from repro.core.ghost import (
    Transfer,
    all_offsets,
    fill_ghosts,
    iter_transfers,
    region_owners,
)
from repro.core.prolong import minmod, prolong_inject, prolong_linear
from repro.core.reflux import FluxRegister
from repro.core.refine_criteria import (
    MonitorCriterion,
    RefinementCriterion,
    buffer_flags,
    compute_flags,
    curvature_indicator,
    geometric_indicator,
    gradient_indicator,
)
from repro.core.restrict import restrict_mean

__all__ = [
    "Block",
    "FaceNeighbors",
    "NeighborKind",
    "BlockID",
    "IndexBox",
    "AdaptSummary",
    "BlockForest",
    "ForestError",
    "Transfer",
    "all_offsets",
    "fill_ghosts",
    "iter_transfers",
    "region_owners",
    "FluxRegister",
    "minmod",
    "prolong_inject",
    "prolong_linear",
    "MonitorCriterion",
    "RefinementCriterion",
    "buffer_flags",
    "compute_flags",
    "curvature_indicator",
    "geometric_indicator",
    "gradient_indicator",
    "restrict_mean",
]
