"""Index structures: the paper's GAT plus the three baseline indexes.

* :mod:`repro.index.gat` — the Grid index for Activity Trajectories
  (Section IV): HICL, ITL, TAS and APL assembled by
  :class:`~repro.index.gat.index.GATIndex`.
* :mod:`repro.index.inverted` — the activity inverted list of the IL
  baseline (Section III-A).
* :mod:`repro.index.rtree` — an R-tree built from scratch (STR bulk
  load) for the RT baseline (Section III-B); packed with per-point
  activity sets it is the IRT baseline's IR-tree (Section III-C).
"""

from repro.index.inverted import InvertedIndex
from repro.index.rtree import RTree, RTreeNode
from repro.index.gat import GATIndex

__all__ = ["InvertedIndex", "RTree", "RTreeNode", "GATIndex"]
