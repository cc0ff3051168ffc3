"""Index structures: the paper's GAT plus the three baseline indexes.

* :mod:`repro.index.gat` — the Grid index for Activity Trajectories
  (Section IV): HICL, ITL, TAS and APL assembled by
  :class:`~repro.index.gat.index.GATIndex`.
* :mod:`repro.index.inverted` — the activity inverted list of the IL
  baseline (Section III-A).
* :mod:`repro.index.rtree` — an R-tree built from scratch (STR bulk
  load) for the RT baseline (Section III-B).
* :mod:`repro.index.irtree` — the IR-tree: the R-tree augmented with
  per-node inverted activity files (Section III-C).
"""

from repro.index.inverted import InvertedIndex
from repro.index.rtree import RTree, RTreeNode
from repro.index.irtree import IRTree
from repro.index.gat import GATIndex

__all__ = ["InvertedIndex", "RTree", "RTreeNode", "IRTree", "GATIndex"]
