"""GAT — the Grid index for Activity Trajectories (Section IV).

Four components, mirroring Figure 2 of the paper:

i.   :class:`~repro.index.gat.hicl.HICL` — Hierarchical Inverted Cell
     List: per activity, per grid level, the cells containing it (a
     bitmap over the level's Morton codes).
ii.  :class:`~repro.index.gat.itl.ITL` — Inverted Trajectory List: per
     leaf cell, per activity, the trajectories (as APL rows) whose
     segment carries the activity inside the cell.
iii. :class:`~repro.index.gat.tas.SketchTable` — Trajectory Activity
     Sketch: per trajectory, M compact ID intervals summarising its
     activity set (one ``[N, M, 2]`` array in APL row order).
iv.  :class:`~repro.index.gat.apl.APLStore` — Activity Posting List: per
     trajectory, per activity, the point positions — one row-ordered CSR
     array image whose per-trajectory records the simulated disk charges.

:class:`~repro.index.gat.index.GATIndex` builds and owns all four.
"""

from repro.index.gat.hicl import HICL
from repro.index.gat.itl import ITL
from repro.index.gat.tas import SketchTable, TrajectorySketch, optimal_intervals
from repro.index.gat.apl import APLStore
from repro.index.gat.index import GATIndex

__all__ = [
    "HICL",
    "ITL",
    "TrajectorySketch",
    "optimal_intervals",
    "SketchTable",
    "APLStore",
    "GATIndex",
]
