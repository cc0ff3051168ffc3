"""Geometric substrate: points, rectangles, space-filling curves, quad-grids.

Everything in this package is pure geometry with no knowledge of
trajectories or activities.  The GAT index (:mod:`repro.index.gat`) builds
its hierarchy of cells on :class:`~repro.geometry.grid.HierarchicalGrid`,
and the R-tree / IR-tree baselines use the rectangle arithmetic from
:mod:`repro.geometry.primitives`.
"""

from repro.geometry.primitives import BoundingBox, Rect
from repro.geometry.zcurve import z_decode, z_encode
from repro.geometry.grid import Cell, GridLevel, HierarchicalGrid

__all__ = [
    "BoundingBox",
    "Rect",
    "z_encode",
    "z_decode",
    "Cell",
    "GridLevel",
    "HierarchicalGrid",
]
