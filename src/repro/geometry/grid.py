"""Hierarchical quad-grid: the spatial skeleton of the GAT index.

Section IV: "we construct a d-Grid by dividing the entire spatial region into
``2^d x 2^d`` quad cells.  Then we further build (d-1)-Grid, (d-2)-Grid, ...,
1-Grid, which will form a hierarchy of cells."

A :class:`HierarchicalGrid` owns the bounding box of the dataset and exposes
pure-geometry operations: locate the leaf cell of a point, compute the
rectangle and ``MINDIST`` of any cell at any level, and walk parent/child
links via the Morton code arithmetic from :mod:`repro.geometry.zcurve`.
Activity bookkeeping (which activities/trajectories live in a cell) is the
index's job, not the grid's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.geometry.primitives import BoundingBox, Coord, Rect, min_dist_to_box
from repro.geometry.zcurve import z_children, z_decode, z_encode, z_encode_many, z_parent


@dataclass(frozen=True, slots=True)
class Cell:
    """A cell identified by its grid *level* and Morton *code*.

    ``level`` counts from 1 (the 1-Grid, ``2x2`` cells) to the grid depth
    ``d`` (the leaf d-Grid).  Together ``(level, code)`` identify a cell
    uniquely across the hierarchy.
    """

    level: int
    code: int

    def parent(self) -> "Cell":
        if self.level <= 1:
            raise ValueError("a level-1 cell has no parent")
        return Cell(self.level - 1, z_parent(self.code))

    def children(self) -> Tuple["Cell", "Cell", "Cell", "Cell"]:
        lvl = self.level + 1
        return tuple(Cell(lvl, c) for c in z_children(self.code))  # type: ignore[return-value]


class GridLevel:
    """Geometry of one level of the hierarchy: a ``2^level x 2^level`` grid."""

    __slots__ = ("level", "side", "_box", "_columns", "_rows")

    def __init__(self, box: BoundingBox, level: int) -> None:
        self.level = level
        self.side = 1 << level
        self._box = box
        #: Per column / row ``k``, the cell extent ``(lo, hi)`` along that
        #: axis, ``lo = box.min + k·w``, ``hi = lo + w`` (``w`` = cell size):
        #: the one corner arithmetic behind :meth:`rect`, :meth:`min_dist`
        #: and the C walk's gaps (:meth:`HierarchicalGrid.extents`).
        self._columns = _extents(box.min_x, box.width / self.side, self.side)
        self._rows = _extents(box.min_y, box.height / self.side, self.side)

    @property
    def n_cells(self) -> int:
        return self.side * self.side

    def locate(self, point: Coord) -> int:
        """Morton code of the cell containing *point* (clamped to the box)."""
        nx, ny = self._box.normalise(point)
        cx = int(nx * self.side)
        cy = int(ny * self.side)
        return z_encode(cx, cy, self.level)

    def locate_many(self, xy: np.ndarray) -> np.ndarray:
        """:meth:`locate` of every row of the ``(n, 2)`` float array *xy*, as an
        ``int64`` array: the same IEEE operations in the same order, so equal
        to the scalar codes bit for bit, points clamped at the box edge too."""
        box, top = self._box, 1.0 - 1e-12  # BoundingBox.normalise's clamp
        nx = np.clip((xy[:, 0] - box.min_x) / box.width, 0.0, top)
        ny = np.clip((xy[:, 1] - box.min_y) / box.height, 0.0, top)
        return z_encode_many((nx * self.side).astype(np.int64), (ny * self.side).astype(np.int64))

    def rect(self, code: int) -> Rect:
        """Rectangle covered by the cell with Morton code *code*."""
        cx, cy = z_decode(code, self.level)
        (min_x, max_x), (min_y, max_y) = self._columns[cx], self._rows[cy]
        return Rect(min_x, min_y, max_x, max_y)

    def min_dist(self, point: Coord, code: int) -> float:
        """``MINDIST`` from *point* to the cell *code* at this level —
        ``rect(code).min_dist(point)`` without the ``Rect``: the same corners
        fed to the same scalar function, so bit-identical."""
        cx, cy = z_decode(code, self.level)
        (min_x, max_x), (min_y, max_y) = self._columns[cx], self._rows[cy]
        return min_dist_to_box(point, min_x, min_y, max_x, max_y)


def _extents(origin: float, width: float, n: int) -> List[Tuple[float, float]]:
    return [(lo, lo + width) for lo in (origin + k * width for k in range(n))]


class HierarchicalGrid:
    """The full 1-Grid ... d-Grid pyramid over a bounding box.

    Parameters
    ----------
    box:
        The universe rectangle (dataset bounding box).
    depth:
        The ``d`` of the paper's d-Grid; the leaf level has ``2^d x 2^d``
        cells.  The paper's default is ``d = 8`` (256 x 256 cells).
    """

    def __init__(self, box: BoundingBox, depth: int) -> None:
        if depth < 1:
            raise ValueError(f"grid depth must be >= 1, got {depth}")
        self.box = box
        self.depth = depth
        self.levels: List[GridLevel] = [GridLevel(box, lvl) for lvl in range(1, depth + 1)]

    def level(self, lvl: int) -> GridLevel:
        """The :class:`GridLevel` for level *lvl* (1-based)."""
        if not 1 <= lvl <= self.depth:
            raise ValueError(f"level {lvl} outside [1, {self.depth}]")
        return self.levels[lvl - 1]

    def extents(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(columns, rows)``: every level's column and row extents
        ``(lo, hi)``, levels back to back from level 1 (level ``l``'s
        ``2^l`` start at pair ``2^l - 2``) — what the C walk computes each
        child's gaps from, with :func:`min_dist_to_box`'s comparisons, so
        its MINDIST is :meth:`GridLevel.min_dist` bit for bit."""
        return (
            np.array([e for level in self.levels for e in level._columns], dtype=np.float64),
            np.array([e for level in self.levels for e in level._rows], dtype=np.float64),
        )

    @property
    def leaf_level(self) -> GridLevel:
        return self.levels[-1]

    def locate_leaf(self, point: Coord) -> Cell:
        """Leaf cell containing *point*."""
        return Cell(self.depth, self.leaf_level.locate(point))

    def locate(self, point: Coord, lvl: int) -> Cell:
        """Cell containing *point* at level *lvl*."""
        return Cell(lvl, self.level(lvl).locate(point))

    def rect(self, cell: Cell) -> Rect:
        return self.level(cell.level).rect(cell.code)

    def min_dist(self, point: Coord, cell: Cell) -> float:
        return self.level(cell.level).min_dist(point, cell.code)

    def ancestors(self, cell: Cell) -> Iterator[Cell]:
        """Cells strictly above *cell*, from its parent up to level 1."""
        while cell.level > 1:
            cell = cell.parent()
            yield cell

    def cell_of_leaf_at(self, leaf_code: int, lvl: int) -> Cell:
        """Ancestor at level *lvl* of the leaf cell *leaf_code*.

        Works by shifting the Morton code: each level up drops two bits.
        """
        if not 1 <= lvl <= self.depth:
            raise ValueError(f"level {lvl} outside [1, {self.depth}]")
        return Cell(lvl, leaf_code >> (2 * (self.depth - lvl)))
