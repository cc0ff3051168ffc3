"""Planar geometric primitives shared by every spatial index in the library.

The paper's datasets are metropolitan-scale (Los Angeles / New York), so all
query processing happens in a locally-projected planar coordinate system
measured in kilometres.  :mod:`repro.model.distance` provides the projection
from latitude/longitude; this module only deals with already-projected
``(x, y)`` pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

Coord = Tuple[float, float]


def euclidean(a: Coord, b: Coord) -> float:
    """Straight-line distance between two planar points."""
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return math.hypot(dx, dy)


def min_dist_to_box(
    point: Coord, min_x: float, min_y: float, max_x: float, max_y: float
) -> float:
    """``MINDIST`` from *point* to the box ``[min_x, max_x] x [min_y, max_y]``
    given as bare scalars — the one implementation behind
    :meth:`Rect.min_dist` and the grid's object-free cell MINDIST, so the
    two agree to the last bit (the value orders best-first heaps).
    ``math.hypot``, not ``np.hypot``: the two differ in the last bit."""
    x, y = point
    dx = 0.0
    if x < min_x:
        dx = min_x - x
    elif x > max_x:
        dx = x - max_x
    dy = 0.0
    if y < min_y:
        dy = min_y - y
    elif y > max_y:
        dy = y - max_y
    if dx == 0.0:
        return dy
    if dy == 0.0:
        return dx
    return math.hypot(dx, dy)


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    Instances are immutable; all combinators return new rectangles.  A
    degenerate rectangle (a point) is valid and frequently used for leaf
    entries of the R-tree.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                f"malformed rectangle: ({self.min_x}, {self.min_y}, "
                f"{self.max_x}, {self.max_y})"
            )

    @classmethod
    def from_point(cls, point: Coord) -> "Rect":
        """Degenerate rectangle covering a single point."""
        x, y = point
        return cls(x, y, x, y)

    @classmethod
    def from_points(cls, points: Iterable[Coord]) -> "Rect":
        """Tightest rectangle enclosing *points* (must be non-empty)."""
        it = iter(points)
        try:
            x, y = next(it)
        except StopIteration:
            raise ValueError("cannot build a rectangle from zero points") from None
        min_x = max_x = x
        min_y = max_y = y
        for x, y in it:
            if x < min_x:
                min_x = x
            elif x > max_x:
                max_x = x
            if y < min_y:
                min_y = y
            elif y > max_y:
                max_y = y
        return cls(min_x, min_y, max_x, max_y)

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def margin(self) -> float:
        """Half-perimeter, used by some split heuristics."""
        return self.width + self.height

    @property
    def center(self) -> Coord:
        return ((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains_point(self, point: Coord) -> bool:
        x, y = point
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle enclosing both."""
        return Rect(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def extend_point(self, point: Coord) -> "Rect":
        """Smallest rectangle enclosing ``self`` and *point*."""
        x, y = point
        return Rect(
            min(self.min_x, x),
            min(self.min_y, y),
            max(self.max_x, x),
            max(self.max_y, y),
        )

    def enlargement(self, other: "Rect") -> float:
        """Area growth incurred by absorbing *other* (R-tree ChooseLeaf)."""
        return self.union(other).area - self.area

    def min_dist(self, point: Coord) -> float:
        """Minimum Euclidean distance from *point* to this rectangle.

        Zero when the point lies inside the rectangle.  This is the classic
        ``MINDIST`` of Roussopoulos et al. used for best-first traversal of
        both the R-tree and the GAT cell hierarchy.
        """
        return min_dist_to_box(point, self.min_x, self.min_y, self.max_x, self.max_y)

    def corners(self) -> Iterator[Coord]:
        yield (self.min_x, self.min_y)
        yield (self.min_x, self.max_y)
        yield (self.max_x, self.min_y)
        yield (self.max_x, self.max_y)


def min_dist_point_rect(point: Coord, rect: Rect) -> float:
    """Function form of :meth:`Rect.min_dist` (handy for ``map``/partial)."""
    return rect.min_dist(point)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """The universe rectangle that a grid partitions, with helpers to
    normalise coordinates into ``[0, 1)^2``.

    Unlike :class:`Rect` this type knows that it is *the* space: it clamps
    slightly-out-of-range points (floating error at the far edge) instead of
    rejecting them.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x >= self.max_x or self.min_y >= self.max_y:
            raise ValueError("bounding box must have positive extent")

    @classmethod
    def from_points(cls, points: Sequence[Coord], pad: float = 1e-9) -> "BoundingBox":
        """Enclosing box of *points* with a tiny pad so no point sits exactly
        on the open upper edge."""
        rect = Rect.from_points(points)
        pad_x = max(pad, rect.width * 1e-6)
        pad_y = max(pad, rect.height * 1e-6)
        return cls(
            rect.min_x - pad_x,
            rect.min_y - pad_y,
            rect.max_x + pad_x,
            rect.max_y + pad_y,
        )

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    def as_rect(self) -> Rect:
        return Rect(self.min_x, self.min_y, self.max_x, self.max_y)

    def normalise(self, point: Coord) -> Coord:
        """Map *point* into ``[0, 1)^2``, clamping to the box."""
        nx = (point[0] - self.min_x) / self.width
        ny = (point[1] - self.min_y) / self.height
        eps = 1e-12
        nx = min(max(nx, 0.0), 1.0 - eps)
        ny = min(max(ny, 0.0), 1.0 - eps)
        return (nx, ny)
