"""Distance metrics between query locations and trajectory points.

All match-distance algorithms (:mod:`repro.core.match`,
:mod:`repro.core.order_match`) take a :class:`DistanceMetric` strategy
instead of hard-coding Euclidean distance: the paper's worked examples
(Figure 1, Tables II-III) supply raw distance *matrices*, which
:class:`MatrixDistance` reproduces exactly.  Every dataset the library
generates is in planar kilometres, measured with :class:`EuclideanDistance`.
"""

from __future__ import annotations

import math
from typing import Mapping, Protocol, Tuple

Coord = Tuple[float, float]


class DistanceMetric(Protocol):
    """Distance between a query coordinate and a point coordinate."""

    def __call__(self, a: Coord, b: Coord) -> float:  # pragma: no cover - protocol
        ...


class EuclideanDistance:
    """Planar straight-line distance (the library default)."""

    __slots__ = ()

    def __call__(self, a: Coord, b: Coord) -> float:
        return math.hypot(a[0] - b[0], a[1] - b[1])

    def __repr__(self) -> str:  # pragma: no cover
        return "EuclideanDistance()"


class MatrixDistance:
    """Distance read from an explicit table, used to replay paper examples.

    The coordinates passed in are expected to be *labels* encoded as
    coordinates: the convention used in tests is that a query point ``q_i``
    has coordinate ``(i, -1)`` and a trajectory point ``p_j`` has coordinate
    ``(j, tr)``; the table maps such pairs to the figure's numbers.  Any
    pair missing from the table raises ``KeyError`` loudly rather than
    silently guessing.
    """

    __slots__ = ("_table",)

    def __init__(self, table: Mapping[Tuple[Coord, Coord], float]) -> None:
        self._table = dict(table)

    def __call__(self, a: Coord, b: Coord) -> float:
        try:
            return self._table[(a, b)]
        except KeyError:
            return self._table[(b, a)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"MatrixDistance({len(self._table)} entries)"
