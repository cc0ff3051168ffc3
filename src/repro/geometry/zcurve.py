"""Z-order (Morton) space-filling curve.

Section IV of the paper assigns every grid cell "a unique numerical ID by
using space filling curve, which maps multidimensional cells to 1-dimensional
integer domain".  We use the Morton curve: the ID of cell ``(cx, cy)`` at
grid depth ``d`` interleaves the bits of the two coordinates.  The curve is a
bijection between ``[0, 2^d)^2`` and ``[0, 4^d)``, and it preserves the
quad-tree parent/child relation: the parent of a cell at depth ``d`` is
simply ``z >> 2`` at depth ``d - 1``, which is exactly the aggregation step
used when building the hierarchical inverted cell list.
"""

from __future__ import annotations

from typing import Tuple

_MAX_DEPTH = 16  # 2^16 x 2^16 cells is far beyond anything the paper uses.


def _part1by1(n: int) -> int:
    """Spread the low 16 bits of *n* so a zero sits between each bit."""
    n &= 0x0000FFFF
    n = (n | (n << 8)) & 0x00FF00FF
    n = (n | (n << 4)) & 0x0F0F0F0F
    n = (n | (n << 2)) & 0x33333333
    n = (n | (n << 1)) & 0x55555555
    return n


def _compact1by1(n: int) -> int:
    """Inverse of :func:`_part1by1`: gather every other bit."""
    n &= 0x55555555
    n = (n | (n >> 1)) & 0x33333333
    n = (n | (n >> 2)) & 0x0F0F0F0F
    n = (n | (n >> 4)) & 0x00FF00FF
    n = (n | (n >> 8)) & 0x0000FFFF
    return n


def z_encode(cx: int, cy: int, depth: int) -> int:
    """Morton code of cell column *cx*, row *cy* at grid *depth*.

    ``depth`` is the ``d`` of the paper's d-Grid: the space is split into
    ``2^d x 2^d`` cells, so both coordinates must be in ``[0, 2^d)``.
    """
    if not 0 < depth <= _MAX_DEPTH:
        raise ValueError(f"depth must be in (0, {_MAX_DEPTH}], got {depth}")
    side = 1 << depth
    if not (0 <= cx < side and 0 <= cy < side):
        raise ValueError(f"cell ({cx}, {cy}) outside a {side}x{side} grid")
    return z_encode_many(cx, cy)


def z_encode_many(cx, cy):
    """:func:`z_encode`, element by element, over two integer arrays (in range)."""
    return (_part1by1(cy) << 1) | _part1by1(cx)


def z_decode(z: int, depth: int) -> Tuple[int, int]:
    """Invert :func:`z_encode`: recover ``(cx, cy)`` from a Morton code."""
    if not 0 < depth <= _MAX_DEPTH:
        raise ValueError(f"depth must be in (0, {_MAX_DEPTH}], got {depth}")
    if not 0 <= z < (1 << (2 * depth)):
        raise ValueError(f"code {z} outside a depth-{depth} grid")
    return _compact1by1(z), _compact1by1(z >> 1)


def z_parent(z: int) -> int:
    """Morton code of the parent cell one level up the quad hierarchy."""
    return z >> 2


def z_children(z: int) -> Tuple[int, int, int, int]:
    """Morton codes of the four child cells one level down."""
    base = z << 2
    return (base, base + 1, base + 2, base + 3)
