"""Rectangle containment and area, which the library itself no longer
needs: the reference the grid, R-tree and rectangle tests check against."""


def contains_point(rect, point) -> bool:
    x, y = point
    return rect.min_x <= x <= rect.max_x and rect.min_y <= y <= rect.max_y


def contains_rect(outer, inner) -> bool:
    return (
        outer.min_x <= inner.min_x
        and outer.min_y <= inner.min_y
        and outer.max_x >= inner.max_x
        and outer.max_y >= inner.max_y
    )


def area(rect) -> float:
    return rect.width * rect.height
