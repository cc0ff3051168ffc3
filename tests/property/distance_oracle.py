"""The NumPy distance matrices the tests/property oracles score with.

The C covers evaluate Euclidean distances themselves (libm ``hypot``, which
equals ``np.hypot`` bit for bit); the oracles build the same values as
one elementwise ``np.hypot``.  A metric other than Euclidean has no
array formula, so :func:`distance_matrix` hands it to the kernel's
per-pair fill, :meth:`QueryKernel.distance_matrix_for`.
"""

import numpy as np



def euclidean_matrix(qx, qy, px, py):
    """Pairwise planar distances: rows = query points, columns = points.

    ``np.hypot`` agrees with ``math.hypot`` to the last ulp (its
    elementwise loop can round differently on a fraction of inputs), so
    each entry matches ``EuclideanDistance()(q, p)`` to ≲2e-16 relative.
    """
    return np.hypot(qx[:, None] - px[None, :], qy[:, None] - py[None, :])


def is_generic(qk) -> bool:
    """Does *qk*'s metric lack the C round's Euclidean formula?"""
    return not qk.euclidean


def distance_matrix(qk, coords):
    """The ``|Q| x N`` distance matrix of *qk*'s query against a raw
    ``(N, 2)`` float array of point coordinates."""
    if is_generic(qk):
        return qk.distance_matrix_for(coords)
    qx = np.array([q.x for q in qk.query], dtype=float)
    qy = np.array([q.y for q in qk.query], dtype=float)
    return euclidean_matrix(qx, qy, coords[:, 0], coords[:, 1])
