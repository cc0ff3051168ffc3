"""The per-candidate NumPy path ``repro.core.kernels`` ran before
``MatchEvaluator.dmm`` / ``dmom`` scored one-candidate rounds through the
C block — kept (bar the names) as the reference
``test_block_kernel_parity.py`` compares the block ``Dmm`` against, and
as the candidate layout ``dense_dmom_oracle.py`` reads:

* :class:`CandidateArrays` / :func:`prepare_candidate` — one candidate's
  relevant positions, ``[|Q|, n]`` distance matrix and activity-overlap
  bitmasks, from the object model (``trajectory.posting_lists``,
  ``trajectory.coord_array()``);
* :func:`dmm_prepared` — Algorithm 3 per row over those arrays: a masked
  ``min`` for single-activity rows, the ascending-distance scan with the
  paper's early termination (:func:`_mpm_scan`) for the others;
* :func:`c_dmom` — the ``Dmom`` fold (``gat_dmom_block``) over one
  candidate's columns with no ``Dmm`` gate in front of it.
"""

from typing import List, Optional, Sequence

import numpy as _np
from bound_oracle import _cover_steps
from distance_oracle import distance_matrix
from numpy_round_oracle import c_fold

from repro.core.kernels import INFINITY, QueryKernel


def _mpm_scan(
    row: List[float], mrow: List[int], order: Sequence[int], n_bits: int
) -> float:
    """Algorithm 3 over precomputed arrays: ascending-distance scan with the
    paper's early termination (stop as soon as the best full cover is at
    most the next unprocessed point's distance)."""
    steps = _cover_steps(n_bits)
    dp = [0.0] + [INFINITY] * ((1 << n_bits) - 1)
    best = INFINITY
    for c in order:
        d = row[c]
        if best <= d:
            break
        for t, rest in steps[mrow[c]]:
            v = dp[rest] + d
            if v < dp[t]:
                dp[t] = v
        best = dp[-1]
    return best


class CandidateArrays:
    """Everything the kernels need about one (query, trajectory) pair: the
    trajectory positions of its relevant columns, the ``[|Q|, n]`` distance
    matrix over them and the same-shape ``int64`` activity-overlap
    bitmasks — the layout of one candidate's columns of a
    ``CandidateBlock``."""

    __slots__ = ("positions", "dist_matrix", "mask_matrix")

    def __init__(self, positions: List[int], dist_matrix, mask_matrix) -> None:
        self.positions = positions
        self.dist_matrix = dist_matrix
        self.mask_matrix = mask_matrix


def prepare_candidate(qk: QueryKernel, trajectory) -> Optional[CandidateArrays]:
    """Build the distance matrix and overlap masks for one candidate.

    Relevant positions are the union of the trajectory's posting lists over
    all query activities — the same compressed sub-sequence the scalar DP
    runs over (:func:`repro.core.order_match.relevant_points`).  Returns
    ``None`` when the trajectory carries no query activity at all.
    """
    posting = trajectory.posting_lists
    pos_set: set = set()
    for activity in qk.query.all_activities:
        ps = posting.get(activity)
        if ps:
            pos_set.update(ps)
    if not pos_set:
        return None
    positions = sorted(pos_set)
    col_of = {p: c for c, p in enumerate(positions)}
    mask = _np.zeros((qk.m, len(positions)), dtype=_np.int64)
    for mrow, bit_values in zip(mask, qk.bit_values):
        for activity, bit in bit_values.items():
            ps = posting.get(activity)
            if ps:
                mrow[[col_of[p] for p in ps]] |= bit
    dist = distance_matrix(qk, trajectory.coord_array()[positions])
    return CandidateArrays(positions, dist, mask)


def dmm_prepared(qk: QueryKernel, cand: CandidateArrays, stats=None) -> float:
    """``Dmm(Q, Tr)``: per-query-point Algorithm 3 over the distance rows.

    Single-activity query points (the common case) reduce to a masked
    ``min`` over the candidate columns — no cover DP at all.  Each row's
    candidate count goes to ``point_match_points`` *before* the empty-row
    early exit, as in the scalar fold.
    """
    total = 0.0
    for i, n_bits in enumerate(qk.n_bits):
        mrow = cand.mask_matrix[i]
        cols = _np.flatnonzero(mrow)
        if stats is not None:
            stats.point_match_points += len(cols)
        if not len(cols):
            return INFINITY
        row = cand.dist_matrix[i]
        if n_bits == 1:
            d = float(row[cols].min())
        else:
            # Stable sort on distance keeps equal-distance columns in
            # ascending position order — the scalar (dist, pos) tie-break.
            order = cols[_np.argsort(row[cols], kind="stable")]
            d = _mpm_scan(row.tolist(), mrow.tolist(), order.tolist(), n_bits)
        if d == INFINITY:
            return INFINITY
        total += d
    return total


def c_dmom(qk: QueryKernel, dist, mask, threshold: float = INFINITY) -> float:
    """``Dmom`` of the one candidate whose columns are the whole ``[|Q|,
    n]`` *dist* / *mask*: the C fold alone, no ``Dmm`` gate."""
    out = _np.full(1, INFINITY)
    one = _np.zeros(1, dtype=_np.int64)  # order [0], segment start 0
    lengths = _np.array([dist.shape[1]], dtype=_np.int64)
    c_fold(qk, dist, mask, one, None, one, lengths, threshold, 0, out)
    return float(out[0])
