"""The dense ``Dmom`` row scan the C fold (``gat_dmom_block``, behind
``repro.core.kernels.block_dmom``) ran before its cover relaxation learned
to skip columns — kept verbatim (bar the names) as the oracle
``test_kernel_parity.py`` compares the production DP against with ``==``,
at every threshold, over one candidate's arrays
(``per_candidate_oracle.CandidateArrays``).

Every relevant point is folded into every cover state it touches
(``for t in range(1, size): if t & pm``), the segment base ``A[0]`` is a
running prefix minimum of the previous row, and single-activity rows run
their own ``(a0, best)`` recurrence.  The production DP drives the same
relaxation from a per-mask transition table, reads ``G(i-1, j)``
directly and leaves out the folds that cannot change a value at or
below the threshold; this one leaves out nothing.
"""

from typing import List

from per_candidate_oracle import CandidateArrays

from repro.core.kernels import INFINITY, QueryKernel


def _dense_row_single(prev: List[float], row: List[float], mrow: List[int]) -> List[float]:
    """One single-activity Dmom row as the scalar recurrence.

    Covers are single points, so the cover state ``A`` collapses to
    ``(a0, best)``: ``a0`` is the running prefix-min of ``prev[1..j]``
    (the cheapest place a new segment may start) and ``best`` the best
    ``a0 + d`` seen so far.
    """
    n = len(row)
    cur = [INFINITY] * (n + 1)
    a0 = INFINITY
    best = INFINITY
    for j in range(1, n + 1):
        pj = prev[j]
        if pj < a0:
            a0 = pj
        if mrow[j - 1]:
            v = a0 + row[j - 1]
            if v < best:
                best = v
        cur[j] = best
    return cur


def dense_dmom_prepared(
    qk: QueryKernel, cand: CandidateArrays, threshold: float = INFINITY
) -> float:
    """``Dmom(Q, Tr)`` over the prepared arrays, every fold performed.

    Each row is one O(n·2^b) scan: ``A[t]`` is the cheapest ``G(i-1, k) +
    (cover of mask t by points k..j)`` over all segment starts ``k ≤ j``.
    Folding point ``j`` in updates ``A[0]`` with ``G(i-1, j)`` and then
    relaxes ``A[t] ← A[t & ~mask_j] + d_j`` in ascending mask order;
    ``G(i, j)`` is ``A[full]`` after the fold.  When a finished row's last
    entry exceeds *threshold* the scan aborts (Lemma 4).
    """
    n = len(cand.positions)
    prev = [0.0] * (n + 1)  # G(0, *) = 0 — guardian row
    for i in range(qk.m):
        row = cand.dist_matrix[i].tolist()
        mrow = cand.mask_matrix[i].tolist()
        if qk.n_bits[i] == 1:
            cur = _dense_row_single(prev, row, mrow)
        else:
            cur = [INFINITY] * (n + 1)
            size = 1 << qk.n_bits[i]
            full = size - 1
            a = [INFINITY] * size
            for j in range(1, n + 1):
                pj = prev[j]
                if pj < a[0]:
                    a[0] = pj
                pm = mrow[j - 1]
                if pm:
                    d = row[j - 1]
                    for t in range(1, size):
                        if t & pm:
                            v = a[t & ~pm] + d
                            if v < a[t]:
                                a[t] = v
                cur[j] = a[full]
        if cur[n] > threshold:
            return INFINITY
        prev = cur
    return prev[n]
