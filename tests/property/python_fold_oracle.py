"""The ``Dmom`` folds ``repro.core.kernels`` ran in Python before the fold
moved to C (``gat_dmom_block`` in ``repro/native/gat.c``) — kept (bar the
names) as the oracles ``test_kernel_parity.py`` and
``test_block_kernel_parity.py`` compare the C fold against with ``==``:

* :func:`python_dmom_prepared` — the table-driven row fold over the *list
  form* of a candidate (``dist_rows`` / ``mask_rows``, what
  :func:`list_form` slices out of the array form);
* :func:`dmom_all_single_np` — the all-single-activity DP as two
  ``minimum.accumulate`` passes per row;
* :func:`python_block_dmom` — ``block_dmom`` as it was: mixed queries walk
  the survivors in ascending-gate order through the list-form fold
  (:func:`candidate_lists`, the three ``tolist`` slices per candidate),
  tightening the threshold to the k-th smallest ``Dmom``;
  all-single-activity queries run :func:`block_dmom_all_single`, the
  batched DP over a padded ``[survivors, Lmax]`` matrix, untightened.
"""

import heapq
from typing import List, Optional

import numpy as np

from repro.core.kernels import INFINITY, _cover_steps, block_dmm


def list_form(dist, mask):
    """``(dist_rows, mask_rows)``: a candidate's ``[|Q|, n]`` arrays as rows."""
    return dist.tolist(), mask.tolist()


def python_dmom_prepared(qk, dist_rows, mask_rows, threshold: float = INFINITY) -> float:
    """The row fold that skips folds which cannot matter (see
    ``repro.core.kernels.dmom_prepared``), in Python over list rows."""
    prev = [0.0] * len(dist_rows[0])  # G(0, *) = 0 — guardian row
    for row, mrow, n_bits in zip(dist_rows, mask_rows, qk.n_bits):
        steps = _cover_steps(n_bits)
        a = [INFINITY] * (1 << n_bits)
        best = INFINITY  # A[full]
        cur = []
        for base, d, pm in zip(prev, row, mrow):
            if pm:
                floor = base + d  # of every cover through this point
                if floor < best and floor <= threshold:
                    a[0] = base
                    for t, rest in steps[pm]:
                        v = a[rest] + d
                        if v < a[t]:
                            a[t] = v
                    best = a[-1]
            cur.append(best)
        if best > threshold:
            return INFINITY
        prev = cur
    return prev[-1]


def dmom_all_single_np(qk, dist, mask, threshold: float = INFINITY) -> float:
    """The whole DP as array ops when every query point carries a single
    activity: ``a0`` a prefix minimum of the previous row, the candidate
    values ``a0 + d`` where the point carries the activity, ``cur`` their
    prefix minimum."""
    prev = np.zeros(dist.shape[1], dtype=float)
    for i in range(qk.m):
        a0 = np.minimum.accumulate(prev)
        vals = np.where(mask[i] != 0, a0 + dist[i], INFINITY)
        cur = np.minimum.accumulate(vals)
        if cur[-1] > threshold:
            return INFINITY
        prev = cur
    return float(prev[-1])


def candidate_lists(block, c: int):
    """Candidate *c*'s list rows sliced out of a block (``None`` when it has
    no relevant points)."""
    n = int(block.lengths[c])
    if n == 0:
        return None
    s = int(block.seg_of[c])
    return block.big[:, s : s + n].tolist(), block.mask[:, s : s + n].tolist()


def block_dmom_all_single(qk, block, todo: List[int], threshold: float):
    """The all-single-activity DP for every surviving candidate at once;
    padded columns are masked out, so each result is the per-candidate
    DP's."""
    res = np.full(block.n, INFINITY)
    if not todo:
        return res
    lmax = max(int(block.lengths[c]) for c in todo)
    t_count = len(todo)
    dist = np.full((t_count, qk.m, lmax), INFINITY)
    nz = np.zeros((t_count, qk.m, lmax), dtype=bool)
    for t, c in enumerate(todo):
        s, n = int(block.seg_of[c]), int(block.lengths[c])
        dist[t, :, :n] = block.big[:, s : s + n]
        nz[t, :, :n] = block.rel[:, s : s + n]
    ids = np.asarray(todo)
    active = np.arange(t_count)
    prev = np.zeros((t_count, lmax))
    for i in range(qk.m):
        a0 = np.minimum.accumulate(prev, axis=1)
        vals = np.where(nz[active, i, :], a0 + dist[active, i, :], INFINITY)
        cur = np.minimum.accumulate(vals, axis=1)
        alive = cur[:, -1] <= threshold
        if not alive.all():
            active = active[alive]
            if len(active) == 0:
                return res
            cur = cur[alive]
        prev = cur
    res[ids[active]] = prev[:, -1]
    return res


def python_block_dmom(qk, block, stats=None, threshold: float = INFINITY, k: Optional[int] = None):
    """``block_dmom`` before the C fold."""
    gates = block_dmm(qk, block, stats)
    if qk.all_single:
        todo = np.nonzero(np.isfinite(gates) & (gates <= threshold))[0]
        return block_dmom_all_single(qk, block, todo.tolist(), threshold)
    out = np.full(block.n, INFINITY)
    tau = threshold
    heap: List[float] = []
    for c in np.argsort(gates, kind="stable").tolist():
        gate = gates[c]
        if gate > tau or gate == INFINITY:
            break
        rows = candidate_lists(block, c)
        if rows is None:
            continue
        value = python_dmom_prepared(qk, *rows, tau)
        out[c] = value
        if k is not None and value != INFINITY:
            heapq.heappush(heap, -value)
            if len(heap) > k:
                heapq.heappop(heap)
            if len(heap) == k and -heap[0] < tau:
                tau = -heap[0]
    return out
