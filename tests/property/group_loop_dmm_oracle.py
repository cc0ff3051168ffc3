"""The per-row / per-group ``repro.core.kernels.block_dmm`` loop as it ran
before the partition covers became one tensor per bit-width — kept
verbatim (bar the names) as the oracle ``test_block_kernel_parity.py``
compares the C covers against with ``np.array_equal``, over the block as
``numpy_round_oracle.py`` builds it.

Each multi-activity row computes its ``2^b - 1`` group minima one masked
``reduceat`` at a time and folds every set partition's groups left to
right in a Python loop; the partitions are tuples of group bitmasks in
generation order.  The production function reads the same groups out of
one ``[rows, groups, columns]`` temporary and sums a zero-padded index
table slot by slot — same additions, same order, same bits.
"""

from typing import Dict, List, Tuple

import numpy as _np

from numpy_round_oracle import NumpyBlock, _fold_rows

from repro.core.kernels import INFINITY, QueryKernel


def loop_set_partitions(n_bits: int) -> List[Tuple[int, ...]]:
    """All partitions of ``n_bits`` bits into non-empty groups, each group
    a bitmask (Bell(n_bits) partitions: 1, 2, 5, 15, 52 for 1..5 bits)."""
    cached = _PARTITIONS.get(n_bits)
    if cached is None:
        parts: List[List[int]] = [[]]
        for b in range(n_bits):
            bit = 1 << b
            grown: List[List[int]] = []
            for part in parts:
                for g in range(len(part)):
                    grown.append(part[:g] + [part[g] | bit] + part[g + 1 :])
                grown.append(part + [bit])
            parts = grown
        cached = _PARTITIONS[n_bits] = [tuple(p) for p in parts]
    return cached


_PARTITIONS: Dict[int, List[Tuple[int, ...]]] = {}


def loop_block_dmm(qk: QueryKernel, block: NumpyBlock, stats=None):
    """Exact ``Dmm`` for every block candidate, as a ``[C]`` float array.

    Single-activity rows are one masked segment-min.  Multi-activity rows
    use the set-partition decomposition of the minimum cover: over all
    partitions of the row's activity bits into groups, the cheapest sum of
    per-group minima (``M[g]`` = nearest relevant point whose bitmask
    covers group ``g``), every ``M[g]`` one masked segment-``reduceat``.
    """
    m = qk.m
    C = block.n
    rowvals = _np.full((C, m), INFINITY)
    counts = _np.zeros((C, m), dtype=_np.intp)
    if block.total:
        starts = block.seg_starts
        flat = block.flat_ids
        masked = _np.where(block.rel, block.big, INFINITY)
        rowmins = _np.minimum.reduceat(masked, starts, axis=1)  # [m, F]
        counts[flat, :] = _np.add.reduceat(
            block.rel, starts, axis=1, dtype=_np.intp
        ).T
        for i in range(m):
            if qk.n_bits[i] == 1:
                rowvals[flat, i] = rowmins[i]
                continue
            # Group minima: M[g] = min dist over columns whose bitmask
            # covers g; then the partition decomposition.
            mask_row = block.mask[i]
            dist_row = block.big[i]
            full = (1 << qk.n_bits[i]) - 1
            group_min = [None] * (full + 1)
            for g in range(1, full + 1):
                covered = (mask_row & g) == g
                group_min[g] = _np.minimum.reduceat(
                    _np.where(covered, dist_row, INFINITY), starts
                )
            best = None
            for partition in loop_set_partitions(qk.n_bits[i]):
                value = group_min[partition[0]]
                for g in partition[1:]:
                    value = value + group_min[g]
                best = value if best is None else _np.minimum(best, value)
            rowvals[flat, i] = best
    invalid = counts == 0
    invalid[block.missing_rows[:, 0], block.missing_rows[:, 1]] = True
    rowvals[invalid] = INFINITY
    return _fold_rows(rowvals, counts, invalid, stats)
