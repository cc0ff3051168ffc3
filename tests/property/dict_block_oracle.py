"""The dict-walking block builder ``repro.core.kernels.prepare_block`` had
before it became array work (today a gather from the APL row store) — kept
verbatim (bar the name, the hoisted imports and the generic metric's
distance call) as the oracle the array
build is compared against, field by field, in
``test_block_kernel_parity.py``.

It reads the candidate's posting lists (the APL record, or the
trajectory's in-memory image of it) and resolves positions and bitmask
columns per candidate through sets and dicts; ``positions`` is a list of
per-candidate tuples and ``missing_rows`` a list of ``(candidate, row)``
tuples, where the array builds hold flat arrays.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as _np

from distance_oracle import distance_matrix, is_generic
from numpy_round_oracle import NumpyBlock
from object_chain_oracle import union_positions

from repro.core.kernels import QueryKernel


def dict_prepare_block(qk: QueryKernel, items: Sequence[tuple]) -> NumpyBlock:
    """Stack one round's candidates into a :class:`NumpyBlock`.

    *items* is a sequence of ``(trajectory, posting)`` pairs where
    *posting* is the candidate's APL record from the round's batched fetch
    (``None`` falls back to the trajectory's in-memory posting lists — the
    APL persists exactly that mapping, so both images agree).

    Per-candidate Python work is limited to what the per-candidate kernel
    paid too (position unions, column resolution); the distance evaluation
    is a single call over the concatenated relevant points, and the
    bitmask pattern one ``bincount`` scatter for the whole round.
    """
    m = qk.m
    all_activities = qk.query.all_activities
    n_items = len(items)
    positions: List[Tuple[int, ...]] = []
    postings = []
    for trajectory, posting in items:
        if posting is None:
            posting = trajectory.posting_lists
        postings.append(posting)
        positions.append(union_positions(posting, all_activities))
    lengths = [len(p) for p in positions]
    seg_of = [-1] * n_items
    flat_ids: List[int] = []
    seg_starts: List[int] = []
    total = 0
    for c, n in enumerate(lengths):
        if n:
            seg_of[c] = total
            flat_ids.append(c)
            seg_starts.append(total)
            total += n

    if total == 0:
        return NumpyBlock(
            n_items, lengths, positions, seg_of, flat_ids, seg_starts, total,
            _np.zeros((m, 0)), _np.zeros((m, 0), dtype=_np.int64), [],
        )

    if is_generic(qk):
        big = _np.empty((m, total))
        for c in flat_ids:
            s = seg_of[c]
            big[:, s : s + lengths[c]] = distance_matrix(
                qk, items[c][0].coord_array()[list(positions[c])]
            )
    else:
        big = distance_matrix(
            qk,
            _np.concatenate(
                [items[c][0].coord_array()[list(positions[c])] for c in flat_ids]
            ),
        )

    # Bitmask scatter: flat (row * N + column, bit) pairs for the whole
    # round, combined in one bincount (each (row, column) sees each bit at
    # most once, so summation equals the bitwise OR).
    flat_idx: List[int] = []
    flat_bit: List[int] = []
    missing_rows: List[Tuple[int, int]] = []
    for c in flat_ids:
        posting = postings[c]
        s = seg_of[c]
        col_of = {p: s + j for j, p in enumerate(positions[c])}
        # An activity shared by several query points scatters into several
        # rows; resolve its columns once per candidate.
        cols_of_activity: Dict[int, List[int]] = {}
        for i, bit_values in enumerate(qk.bit_values):
            base = i * total
            for activity, bit in bit_values.items():
                cols = cols_of_activity.get(activity)
                if cols is None:
                    ps = posting.get(activity)
                    cols = cols_of_activity[activity] = (
                        [col_of[p] for p in ps] if ps else []
                    )
                if cols:
                    flat_idx.extend([base + col for col in cols])
                    flat_bit.extend([bit] * len(cols))
                else:
                    missing_rows.append((c, i))
    mask = _np.bincount(
        _np.asarray(flat_idx),
        weights=_np.asarray(flat_bit, dtype=float),
        minlength=m * total,
    ).astype(_np.int64).reshape(m, total)
    return NumpyBlock(
        n_items, lengths, positions, seg_of, flat_ids, seg_starts, total,
        big, mask, missing_rows,
    )
