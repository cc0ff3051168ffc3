"""The validation round as it ran in NumPy before it moved to C (section
(d) of ``repro/native/gat.c``) — kept (bar the names) as the oracle
``test_round_differential.py`` compares the C round against with
``np.array_equal`` / ``==``:

* :func:`numpy_lookup` — ``PostingRound.lookup``: the ``[C, |Q.Φ|]`` key
  indices by one ``searchsorted`` over the whole image;
* :func:`numpy_covers_all` — ``SketchTable.covers_all``: the TAS test as
  one broadcast comparison;
* :func:`numpy_apl_covered` / :func:`numpy_mib` — the APL coverage test
  and ``MIBFilter.admits``: reductions over the lookup;
* :func:`numpy_prepare_block` — ``prepare_block``: the hits gathered with
  ``repeat`` / ``cumsum`` (:func:`_gather_hits`), one scatter to flag the
  columns, one matmul for the bitmasks, one ``np.hypot`` for the distances;
  it returns a :class:`NumpyBlock`, the block layout of those days;
* :func:`numpy_block_dmm` — ``block_dmm``: masked segment-minima for
  single-activity rows, and for multi-activity rows a scatter-min per
  exact bitmask, the superset-min transform and the set-partition sums
  through one padded index table (:func:`_partition_covers`);
* :func:`numpy_block_dmm_all_single` — ``block_dmm_all_single`` over the
  duplicated hit layout;
* :func:`numpy_block_dmom` — ``block_dmom``: those gates, a stable
  ``argsort`` and the C fold (:func:`c_fold`: ``gat_dmom_block``, which
  has not changed).
"""

import functools
from typing import List

import numpy as _np
from distance_oracle import distance_matrix

from repro.core.kernels import INFINITY, QueryKernel
from repro.index.gat.apl import ACTIVITY_BITS
from repro.native import c_array, ffi, lib


def c_fold(qk, dist, mask, order, gates, seg_of, lengths, threshold, k, out) -> None:
    """``gat_dmom_block``: the ``Dmom`` of candidates *order* (column
    segment ``seg_of[c]``, ``lengths[c]`` long, of the ``[|Q|, N]`` *dist*
    / *mask*) into ``out[c]``, in that order; stopping at the first gate
    above the running threshold when *gates* is given, and tightening the
    threshold to the k-th smallest ``Dmom`` when ``k > 0``."""
    if not (dist.dtype == _np.float64 and mask.dtype == _np.int64 and dist.shape == mask.shape):
        raise TypeError("the Dmom fold reads float64 distances and int64 masks of one shape")
    if lib.gat_dmom_block(
        qk.m, qk.handle.n_bits, c_array("double", dist), c_array("int64_t", mask), dist.shape[1],
        c_array("int64_t", order), len(order),
        ffi.NULL if gates is None else c_array("double", gates), c_array("int64_t", seg_of),
        c_array("int64_t", lengths), threshold, k, c_array("double", out, True),
    ):
        raise MemoryError("Dmom fold")


# ----------------------------------------------------------------------
# Validation: lookup, TAS, APL coverage, MIB
# ----------------------------------------------------------------------
def numpy_lookup(candidates):
    """``[C, |Q.Φ|]`` key indices (the sentinel slot = absent)."""
    keys = candidates.image.keys
    wanted = (candidates.rows[:, None] << ACTIVITY_BITS) | candidates.query.sorted_activities
    slots = _np.searchsorted(keys, wanted)
    slots[keys[slots] != wanted] = len(keys) - 1
    return slots


def numpy_covers_all(intervals, rows, activities):
    """Per row of *rows*, the superset test for *activities* (an ``int64``
    array): every id inside one of the row's intervals."""
    intervals = intervals[rows]
    inside = (intervals[:, :, 0, None] <= activities) & (activities <= intervals[:, :, 1, None])
    return inside.any(axis=1).all(axis=1)


def numpy_apl_covered(candidates, lookup):
    return (lookup != candidates.image.handle.n_keys).all(axis=1)


def numpy_mib(candidates, lookup, slots, starts):
    """``MIBFilter.admits``; *starts* is each query point's first slot."""
    keys = lookup[:, slots]
    lb = _np.minimum.reduceat(candidates.image.first[keys], starts, axis=1)
    ub = _np.maximum.reduceat(candidates.image.last[keys], starts, axis=1)
    # The largest lb before each query point: -1 before the first.
    reached = _np.maximum.accumulate(lb, axis=1)
    feasible = (ub >= 0).all(axis=1)
    feasible &= (reached[:, :-1] <= ub[:, 1:]).all(axis=1)
    return feasible


# ----------------------------------------------------------------------
# The block build
# ----------------------------------------------------------------------
class NumpyBlock:
    """One validation round's candidates in flat concatenated form, as the
    NumPy build laid them out: ``flat_ids`` / ``seg_starts`` (lists) name
    the candidates with columns and where their segments start, ``rel`` is
    ``mask != 0`` and ``missing_rows`` a ``[K, 2]`` array of ``(candidate,
    row)`` pairs."""

    __slots__ = (
        "n", "lengths", "positions", "seg_of", "flat_ids", "seg_starts", "total",
        "big", "mask", "rel", "missing_rows",
    )

    def __init__(
        self, n, lengths, positions, seg_of, flat_ids, seg_starts, total,
        big, mask, missing_rows,
    ) -> None:
        self.n = n
        self.lengths = lengths
        self.positions = positions
        self.seg_of = seg_of
        self.flat_ids = flat_ids
        self.seg_starts = seg_starts
        self.total = total
        self.big = big
        self.mask = mask
        self.rel = mask != 0
        self.missing_rows = missing_rows


def _gather_hits(candidates, lookup):
    """One round's posted positions of ``Q.Φ``, gathered from the APL image.

    A **hit** is one position of one (candidate, query activity) posting
    list, in candidate-major, activity-major, ascending-position order; a
    missed lookup is the image's empty sentinel slice and gathers nothing.
    Returns ``(lengths, hit_slots, hit_points, base, shift)``: the ``[C,
    |Q.Φ|]`` list lengths; per hit its activity's column and its point's
    index in the round (the candidates' points — all of them — laid end to
    end); ``base[c]`` where candidate *c*'s points start in that numbering
    (``base[C]`` closes it); ``shift[c]`` what to add to one of its round
    indices to get the point's row in ``image.xy``.
    """
    image = candidates.image
    starts = image.offsets[lookup]
    lengths = image.offsets[lookup + 1] - starts
    n_items, n_slots = lengths.shape
    flat_lengths = lengths.ravel()
    ends = flat_lengths.cumsum()
    first_point = image.point_offsets[candidates.rows]
    base = _np.zeros(n_items + 1, dtype=_np.int64)
    _np.cumsum(image.point_offsets[candidates.rows + 1] - first_point, out=base[1:])
    # Hit h of list l reads positions[starts[l] + (h - first hit of l)].
    hit_points = image.positions[
        _np.repeat(starts.ravel() - (ends - flat_lengths), flat_lengths)
        + _np.arange(ends[-1] if len(ends) else 0)
    ]
    hit_points += _np.repeat(_np.repeat(base[:-1], n_slots), flat_lengths)
    hit_slots = _np.repeat(_np.tile(_np.arange(n_slots), n_items), flat_lengths)
    return lengths, hit_slots, hit_points, base, first_point - base[:-1]


def numpy_prepare_block(qk: QueryKernel, candidates) -> NumpyBlock:
    """Stack one round's candidates into a :class:`NumpyBlock`: the columns
    are the round's points that took at least one hit — flagged in one
    scatter, so they come out candidate by candidate in position order —
    and a column's bitmask sums, per row, the bits of the activities that
    hit it (a posting list names a point once, so the sum is the OR)."""
    lookup = numpy_lookup(candidates)
    lengths, hit_slots, hit_points, base, shift = _gather_hits(candidates, lookup)
    n_items, n_slots = lengths.shape
    hit = _np.zeros(base[-1], dtype=bool)
    hit[hit_points] = True
    relevant = _np.flatnonzero(hit)
    total = len(relevant)

    cand_of_column = _np.searchsorted(base, relevant, side="right") - 1
    positions = relevant - base[cand_of_column]
    counts = _np.bincount(cand_of_column, minlength=n_items)
    starts = counts.cumsum() - counts
    empty = counts == 0
    starts[empty] = -1
    flat_ids = _np.flatnonzero(counts).tolist()
    seg_starts = starts[flat_ids].tolist()

    big = distance_matrix(qk, candidates.image.xy[relevant + shift[cand_of_column]])
    column_of_point = hit.cumsum() - 1
    carries = _np.zeros((total, n_slots), dtype=_np.int64)  # column × activity
    carries.reshape(-1)[column_of_point[hit_points] * n_slots + hit_slots] = 1
    mask = qk.bit_table @ carries.T

    # A row is missing from a candidate when one of its activities never
    # occurs there; recorded only for candidates that have columns (the
    # others are infeasible on their zero counts already).
    absent = lengths == 0
    absent[empty] = False
    missing_rows = _np.argwhere(absent @ (qk.bit_table.T != 0))
    return NumpyBlock(
        n_items, counts, positions, starts, flat_ids, seg_starts, total,
        big, mask, missing_rows,
    )


# ----------------------------------------------------------------------
# Dmm
# ----------------------------------------------------------------------
def _fold_rows(rowvals, counts, invalid, stats):
    """Per-candidate ``Dmm`` from the ``[C, |Q|]`` per-row values, plus the
    ``point_match_points`` accounting — a pure function of the relevance
    pattern, identical to the per-candidate scan's, which adds each row's
    candidate count up to and including the first infeasible row."""
    n, m = rowvals.shape
    if stats is not None:
        has_invalid = invalid.any(axis=1)
        limit = _np.where(has_invalid, invalid.argmax(axis=1), m - 1)
        cumulative = counts.cumsum(axis=1)
        stats.point_match_points += int(cumulative[_np.arange(n), limit].sum())
    # Left-to-right row fold: the scalar path's float addition order.
    dmm = rowvals[:, 0].copy()
    for i in range(1, m):
        dmm = dmm + rowvals[:, i]
    return dmm


def numpy_block_dmm_all_single(qk: QueryKernel, candidates, stats=None):
    """``Dmm`` for one round of an all-single-activity query over the
    duplicated hit layout: every hit is a column as-is, relevance is one
    slot comparison, and the per-row minima one masked segment-``reduceat``."""
    lookup = numpy_lookup(candidates)
    lengths, hit_slots, hit_points, _base, shift = _gather_hits(candidates, lookup)
    n_items = len(lengths)
    row_slots = qk.bit_table.argmax(axis=1)  # each row asks one activity

    counts = lengths[:, row_slots]
    columns = lengths.sum(axis=1)
    flat_ids = _np.flatnonzero(columns)
    seg_starts = (columns.cumsum() - columns)[flat_ids]

    coords = candidates.image.xy[hit_points + _np.repeat(shift, columns)]
    masked = _np.where(
        row_slots[:, None] == hit_slots, distance_matrix(qk, coords), INFINITY
    )
    rowvals = _np.full((n_items, qk.m), INFINITY)
    rowvals[flat_ids] = _np.minimum.reduceat(masked, seg_starts, axis=1).T
    return _fold_rows(rowvals, counts, counts == 0, stats)


@functools.lru_cache(maxsize=None)
def _set_partitions(n_bits: int):
    """All partitions of ``n_bits`` bits into non-empty groups, as a
    ``[Bell(n_bits), n_bits]`` integer table; a row lists one partition's
    group bitmasks in generation order, padded with 0 — the slot
    :func:`_partition_covers` keeps all-zero, so a padded sum adds ``0.0``
    after the partition's own groups."""
    parts: List[List[int]] = [[]]
    for b in range(n_bits):
        bit = 1 << b
        grown: List[List[int]] = []
        for part in parts:
            for g in range(len(part)):
                grown.append(part[:g] + [part[g] | bit] + part[g + 1 :])
            grown.append(part + [bit])
        parts = grown
    padded = [part + [0] * (n_bits - len(part)) for part in parts]
    return _np.array(padded, dtype=_np.intp)


#: Element budget of one :func:`_partition_covers` temporary: columns are
#: scattered and candidates' partitions summed in chunks of at most this many.
_COVER_CHUNK_ELEMENTS = 1 << 14


def _partition_covers(mask, dist, rows, segment, n_segments: int, n_bits: int):
    """Minimum covers of the ``n_bits``-activity *rows* of a block over
    every column segment, as a ``[len(rows), n_segments]`` array: a
    scatter-``minimum.at`` per exact bitmask, ``b`` halving passes of the
    superset-min transform, then the partitions summed slot by slot, left
    to right, through :func:`_set_partitions`' padded index table."""
    n_rows = len(rows)
    size = 1 << n_bits
    group_min = _np.full((n_rows, n_segments, size), INFINITY)
    flat_min = group_min.reshape(-1)
    row_base = _np.arange(n_rows)[:, None] * n_segments
    step = max(1, _COVER_CHUNK_ELEMENTS // n_rows)
    for lo in range(0, len(segment), step):
        cols = slice(lo, lo + step)
        slot = (row_base + segment[cols]) * size + mask[rows, cols]
        _np.minimum.at(flat_min, slot.reshape(-1), dist[rows, cols].reshape(-1))
    for bit in range(n_bits):
        pairs = group_min.reshape(n_rows * n_segments, -1, 2, 1 << bit)
        _np.minimum(pairs[:, :, 0], pairs[:, :, 1], out=pairs[:, :, 0])
    group_min[:, :, 0] = 0.0  # the padding slot's addend
    partitions = _set_partitions(n_bits)
    covers = _np.empty((n_rows, n_segments))
    step = max(1, _COVER_CHUNK_ELEMENTS // (n_rows * len(partitions)))
    for lo in range(0, n_segments, step):
        groups = _np.moveaxis(group_min[:, lo : lo + step, partitions], -1, 0)
        value = functools.reduce(_np.add, groups)  # left fold: slot by slot
        covers[:, lo : lo + step] = value.min(axis=2)
    return covers


def numpy_block_dmm(qk: QueryKernel, block: NumpyBlock, stats=None):
    """Exact ``Dmm`` for every block candidate, as a ``[C]`` float array:
    single-activity rows one masked segment-min, rows of each wider
    bit-width one :func:`_partition_covers` call."""
    m = qk.m
    C = block.n
    rowvals = _np.full((C, m), INFINITY)
    counts = _np.zeros((C, m), dtype=_np.intp)
    if block.total:
        starts = block.seg_starts
        flat = block.flat_ids
        counts[flat] = _np.add.reduceat(block.rel, starts, axis=1, dtype=_np.intp).T
        if 1 in qk.n_bits:  # a single-activity row's cover: its masked segment-min
            masked = _np.where(block.rel, block.big, INFINITY)
            covers = _np.minimum.reduceat(masked, starts, axis=1)
        else:
            covers = _np.empty((m, len(flat)))
        if not qk.all_single:
            segment = _np.zeros(block.total, dtype=_np.intp)
            segment[starts[1:]] = 1
            segment = segment.cumsum()  # each column's index into ``flat``
            widths = _np.asarray(qk.n_bits)
            for n_bits in set(qk.n_bits) - {1}:
                rows = _np.flatnonzero(widths == n_bits)
                covers[rows] = _partition_covers(
                    block.mask, block.big, rows, segment, len(flat), n_bits
                )
        rowvals[flat] = covers.T
    invalid = counts == 0
    invalid[block.missing_rows[:, 0], block.missing_rows[:, 1]] = True
    rowvals[invalid] = INFINITY
    return _fold_rows(rowvals, counts, invalid, stats)


def numpy_block_dmom(qk: QueryKernel, block: NumpyBlock, stats=None, threshold=INFINITY, k=None):
    """``Dmom`` for every block candidate: the :func:`numpy_block_dmm`
    gates, then the C fold over the candidates in ascending-gate order."""
    gates = numpy_block_dmm(qk, block, stats)
    out = _np.full(block.n, INFINITY)
    if block.total:
        order = _np.argsort(gates, kind="stable")
        c_fold(qk, block.big, block.mask, order, gates, block.seg_of, block.lengths,
               threshold, k or 0, out)
    return out
