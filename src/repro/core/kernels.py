"""Array scoring kernels — NumPy distance matrices feeding array DPs.

The scalar hot path of the engine spends almost all of its time inside
Algorithm 3's minimum-point-match and Algorithm 4's order-sensitive DP:
profiling one cold-cache mixed workload shows >95% of query latency in
per-point ``DistanceMetric`` calls and per-``(i, j, k)``
:class:`~repro.core.match.PointMatchTable` updates.  This module replaces
both with a *prepare once, scan arrays* scheme:

1. :class:`QueryKernel` precomputes the per-query-point activity→bit
   assignment and the query-side half of the distance formula (the
   planar coordinates, gathered once per query instead of once per metric
   call).
2. :func:`prepare_candidate` computes, per surviving candidate, the full
   ``|Q| x |rel(Tr)|`` query-point→trajectory-point distance matrix in one
   vectorized NumPy call (``rel(Tr)`` being the points carrying at least
   one query activity — exactly the sub-sequence the compressed scalar DP
   runs over), plus the per-query-point activity-overlap bitmask of every
   relevant point, scattered from the trajectory's in-memory posting
   lists.
3. :func:`dmm_prepared` / :func:`dmom_prepared` run the combinatorics over
   those arrays: the set-cover of Algorithm 3 becomes an in-place DP over
   ``2^|q.Φ|`` floats (|q.Φ| ≤ 5 in the paper), and Algorithm 4's row
   recurrence collapses from O(n²) incremental table rebuilds to a single
   left-to-right scan — at most O(n · 2^|q.Φ|), and in practice far less:
   a point is folded only when it could still lower the row's best cover
   without exceeding the threshold (see :func:`dmom_prepared`).  That scan
   is C (``gat_dmom_block`` in ``repro/native/gat.c``), whatever the
   rows' widths.  Every Python cover relaxation — :func:`min_cover_cost`,
   Algorithm 3's scan — walks one per-mask transition table
   (:class:`_CoverSteps`); the C fold visits the same pairs in the same
   ascending order.

On top of the per-candidate kernels sits the *block* kernel
(``kernel='block'``, the default): a whole validation round's
admitted candidates go into one :class:`CandidateBlock` — a flat
``[|Q|, N]`` distance matrix over every candidate's concatenated relevant
points, built by a **single** Euclidean evaluation per round,
plus a same-shape activity bitmask and per-candidate column segments,
all gathered by :func:`prepare_block` from the candidates' rows of the
APL array store (:mod:`repro.index.gat.apl`) through the key lookup
validation already computed, with array ops only — and are scored
together:

* :func:`block_dmm` computes every candidate's exact ``Dmm`` in
  whole-round array ops: per-row masked minima via one
  segment-``reduceat`` for single-activity rows, and the *set-partition
  decomposition* of the minimum cover for multi-activity rows (the
  optimal cover equals, over all partitions of the row's activity bits,
  the cheapest sum of per-group nearest-covering-point minima — for all
  rows of one width at once: a scatter-min per exact bitmask, a
  superset-min transform, and the partitions summed through one padded
  index table, :func:`_partition_covers`).  All-single-activity
  queries take :func:`block_dmm_all_single`, a dedup-free layout — one
  column per posted position, the same gather — with no per-candidate
  array work at all.
* :func:`block_dmom` gates on the block ``Dmm`` (Lemma 3) and the C fold
  walks the survivors cheapest-gate-first with a running k-th threshold,
  reading their columns of the block in place, so most candidates are
  **abandoned** before the per-candidate DP — every query shape alike.

Abandonment never moves a ranking or a counter: the values it replaces
with ``inf`` all exceed the final k-th distance (so the top-k collector
would reject them anyway), and every pruning counter is derived from the
relevance pattern exactly as the per-candidate scans would have counted
them — the block-vs-scalar engine parity suites compare ids and
counters exactly.

The per-candidate functions are also what :class:`MatchEvaluator`'s
``dmm`` / ``dmom`` run under ``kernel='block'`` (RT/IRT score one
candidate per pop); a candidate is laid out like one segment of a block,
so :func:`dmom_prepared` is the same C fold.  ``kernel='scalar'`` bypasses
this module entirely.

Exactness
---------
The scalar implementations in :mod:`repro.core.match` and
:mod:`repro.core.order_match` are kept untouched as oracles; the
property-based suite (``tests/property/test_kernel_parity.py``) checks the
kernels against them on randomized inputs.  The combinatorics are
float-identical by construction: given the same distances, the cover DP
performs the same additions in the same order as ``PointMatchTable``
(each entry is ``best(remainder) + dist``).  Two last-ulp (≲2e-16
relative) discrepancy sources remain: NumPy's elementwise ``hypot``
can round differently from ``libm``'s on ~0.5% of inputs, and the
``Dmom`` row scan folds multi-point cover sums in ascending-position
instead of descending-position order (the block cover's partition sums
likewise follow their table's order, not the scan's).  Neither moves a
ranking or a pruning counter except on exact distance ties, which the
engine-level parity suite checks never happens on real workloads (ids
and counters are compared exactly, distances to 1e-9 relative).

The kernels' *own* shortcuts are not in that class — they are exact.
The dense row scan :func:`dmom_prepared` ran before it skipped folds, the
Python fold it ran before the fold moved to C, and the per-group loop
:func:`block_dmm` ran before its covers became one transform live on as
oracles in ``tests/property/`` (``dense_dmom_oracle.py``,
``python_fold_oracle.py``, ``group_loop_dmm_oracle.py``) and are compared
with ``==`` / ``np.array_equal``, thresholds included.

NumPy and cffi are hard dependencies (``setup.py``).

The round builds read positions and coordinates from the APL image and
touch no trajectory object; the per-candidate functions read the object
model (``trajectory.posting_lists``, ``trajectory.coord_array()``).
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.model.distance import DistanceMetric, EuclideanDistance, euclidean_matrix
from repro.native import ffi, lib

INFINITY = math.inf

KERNELS = ("scalar", "block")


def resolve_kernel(kernel: str) -> str:
    """Return *kernel* if it names one of :data:`KERNELS`; raise otherwise."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


# ----------------------------------------------------------------------
# Array set-cover — the kernel equivalent of PointMatchTable
# ----------------------------------------------------------------------
class _CoverSteps(dict):
    """The relaxation table over ``2^n_bits`` cover states, built mask by
    mask on first use: ``steps[pm]`` lists the ``(t, t & ~pm)`` pairs —
    every state ``t`` a point with overlap mask ``pm`` helps cover, beside
    the remainder it is relaxed from — in ascending ``t``.  A remainder
    never shares a bit with ``pm``, so no pair reads a state the same fold
    writes, and ``steps[0]`` is empty (an irrelevant point folds nothing).
    """

    def __init__(self, n_bits: int) -> None:
        self.size = 1 << n_bits

    def __missing__(self, pm: int) -> Tuple[Tuple[int, int], ...]:
        steps = self[pm] = tuple((t, t & ~pm) for t in range(1, self.size) if t & pm)
        return steps


#: One shared table per state-space size — the transition structure behind
#: :func:`min_cover_cost` and :func:`_mpm_scan` (the C fold of
#: :func:`dmom_prepared` loops over the same pairs in the same order).
_cover_steps = functools.lru_cache(maxsize=None)(_CoverSteps)


def min_cover_cost(entries: Sequence[Tuple[float, int]], n_bits: int) -> float:
    """Exact min-cost set cover over ``(dist, mask)`` entries.

    ``dp[t]`` is the cheapest cost of a point set whose mask union covers
    ``t``; folding one entry in performs exactly the additions
    ``dp[t & ~mask] + dist`` that :class:`~repro.core.match.PointMatchTable`
    performs (best remainder plus the new distance), so the result is
    bit-identical to adding the same entries to a table in the same order.
    """
    steps = _cover_steps(n_bits)
    dp = [0.0] + [INFINITY] * ((1 << n_bits) - 1)
    for dist, pm in entries:
        for t, rest in steps[pm]:
            v = dp[rest] + dist
            if v < dp[t]:
                dp[t] = v
    return dp[-1]


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


# ----------------------------------------------------------------------
# Per-query preparation
# ----------------------------------------------------------------------
class QueryKernel:
    """Query-side precomputation shared by every candidate of one query.

    Holds the per-query-point bit assignment (same iteration order as
    ``PointMatchTable`` uses, so masks are comparable in tests) and the
    query half of the array distance formula.  Metrics other than
    Euclidean fall back to per-pair Python calls — still through one
    matrix, so the combinatorial kernels stay identical.
    """

    __slots__ = (
        "query",
        "m",
        "n_bits",
        "bit_values",
        "all_single",
        "sorted_activities",
        "bit_table",
        "metric",
        "fold_bits",
        "_mode",
        "_q0",
        "_q1",
    )

    def __init__(self, query, metric: DistanceMetric) -> None:
        self.query = query
        self.m = len(query)
        self.metric = metric
        self.n_bits: List[int] = []
        self.bit_values: List[Dict[int, int]] = []
        for q in query:
            activities = list(dict.fromkeys(q.activities))
            self.n_bits.append(len(activities))
            self.bit_values.append({a: 1 << i for i, a in enumerate(activities)})
        #: Every query point carries one activity — the common query shape,
        #: whose ``Dmm`` needs no position dedup (block_dmm_all_single).
        self.all_single = all(b == 1 for b in self.n_bits)
        #: ``n_bits`` as the C fold reads it.
        self.fold_bits = ffi.new("int32_t[]", self.n_bits)

        #: The block builder's lookup side: ``Q.Φ`` ascending (what a round's
        #: activity occurrences are ``searchsorted`` against) and, per row,
        #: the bit each of those activities holds there (0 = not asked for).
        self.sorted_activities = _np.array(sorted(query.all_activities), dtype=_np.int64)
        self.bit_table = _np.zeros((self.m, len(self.sorted_activities)), dtype=_np.int64)
        for row, bit_values in zip(self.bit_table, self.bit_values):
            row[_np.searchsorted(self.sorted_activities, list(bit_values))] = list(
                bit_values.values()
            )

        if type(metric) is EuclideanDistance:
            self._mode = "euclidean"
            self._q0 = _np.array([q.x for q in query], dtype=float)
            self._q1 = _np.array([q.y for q in query], dtype=float)
        else:
            self._mode = "generic"
            self._q0 = self._q1 = None

    def _pairwise_rows(self, coords: Sequence[Tuple[float, float]]) -> List[List[float]]:
        """Per-pair metric calls — the only form a non-stock metric has."""
        metric = self.metric
        return [[metric(q.coord, c) for c in coords] for q in self.query]

    def distance_matrix(self, trajectory, positions: List[int]):
        """The ``|Q| x len(positions)`` distance matrix as a NumPy array
        (non-stock metrics go through per-pair Python calls, then one
        ``asarray`` — the combinatorial kernels downstream are identical)."""
        sub = trajectory.coord_array()[positions]
        if self._mode == "generic":
            return _np.asarray(self._pairwise_rows(list(map(tuple, sub.tolist()))), dtype=float)
        return euclidean_matrix(self._q0, self._q1, sub[:, 0], sub[:, 1])

    def distance_matrix_for(self, coords):
        """The ``|Q| x N`` distance matrix against a raw ``(N, 2)`` float
        array of point coordinates.

        This is the block kernel's single per-round distance evaluation:
        the concatenated relevant points of *every* candidate go through
        one elementwise NumPy call, so each entry is bit-identical to the
        per-candidate :meth:`distance_matrix` value for the same pair
        (elementwise ufuncs do not round differently with array size).
        Generic metrics have no array formula: they are called pair by
        pair, like everywhere else.
        """
        if self._mode == "generic":
            rows = self._pairwise_rows(list(map(tuple, coords.tolist())))
            return _np.asarray(rows, dtype=float).reshape(self.m, len(coords))
        return euclidean_matrix(self._q0, self._q1, coords[:, 0], coords[:, 1])


class CandidateArrays:
    """Everything the kernels need about one (query, trajectory) pair: the
    trajectory positions of its relevant columns, the ``[|Q|, n]`` distance
    matrix over them and the same-shape ``int64`` activity-overlap
    bitmasks — the layout of one candidate's columns of a
    :class:`CandidateBlock`, which the C fold reads either way."""

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
    return CandidateArrays(positions, qk.distance_matrix(trajectory, positions), mask)


# ----------------------------------------------------------------------
# Dmm — Lemma 1 over the prepared arrays
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Dmom — Algorithm 4 as a single left-to-right scan per row
# ----------------------------------------------------------------------
def _fold(qk, dist, mask, order, gates, seg_of, lengths, threshold, k, out) -> None:
    """``gat_dmom_block``: the ``Dmom`` of candidates *order* (column
    segment ``seg_of[c]``, ``lengths[c]`` long, of the ``[|Q|, N]`` *dist*
    / *mask*) into ``out[c]``, in that order; stopping at the first gate
    above the running threshold when *gates* is given, and tightening the
    threshold to the k-th smallest ``Dmom`` when ``k > 0``."""
    if not (dist.dtype == _np.float64 and mask.dtype == _np.int64 and dist.shape == mask.shape):
        raise TypeError("the Dmom fold reads float64 distances and int64 masks of one shape")
    status = lib.gat_dmom_block(
        qk.m, qk.fold_bits,
        ffi.from_buffer("double[]", dist), ffi.from_buffer("int64_t[]", mask), dist.shape[1],
        ffi.from_buffer("int64_t[]", order), len(order),
        ffi.NULL if gates is None else ffi.from_buffer("double[]", gates),
        ffi.from_buffer("int64_t[]", seg_of), ffi.from_buffer("int64_t[]", lengths),
        threshold, k, ffi.from_buffer("double[]", out, require_writable=True),
    )
    if status:
        raise MemoryError("Dmom fold")


_ONE_SEGMENT = _np.zeros(1, dtype=_np.int64)  # order [0], segment start 0


def dmom_prepared(
    qk: QueryKernel, cand: CandidateArrays, threshold: float = INFINITY
) -> float:
    """``Dmom(Q, Tr)`` over the prepared arrays (the C fold).

    The scalar Algorithm 4 evaluates ``G(i, j) = min_k G(i-1, k) +
    Dmpm(q_i, Tr[k, j])`` by rebuilding an incremental point-match table
    per cell — O(n²) table updates per row.  Here each row is one
    left-to-right scan: ``A[t]`` is the cheapest ``G(i-1, k) + (cover of
    mask t by points k..j)`` over all segment starts ``k ≤ j``.  Folding
    point ``j`` in sets ``A[0]`` to ``G(i-1, j)`` (a finished row is
    non-increasing in ``j``, so the cheapest segment start up to ``j`` is
    the entry itself) and relaxes ``A[t] ← A[t & ~mask_j] + d_j`` for every
    ``t`` sharing a bit with the mask, in ascending ``t`` (the
    :func:`_cover_steps` pairs); ``G(i, j)`` is ``A[full]`` after the fold.
    This is the same min-cost-cover relaxation as the table (a point used
    twice can never beat using it once, costs being non-negative); a
    single-activity row is the two-state case.

    Most folds are skipped, exactly.  Every cover through point ``j``
    starts from a base ``≥ G(i-1, j)`` and float addition of non-negatives
    is monotone, so everything the fold could write — and anything later
    derived from it — is ``≥ G(i-1, j) + d_j``.  When that is not below
    the row's best full cover so far it can never win the strict ``<``
    into ``A[full]``; when it is above *threshold* it can only ever reach
    the result as a value the Lemma-4 exit turns into ``inf``.  Entries of
    ``G`` above the threshold may therefore differ from the dense scan's
    (they stay above it); every entry at or below it — and the returned
    value — is bit-identical (``tests/property/dense_dmom_oracle.py``; the
    Python fold the C one replaced is ``python_fold_oracle.py``).

    The paper's row-level threshold early-exit (Lemma 4) is preserved:
    when a finished row's last entry exceeds *threshold* the candidate can
    never beat the current k-th best, and the scan aborts.
    """
    out = _np.full(1, INFINITY)
    lengths = _np.array([len(cand.positions)], dtype=_np.int64)
    _fold(qk, cand.dist_matrix, cand.mask_matrix, _ONE_SEGMENT, None, _ONE_SEGMENT,
          lengths, threshold, 0, out)
    return float(out[0])


# ----------------------------------------------------------------------
# Block kernel — one flat tensor per validation round
# ----------------------------------------------------------------------
class CandidateBlock:
    """One validation round's candidates in flat concatenated form.

    ``big`` is the ``[|Q|, N]`` distance matrix over the concatenation of
    every candidate's relevant positions — built by a **single**
    Euclidean evaluation per round — and ``mask`` the same-shape
    per-query-point activity-overlap bitmasks (``rel`` caches ``mask !=
    0``).  ``seg_of``/``lengths`` (``int64`` arrays; ``seg_of`` is -1 for an
    empty segment) map a candidate to its column segment
    (and to its slice of ``positions``, the columns' trajectory positions
    as one flat int array); candidates with no relevant position keep an
    empty segment so outputs align with the input order.  ``missing_rows``
    is a ``[K, 2]`` array of ``(candidate, row)`` pairs where some query
    activity of the row never occurs in the candidate — recorded during
    the build, where the candidate × activity presence matrix is in hand,
    because such a row can never be covered (Algorithm 3 returns ``inf``)
    even when other activities give it relevant points.
    """

    __slots__ = (
        "n",
        "lengths",
        "positions",
        "seg_of",
        "flat_ids",
        "seg_starts",
        "total",
        "big",
        "mask",
        "rel",
        "missing_rows",
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


def _gather_hits(candidates):
    """One round's posted positions of ``Q.Φ``, gathered from the APL image
    — the first step of both round builds (:func:`prepare_block`,
    :func:`block_dmm_all_single`).

    *candidates* is the round as a
    :class:`~repro.index.gat.apl.PostingRound` whose activity columns are
    the query kernel's ``sorted_activities`` (the lookup validation
    computed is reused as is).  A **hit** is one position of one
    (candidate, query activity) posting list, in candidate-major,
    activity-major, ascending-position order; a missed lookup is the
    image's empty sentinel slice and gathers nothing.  Returns ``(lengths,
    hit_slots, hit_points, base, shift)``: the ``[C, |Q.Φ|]`` list
    lengths; per hit its activity's column and its point's index in the
    round (the candidates' points — all of them — laid end to end);
    ``base[c]`` where candidate *c*'s points start in that numbering
    (``base[C]`` closes it); ``shift[c]`` what to add to one of its round
    indices to get the point's row in ``image.xy``.
    """
    image = candidates.image
    lookup = candidates.lookup()
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


def prepare_block(qk: QueryKernel, candidates) -> CandidateBlock:
    """Stack one round's candidates into a :class:`CandidateBlock`.

    *candidates* is a non-empty
    :class:`~repro.index.gat.apl.PostingRound` against
    ``qk.sorted_activities``.  The block's columns are the round's points
    that took at least one hit (:func:`_gather_hits`) — flagged in one
    scatter, so they come out candidate by candidate in position order —
    and a column's bitmask sums, per row, the bits of the activities that
    hit it (a posting list names a point once, so the sum is the OR).
    """
    lengths, hit_slots, hit_points, base, shift = _gather_hits(candidates)
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

    big = qk.distance_matrix_for(candidates.image.xy[relevant + shift[cand_of_column]])
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
    return CandidateBlock(
        n_items, counts, positions, starts, flat_ids, seg_starts, total,
        big, mask, missing_rows,
    )


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


def block_dmm_all_single(qk: QueryKernel, candidates, stats=None):
    """``Dmm`` for one round of an all-single-activity query, without ever
    materialising a :class:`CandidateBlock`.

    ``Dmm`` is order-free, so the candidate columns need no position
    dedup: every hit of :func:`_gather_hits` is a column **as-is** (a point
    carrying two query activities simply appears once per activity —
    duplicates never move a minimum).  Relevance is then a single slot
    comparison (``row activity == column activity``) instead of a bitmask
    scatter, a row's candidate count is the length of its activity's
    posting list in the candidate, and the per-row minima fall out of one
    masked segment-``reduceat``.  Values and counter accounting are
    bit-identical to the per-candidate all-single path.  (The
    order-sensitive DP cannot ride this layout — duplicated columns break
    its prefix semantics — so :func:`block_dmom` keeps the deduplicated
    block.)
    """
    lengths, hit_slots, hit_points, _base, shift = _gather_hits(candidates)
    n_items = len(lengths)
    row_slots = qk.bit_table.argmax(axis=1)  # each row asks one activity

    counts = lengths[:, row_slots]
    columns = lengths.sum(axis=1)
    flat_ids = _np.flatnonzero(columns)
    seg_starts = (columns.cumsum() - columns)[flat_ids]

    coords = candidates.image.xy[hit_points + _np.repeat(shift, columns)]
    masked = _np.where(
        row_slots[:, None] == hit_slots, qk.distance_matrix_for(coords), INFINITY
    )
    rowvals = _np.full((n_items, qk.m), INFINITY)
    rowvals[flat_ids] = _np.minimum.reduceat(masked, seg_starts, axis=1).T
    return _fold_rows(rowvals, counts, counts == 0, stats)


@functools.lru_cache(maxsize=None)
def _set_partitions(n_bits: int):
    """All partitions of ``n_bits`` bits into non-empty groups, as a
    ``[Bell(n_bits), n_bits]`` integer table (Bell: 1, 2, 5, 15, 52 for
    1..5 bits — the paper bounds ``|q.Φ|`` at 5).  A row lists one
    partition's group bitmasks in generation order, padded with 0 — the
    slot :func:`_partition_covers` keeps all-zero, so a padded sum adds
    ``0.0`` after the partition's own groups.  Memoised.
    """
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
#: scattered and candidates' partitions summed in chunks of at most this many
#: (a first round has ~10^4 columns; Bell(b) explodes past 5 activities).
_COVER_CHUNK_ELEMENTS = 1 << 14


def _partition_covers(mask, dist, rows, segment, n_segments: int, n_bits: int):
    """Minimum covers of the ``n_bits``-activity *rows* of a block over
    every column segment, as a ``[len(rows), n_segments]`` array: *mask* /
    *dist* are the block's ``[|Q|, N]`` bitmasks and distances, *segment*
    each column's segment index.

    The cheapest point *carrying exactly* bitmask ``pm`` in each (row,
    segment) is a scatter-``minimum.at``; ``b`` halving passes of the
    superset-min transform (``M[g] ← min(M[g], M[g | bit])``) turn those
    into the group minima ``M[g]`` (nearest point whose bitmask *covers*
    ``g``) — minima are order-free, so bit-identical to one masked
    segment-min per group, and no temporary is wider than ``2^b`` per
    candidate.  The partitions are then summed slot by slot, left to
    right, through :func:`_set_partitions`' padded index table: the fold
    order of a per-partition loop, with ``x + 0.0 == x`` on the padding.
    """
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


def block_dmm(qk: QueryKernel, block: CandidateBlock, stats=None):
    """Exact ``Dmm`` for every block candidate, as a ``[C]`` float array
    (``inf`` only where ``Dmm`` truly is ``inf``) — also the Lemma-3 gate
    of :func:`block_dmom`.

    Single-activity rows are one masked segment-min (bit-identical to the
    per-candidate path).  Multi-activity rows use the set-partition
    decomposition of the minimum cover: the optimal cover equals, over all
    partitions of the row's activity bits into groups, the cheapest sum of
    per-group minima (``M[g]`` = nearest relevant point whose bitmask
    covers group ``g``) — any cover induces the partition that assigns
    each bit to the point covering it, and conversely each partition's
    group minima form a cover.  Rows of equal bit-width go through one
    :func:`_partition_covers` call, so the whole round's covers need no
    per-candidate work at all — and nothing would be saved by abandoning
    candidates against a threshold here.  Sums over 3+ groups may
    re-associate relative to the per-candidate *scan's* fold order — the
    same last-ulp class as the documented array-vs-scalar sources.
    """
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


def block_dmom(
    qk: QueryKernel,
    block: CandidateBlock,
    stats=None,
    threshold: float = INFINITY,
    k: Optional[int] = None,
):
    """``Dmom`` for every block candidate — blockwise gate, then the DP.

    The Lemma-3 gate is the whole-round :func:`block_dmm`; candidates whose
    gate exceeds the abandonment threshold are ``inf`` before any
    per-candidate work, exactly like the per-candidate gate.  The C fold
    then walks the survivors in ascending-gate order, reading each one's
    columns of ``block.big`` / ``block.mask`` in place — the computation
    :func:`dmom_prepared` performs — so that, with *k* set, the
    abandonment threshold tightens to the k-th smallest ``Dmom`` seen so
    far and later candidates (whose gates are lower bounds on their
    ``Dmom``) are abandoned against it.  Tightening only ever happens on
    ``Dmom`` values — the ranked metric — never on the ``Dmm`` gate
    values, whose k-th could undercut the final ``Dmom`` k-th and cost a
    true top-k member.

    Counter accounting (``point_match_points``) covers every candidate,
    exactly as the per-candidate gate would have counted it.
    """
    gates = block_dmm(qk, block, stats)
    out = _np.full(block.n, INFINITY)
    if block.total:
        order = _np.argsort(gates, kind="stable")
        _fold(qk, block.big, block.mask, order, gates, block.seg_of, block.lengths,
              threshold, k or 0, out)
    return out
