"""Array scoring kernels — NumPy distance matrices feeding array DPs.

The scalar hot path of the engine spends almost all of its time inside
Algorithm 3's minimum-point-match and Algorithm 4's order-sensitive DP:
profiling one cold-cache mixed workload shows >95% of query latency in
per-point ``DistanceMetric`` calls and per-``(i, j, k)``
:class:`~repro.core.match.PointMatchTable` updates.  This module replaces
both with a *prepare once, scan arrays* scheme:

1. :class:`QueryKernel` precomputes the per-query-point activity→bit
   assignment and the query-side halves of the distance formula (planar
   coordinates for Euclidean, radians + cosines for Haversine — computed
   once per query instead of once per metric call).
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
   O(n · 2^|q.Φ|) left-to-right scan (see :func:`dmom_prepared`).

On top of the per-candidate kernels sits the *block* kernel
(``kernel='block'``, the default): a whole validation round's
admitted candidates go into one :class:`CandidateBlock` — a flat
``[|Q|, N]`` distance matrix over every candidate's concatenated relevant
points, built by a **single** Euclidean/Haversine evaluation per round,
plus a same-shape activity bitmask and per-candidate column segments,
all assembled by :func:`prepare_block` from the candidates' point-major
activity columns with array ops only — and are scored together:

* :func:`block_dmm` computes every candidate's exact ``Dmm`` in
  whole-round array ops: per-row masked minima via one
  segment-``reduceat`` for single-activity rows, and the *set-partition
  decomposition* of the minimum cover for multi-activity rows (the
  optimal cover equals, over all partitions of the row's activity bits,
  the cheapest sum of per-group nearest-covering-point minima — each
  group minimum one more masked ``reduceat``).  All-single-activity
  queries take :func:`block_dmm_all_single`, a dedup-free layout — one
  column per activity occurrence, read off the same columns — with no
  per-candidate array work at all.
* :func:`block_dmom` gates on the block ``Dmm`` (Lemma 3) and walks the
  survivors cheapest-gate-first with a running k-th threshold, so most
  candidates are **abandoned** before the per-candidate DP; all-single-
  activity queries instead run the whole DP batched — each of the
  ``|Q|`` rows is two ``minimum.accumulate`` passes over a
  ``[survivors, Lmax]`` matrix.

Abandonment never moves a ranking or a counter: the values it replaces
with ``inf`` all exceed the final k-th distance (so the top-k collector
would reject them anyway), and every pruning counter is derived from the
relevance pattern exactly as the per-candidate scans would have counted
them — the block-vs-scalar engine parity suites compare ids and
counters exactly.

The per-candidate functions are also what :class:`MatchEvaluator`'s
``dmm`` / ``dmom`` run under ``kernel='block'`` (RT/IRT score one
candidate per pop) and what :func:`block_dmom`'s mixed-activity walk
calls; ``kernel='scalar'`` bypasses this module entirely.

Exactness
---------
The scalar implementations in :mod:`repro.core.match` and
:mod:`repro.core.order_match` are kept untouched as oracles; the
property-based suite (``tests/property/test_kernel_parity.py``) checks the
kernels against them on randomized inputs.  The combinatorics are
float-identical by construction: given the same distances, the cover DP
performs the same additions in the same order as ``PointMatchTable``
(each entry is ``best(remainder) + dist``).  Two last-ulp (≲2e-16
relative) discrepancy sources remain: NumPy's elementwise ``hypot``/trig
can round differently from ``libm``'s on ~0.5% of inputs, and the
``Dmom`` row scan folds multi-point cover sums in ascending-position
instead of descending-position order.  Neither moves a ranking or a
pruning counter except on exact distance ties, which the engine-level
parity suite checks never happens on real workloads (ids and counters
are compared exactly, distances to 1e-9 relative).

NumPy is a hard dependency (``setup.py``).

Every coordinate access below goes through ``trajectory.coord_array()``:
for array-backed trajectories (:meth:`ActivityTrajectory.from_arrays`,
the shared-memory store of :mod:`repro.storage.shm`) that is a zero-copy
view into the columnar store, so the round-batched and per-candidate
paths both read the mapped segment directly — no point objects, no
per-trajectory coordinate copies — and a process worker scores against
the same bytes the parent packed.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.model.distance import (
    DistanceMetric,
    EuclideanDistance,
    HaversineDistance,
    euclidean_matrix,
    haversine_matrix,
)

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
def min_cover_cost(entries: Sequence[Tuple[float, int]], n_bits: int) -> float:
    """Exact min-cost set cover over ``(dist, mask)`` entries.

    ``dp[t]`` is the cheapest cost of a point set whose mask union covers
    ``t``; folding one entry in performs exactly the additions
    ``dp[t & ~mask] + dist`` that :class:`~repro.core.match.PointMatchTable`
    performs (best remainder plus the new distance), so the result is
    bit-identical to adding the same entries to a table in the same order.
    """
    full = (1 << n_bits) - 1
    dp = [INFINITY] * (full + 1)
    dp[0] = 0.0
    for dist, pm in entries:
        if not pm:
            continue
        for t in range(1, full + 1):
            if t & pm:
                v = dp[t & ~pm] + dist
                if v < dp[t]:
                    dp[t] = v
    return dp[full]


def _mpm_scan(
    row: List[float], mrow: List[int], order: Sequence[int], n_bits: int
) -> float:
    """Algorithm 3 over precomputed arrays: ascending-distance scan with the
    paper's early termination (stop as soon as the best full cover is at
    most the next unprocessed point's distance)."""
    full = (1 << n_bits) - 1
    dp = [INFINITY] * (full + 1)
    dp[0] = 0.0
    best = INFINITY
    for c in order:
        d = row[c]
        if best <= d:
            break
        pm = mrow[c]
        for t in range(1, full + 1):
            if t & pm:
                v = dp[t & ~pm] + d
                if v < dp[t]:
                    dp[t] = v
        best = dp[full]
    return best


# ----------------------------------------------------------------------
# Per-query preparation
# ----------------------------------------------------------------------
class QueryKernel:
    """Query-side precomputation shared by every candidate of one query.

    Holds the per-query-point bit assignment (same iteration order as
    ``PointMatchTable`` uses, so masks are comparable in tests) and the
    query half of the array distance formula.  Metrics other than
    Euclidean/Haversine fall back to per-pair Python calls — still through
    one matrix, so the combinatorial kernels stay identical.
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
        "_mode",
        "_q0",
        "_q1",
        "_q2",
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
        #: and the one whose whole candidate preparation and DP can stay in
        #: NumPy arrays (see prepare_candidate / _dmom_all_single_np).
        self.all_single = all(b == 1 for b in self.n_bits)

        #: The block builder's lookup side: ``Q.Φ`` ascending (what a round's
        #: activity occurrences are ``searchsorted`` against) and, per row,
        #: the bit each of those activities holds there (0 = not asked for).
        self.sorted_activities = _np.array(sorted(query.all_activities), dtype=_np.int64)
        self.bit_table = _np.zeros((self.m, len(self.sorted_activities)), dtype=_np.int64)
        for row, bit_values in zip(self.bit_table, self.bit_values):
            row[_np.searchsorted(self.sorted_activities, list(bit_values))] = list(
                bit_values.values()
            )

        xs = _np.array([q.x for q in query], dtype=float)
        ys = _np.array([q.y for q in query], dtype=float)
        if type(metric) is EuclideanDistance:
            self._mode = "euclidean"
            self._q0, self._q1, self._q2 = xs, ys, None
        elif type(metric) is HaversineDistance:
            self._mode = "haversine"
            lon = _np.radians(xs)
            lat = _np.radians(ys)
            self._q0, self._q1, self._q2 = lon, lat, _np.cos(lat)
        else:
            self._mode = "generic"
            self._q0 = self._q1 = self._q2 = None

    def _generic_rows(self, trajectory, positions: List[int]) -> List[List[float]]:
        pts = trajectory.points
        metric = self.metric
        coords = [pts[p].coord for p in positions]
        return [[metric(q.coord, c) for c in coords] for q in self.query]

    def distance_matrix(self, trajectory, positions: List[int]):
        """The ``|Q| x len(positions)`` distance matrix as a NumPy array
        (non-stock metrics go through per-pair Python calls, then one
        ``asarray`` — the combinatorial kernels downstream are identical)."""
        if self._mode == "generic":
            return _np.asarray(self._generic_rows(trajectory, positions), dtype=float)
        sub = trajectory.coord_array()[positions]
        px = sub[:, 0]
        py = sub[:, 1]
        if self._mode == "euclidean":
            return euclidean_matrix(self._q0, self._q1, px, py)
        return haversine_matrix(
            self._q0, self._q1, self._q2, _np.radians(px), _np.radians(py)
        )

    def distance_rows(self, trajectory, positions: List[int]) -> List[List[float]]:
        """The same matrix as Python rows (list indexing is what the scan
        loops do; one ``tolist`` beats a million boxed NumPy scalar reads)."""
        if self._mode == "generic":
            return self._generic_rows(trajectory, positions)
        return self.distance_matrix(trajectory, positions).tolist()

    def distance_matrix_for(self, coords):
        """The ``|Q| x N`` distance matrix against a raw ``(N, 2)`` float
        array of point coordinates.

        This is the block kernel's single per-round distance evaluation:
        the concatenated relevant points of *every* candidate go through
        one elementwise NumPy call, so each entry is bit-identical to the
        per-candidate :meth:`distance_matrix` value for the same pair
        (elementwise ufuncs do not round differently with array size).
        Only meaningful for the stock metrics — generic metrics have no
        array formula, and the block builder keeps their per-pair Python
        path per candidate.
        """
        px = coords[:, 0]
        py = coords[:, 1]
        if self._mode == "euclidean":
            return euclidean_matrix(self._q0, self._q1, px, py)
        if self._mode == "haversine":
            return haversine_matrix(
                self._q0, self._q1, self._q2, _np.radians(px), _np.radians(py)
            )
        raise ValueError("distance_matrix_for requires a stock metric")


class CandidateArrays:
    """Everything the kernels need about one (query, trajectory) pair.

    Two storage shapes, chosen by :func:`prepare_candidate`:

    * list rows (``dist_rows`` / ``mask_rows``) — what the mixed
      single/multi-activity scan loops index;
    * NumPy matrices (``dist_matrix`` / ``mask_matrix``) — the all-single-
      activity fast path, where both ``Dmm`` and the ``Dmom`` DP run as
      whole-array ops and a per-candidate ``tolist`` would cost more than
      the arithmetic it feeds.

    The pair that was not built stays ``None``; :func:`dmm_prepared` and
    :func:`dmom_prepared` branch on ``mask_matrix``.
    """

    __slots__ = ("positions", "dist_rows", "mask_rows", "dist_matrix", "mask_matrix")

    def __init__(
        self,
        positions: List[int],
        dist_rows: Optional[List[List[float]]] = None,
        mask_rows: Optional[List[List[int]]] = None,
        dist_matrix=None,
        mask_matrix=None,
    ) -> None:
        if dist_rows is None and dist_matrix is None:
            raise ValueError("either dist_rows or dist_matrix is required")
        self.positions = positions
        self.dist_rows = dist_rows
        self.mask_rows = mask_rows
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
    n = len(positions)

    if qk.all_single:
        # All-single-activity fast path: keep the distance matrix in array
        # form (it is born as one) and scatter the posting columns into a
        # boolean mask matrix — no per-candidate tolist, no bitmask lists.
        mask = _np.zeros((qk.m, n), dtype=bool)
        for i, bit_values in enumerate(qk.bit_values):
            for activity in bit_values:
                ps = posting.get(activity)
                if ps:
                    mask[i, [col_of[p] for p in ps]] = True
        return CandidateArrays(
            positions,
            dist_matrix=qk.distance_matrix(trajectory, positions),
            mask_matrix=mask,
        )

    dist_rows = qk.distance_rows(trajectory, positions)

    mask_rows: List[List[int]] = []
    for bit_values in qk.bit_values:
        mrow = [0] * n
        for activity, bit in bit_values.items():
            ps = posting.get(activity)
            if ps:
                for p in ps:
                    mrow[col_of[p]] |= bit
        mask_rows.append(mrow)
    return CandidateArrays(positions, dist_rows=dist_rows, mask_rows=mask_rows)


# ----------------------------------------------------------------------
# Dmm — Lemma 1 over the prepared arrays
# ----------------------------------------------------------------------
def _dmm_all_single_np(qk: QueryKernel, cand: CandidateArrays, stats=None) -> float:
    """``Dmm`` over the array-form candidate: each row is one masked min.

    Mirrors the scalar fold exactly, including its stats accounting — the
    per-row candidate count is added *before* the empty-row early exit, so
    ``point_match_points`` matches the scalar path even on misses.  ``min``
    is order-independent for floats, so the value is bit-identical.
    """
    dist = cand.dist_matrix
    mask = cand.mask_matrix
    total = 0.0
    for i in range(qk.m):
        mi = mask[i]
        count = int(mi.sum())
        if stats is not None:
            stats.point_match_points += count
        if count == 0:
            return INFINITY
        total += float(dist[i][mi].min())
    return total


def dmm_prepared(qk: QueryKernel, cand: CandidateArrays, stats=None) -> float:
    """``Dmm(Q, Tr)``: per-query-point Algorithm 3 over the distance rows.

    Single-activity query points (the common case) reduce to a plain
    ``min`` over the candidate columns — no cover DP at all; when *every*
    point is single-activity the whole computation stays in NumPy
    (:func:`_dmm_all_single_np`).
    """
    if cand.mask_matrix is not None:
        return _dmm_all_single_np(qk, cand, stats)
    total = 0.0
    for i in range(qk.m):
        row = cand.dist_rows[i]
        mrow = cand.mask_rows[i]
        cols = [c for c, pm in enumerate(mrow) if pm]
        if stats is not None:
            stats.point_match_points += len(cols)
        if not cols:
            return INFINITY
        if qk.n_bits[i] == 1:
            d = min(row[c] for c in cols)
        else:
            # Stable sort on distance keeps equal-distance columns in
            # ascending position order — the scalar (dist, pos) tie-break.
            order = sorted(cols, key=row.__getitem__)
            d = _mpm_scan(row, mrow, order, qk.n_bits[i])
        if d == INFINITY:
            return INFINITY
        total += d
    return total


# ----------------------------------------------------------------------
# Dmom — Algorithm 4 as a single left-to-right scan per row
# ----------------------------------------------------------------------
def _dmom_row_single(prev: List[float], row: List[float], mrow: List[int]) -> List[float]:
    """One single-activity Dmom row as the scalar recurrence.

    Covers are single points, so the cover state ``A`` collapses to
    ``(a0, best)``: ``a0`` is the running prefix-min of ``prev[1..j]``
    (the cheapest place a new segment may start) and ``best`` the best
    ``a0 + d`` seen so far.  The mixed single/multi-activity DP's row;
    :func:`_dmom_all_single_np` is the same recurrence over arrays.
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


def _dmom_all_single_np(qk: "QueryKernel", cand: "CandidateArrays", threshold: float) -> float:
    """The whole Dmom DP as array ops when *every* query point carries a
    single activity (the paper's most common query shape).

    The candidate is already in array form (:func:`prepare_candidate`
    never built lists for it), and each of the ``|Q|`` rows is the
    prefix/segment-min recurrence of :func:`_dmom_row_single` as array
    ops: ``a0[j] = min(prev[1..j])`` is one ``minimum.accumulate``, the
    candidate values ``a0 + d`` exist only where the point carries the
    activity (``inf`` elsewhere), and ``cur[j] = min over j' <= j`` is a
    second accumulate — every addition and min the scalar recurrence
    performs, in the same order, so the result is bit-identical.  ``prev``
    holds ``G(i-1, 1..n)``; the guardian row ``G(0, *) = 0`` is the
    initial zeros.  The Lemma-4 row threshold exit is unchanged.
    """
    dist = cand.dist_matrix
    mask = cand.mask_matrix
    prev = _np.zeros(dist.shape[1], dtype=float)
    for i in range(qk.m):
        a0 = _np.minimum.accumulate(prev)
        vals = _np.where(mask[i], a0 + dist[i], INFINITY)
        cur = _np.minimum.accumulate(vals)
        if cur[-1] > threshold:
            return INFINITY
        prev = cur
    return float(prev[-1])


def dmom_prepared(
    qk: QueryKernel, cand: CandidateArrays, threshold: float = INFINITY
) -> float:
    """``Dmom(Q, Tr)`` over the prepared arrays.

    The scalar Algorithm 4 evaluates ``G(i, j) = min_k G(i-1, k) +
    Dmpm(q_i, Tr[k, j])`` by rebuilding an incremental point-match table
    per cell — O(n²) table updates per row.  Here each row is one O(n·2^b)
    scan: ``A[t]`` is the cheapest ``G(i-1, k) + (cover of mask t by
    points k..j)`` over all segment starts ``k ≤ j``.  Folding point ``j``
    in updates ``A[0]`` with ``G(i-1, j)`` (the empty cover can start a
    new segment at ``j``) and then relaxes ``A[t] ← A[t & ~mask_j] + d_j``
    in ascending mask order; ``G(i, j)`` is ``A[full]`` after the fold.
    This is the same min-cost-cover relaxation as the table (a point used
    twice can never beat using it once, costs being non-negative), with
    the segment base folded into ``A[0]`` as a running prefix minimum.

    The paper's row-level threshold early-exit (Lemma 4) is preserved:
    when a finished row's last entry exceeds *threshold* the candidate can
    never beat the current k-th best, and the scan aborts.
    """
    if cand.mask_matrix is not None:
        # All-array fast path: every row is the single-activity
        # recurrence, so the whole DP stays in arrays (bit-identical to
        # the scalar fold below — the parity suite asserts exact equality).
        return _dmom_all_single_np(qk, cand, threshold)
    n = len(cand.positions)
    prev = [0.0] * (n + 1)  # G(0, *) = 0 — guardian row
    for i in range(qk.m):
        row = cand.dist_rows[i]
        mrow = cand.mask_rows[i]
        if qk.n_bits[i] == 1:
            # Covers are single points: A collapses to (prefix-min of
            # prev, best value so far).
            cur = _dmom_row_single(prev, row, mrow)
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


# ----------------------------------------------------------------------
# Block kernel — one flat tensor per validation round
# ----------------------------------------------------------------------
class CandidateBlock:
    """One validation round's candidates in flat concatenated form.

    ``big`` is the ``[|Q|, N]`` distance matrix over the concatenation of
    every candidate's relevant positions — built by a **single**
    Euclidean/Haversine evaluation per round — and ``mask`` the same-shape
    per-query-point activity-overlap bitmasks (``rel`` caches ``mask !=
    0``).  ``seg_of``/``lengths`` map a candidate to its column segment
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

    def candidate_arrays(self, c: int) -> Optional[CandidateArrays]:
        """The per-candidate view of candidate *c* — the list-form
        :class:`CandidateArrays` :func:`prepare_candidate` would have built,
        sliced back out of the block (``None`` for a candidate with no
        relevant points, mirroring :func:`prepare_candidate`)."""
        n = self.lengths[c]
        if n == 0:
            return None
        s = self.seg_of[c]
        return CandidateArrays(
            self.positions[s : s + n].tolist(),
            dist_rows=self.big[:, s : s + n].tolist(),
            mask_rows=self.mask[:, s : s + n].tolist(),
        )


def _round_hits(qk: QueryKernel, items: Sequence[tuple]):
    """One round's activity occurrences looked up in ``Q.Φ`` — the first
    step of both round builds (:func:`prepare_block`,
    :func:`block_dmm_all_single`).

    One Python step per candidate collects its point-major activity
    columns (:meth:`ActivityTrajectory.activity_columns` — zero-copy views
    for array-backed trajectories) and coordinates; the rest is array
    work: every occurrence is ``searchsorted`` against the query's sorted
    activity ids.  Returns ``(hit_slots, hit_points, cand_of_point,
    n_points, coords)``: per *hit* (an occurrence of a query activity, in
    candidate-major, point-major order) its slot in
    ``qk.sorted_activities`` and its round-wide point index; per
    round-wide point its candidate; per candidate its point count; and the
    round's concatenated ``(N, 2)`` coordinates.
    """
    n_items = len(items)
    value_chunks, count_chunks, coord_chunks = [], [], []
    for trajectory, _posting in items:
        values, per_point = trajectory.activity_columns()
        value_chunks.append(values)
        count_chunks.append(per_point)
        coord_chunks.append(trajectory.coord_array())
    values = _np.concatenate(value_chunks)
    per_point = _np.concatenate(count_chunks)
    n_points = _np.fromiter(map(len, count_chunks), dtype=_np.intp, count=n_items)

    slots = _np.minimum(
        _np.searchsorted(qk.sorted_activities, values), len(qk.sorted_activities) - 1
    )
    hit = qk.sorted_activities[slots] == values
    hit_points = _np.repeat(_np.arange(len(per_point)), per_point)[hit]
    cand_of_point = _np.repeat(_np.arange(n_items), n_points)
    return slots[hit], hit_points, cand_of_point, n_points, _np.concatenate(coord_chunks)


def prepare_block(qk: QueryKernel, items: Sequence[tuple]) -> CandidateBlock:
    """Stack one round's candidates into a :class:`CandidateBlock`.

    *items* is a non-empty sequence of ``(trajectory, posting)`` pairs;
    only the trajectory is read.  *posting*, the candidate's APL record,
    is what validation's ``covers_query`` check consumed and what the
    counted read paid for; the block scores from the in-memory activity
    columns, which hold the same occurrences (:func:`_round_hits`).  The
    hits are point-major, so their run boundaries are the relevant points,
    already in position order within each candidate.
    """
    m = qk.m
    n_items = len(items)
    hit_slots, hit_points, cand_of_point, n_points, coords = _round_hits(qk, items)
    # A point with an empty activity set contributes no occurrence, so it
    # cannot open a run: boundaries are read off the hits themselves.
    opens = _np.ones(len(hit_points), dtype=bool)
    opens[1:] = hit_points[1:] != hit_points[:-1]
    relevant = hit_points[opens]
    total = len(relevant)

    point_base = n_points.cumsum() - n_points
    cand_of_column = cand_of_point[relevant]
    positions = relevant - point_base[cand_of_column]
    counts = _np.bincount(cand_of_column, minlength=n_items)
    starts = counts.cumsum() - counts
    empty = counts == 0
    starts[empty] = -1
    # Plain lists: the scorers index these one candidate at a time.
    lengths = counts.tolist()
    seg_of = starts.tolist()
    flat_ids = _np.flatnonzero(counts).tolist()
    seg_starts = starts[flat_ids].tolist()

    if qk._mode == "generic":
        big = _np.empty((m, total))
        for c in flat_ids:
            s = seg_of[c]
            n = lengths[c]
            big[:, s : s + n] = qk._generic_rows(
                items[c][0], positions[s : s + n].tolist()
            )
    else:
        big = qk.distance_matrix_for(coords[relevant])

    # Bitmask: each row sums its bit of every hit into the hit's column
    # (a point lists an activity once, so each (row, column) sees each bit
    # at most once and the sum equals the bitwise OR).
    column_of_hit = opens.cumsum() - 1
    mask = _np.empty((m, total), dtype=_np.int64)
    for i in range(m):
        mask[i] = _np.bincount(
            column_of_hit, weights=qk.bit_table[i, hit_slots], minlength=total
        )

    # A row is missing from a candidate when one of its activities never
    # occurs there; recorded only for candidates that have columns (the
    # others are infeasible on their zero counts already).
    present = _np.zeros((n_items, len(qk.sorted_activities)), dtype=bool)
    present[cand_of_column[column_of_hit], hit_slots] = True
    absent = ~present
    absent[empty] = False
    missing_rows = _np.argwhere(absent @ (qk.bit_table.T != 0))
    return CandidateBlock(
        n_items, lengths, positions, seg_of, flat_ids, seg_starts, total,
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


def block_dmm_all_single(qk: QueryKernel, items: Sequence[tuple], stats=None):
    """``Dmm`` for one round of an all-single-activity query, without ever
    materialising a :class:`CandidateBlock`.

    ``Dmm`` is order-free, so the candidate columns need no position
    dedup: every hit of :func:`_round_hits` is a column **as-is** (a point
    carrying two query activities simply appears once per activity —
    duplicates never move a minimum).  Relevance is then a single slot
    comparison (``row activity == column activity``) instead of a bitmask
    scatter, a row's candidate count is its activity's occurrence count in
    the candidate (a point lists an activity once), and the per-row minima
    fall out of one masked segment-``reduceat``.  Values and counter
    accounting are bit-identical to the per-candidate all-single path.
    (The order-sensitive DP cannot ride this layout — duplicated columns
    break its prefix semantics — so :func:`block_dmom` keeps the
    deduplicated block.)
    """
    n_items = len(items)
    n_slots = len(qk.sorted_activities)
    hit_slots, hit_points, cand_of_point, _n_points, coords = _round_hits(qk, items)
    row_slots = qk.bit_table.argmax(axis=1)  # each row asks one activity

    per_activity = _np.bincount(
        cand_of_point[hit_points] * n_slots + hit_slots, minlength=n_items * n_slots
    ).reshape(n_items, n_slots)
    counts = per_activity[:, row_slots]
    columns = per_activity.sum(axis=1)
    flat_ids = _np.flatnonzero(columns)
    seg_starts = (columns.cumsum() - columns)[flat_ids]

    masked = _np.where(
        row_slots[:, None] == hit_slots,
        qk.distance_matrix_for(coords[hit_points]),
        INFINITY,
    )
    rowvals = _np.full((n_items, qk.m), INFINITY)
    rowvals[flat_ids] = _np.minimum.reduceat(masked, seg_starts, axis=1).T
    return _fold_rows(rowvals, counts, counts == 0, stats)


def _set_partitions(n_bits: int) -> List[Tuple[int, ...]]:
    """All partitions of ``n_bits`` bits into non-empty groups, each group
    a bitmask (Bell(n_bits) partitions: 1, 2, 5, 15, 52 for 1..5 bits —
    the paper bounds ``|q.Φ|`` at 5).  Memoised; used by the block cover.
    """
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
    group minima form a cover.  Every ``M[g]`` is one masked
    segment-``reduceat``, so the whole round's covers need no
    per-candidate work at all — and nothing would be saved by abandoning
    candidates against a threshold here.  Sums over 3+ groups may
    re-associate relative to the per-candidate scan's fold order — the
    same last-ulp class as the documented array-vs-scalar sources.
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
            for partition in _set_partitions(qk.n_bits[i]):
                value = group_min[partition[0]]
                for g in partition[1:]:
                    value = value + group_min[g]
                best = value if best is None else _np.minimum(best, value)
            rowvals[flat, i] = best
    invalid = counts == 0
    invalid[block.missing_rows[:, 0], block.missing_rows[:, 1]] = True
    rowvals[invalid] = INFINITY
    return _fold_rows(rowvals, counts, invalid, stats)


def _block_dmom_all_single(
    qk: QueryKernel, block: CandidateBlock, todo: List[int], threshold: float
):
    """The all-single-activity Dmom DP for every surviving candidate at
    once: each row is the two-``minimum.accumulate`` recurrence of
    :func:`_dmom_all_single_np` over a ``[survivors, Lmax]`` matrix built
    from the survivors' block segments.

    Padding is inert: padded columns are masked out (their ``vals`` are
    ``inf``) and the running row minimum carries each candidate's last
    valid value into ``cur[:, -1]``, so every candidate's result — and its
    Lemma-4 row threshold exit — is bit-identical to the per-candidate DP.
    """
    res = _np.full(block.n, INFINITY)
    if not todo:
        return res
    lmax = max(block.lengths[c] for c in todo)
    t_count = len(todo)
    dist = _np.full((t_count, qk.m, lmax), INFINITY)
    nz = _np.zeros((t_count, qk.m, lmax), dtype=bool)
    for t, c in enumerate(todo):
        s = block.seg_of[c]
        n = block.lengths[c]
        dist[t, :, :n] = block.big[:, s : s + n]
        nz[t, :, :n] = block.rel[:, s : s + n]
    ids = _np.asarray(todo)
    active = _np.arange(t_count)
    prev = _np.zeros((t_count, lmax))
    for i in range(qk.m):
        a0 = _np.minimum.accumulate(prev, axis=1)
        vals = _np.where(nz[active, i, :], a0 + dist[active, i, :], INFINITY)
        cur = _np.minimum.accumulate(vals, axis=1)
        alive = cur[:, -1] <= threshold
        if not alive.all():
            active = active[alive]
            if len(active) == 0:
                return res
            cur = cur[alive]
        prev = cur
    res[ids[active]] = prev[:, -1]
    return res


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
    per-candidate work, exactly like the per-candidate gate.
    All-single-activity queries then run the batched DP; mixed queries
    walk the survivors in ascending-gate order through the per-candidate
    :func:`dmom_prepared` DP — the identical computation
    :meth:`MatchEvaluator.dmom` performs — so that, with *k* set, the
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
    if qk.all_single:
        todo = _np.nonzero(_np.isfinite(gates) & (gates <= threshold))[0]
        return _block_dmom_all_single(qk, block, todo.tolist(), threshold)
    out = _np.full(block.n, INFINITY)
    order = _np.argsort(gates, kind="stable").tolist()
    tau = threshold
    heap: List[float] = []
    for c in order:
        gate = gates[c]
        if gate > tau or gate == INFINITY:
            break  # ascending gates: nothing further can beat the k-th
        cand = block.candidate_arrays(c)
        if cand is None:  # unreachable for gated candidates; stay exact
            continue
        value = dmom_prepared(qk, cand, tau)
        out[c] = value
        if k is not None and value != INFINITY:
            heapq.heappush(heap, -value)
            if len(heap) > k:
                heapq.heappop(heap)
            if len(heap) == k and -heap[0] < tau:
                tau = -heap[0]
    return out
