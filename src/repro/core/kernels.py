"""Array scoring kernels — distance matrices feeding array DPs.

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
points, plus a same-shape activity bitmask, per-candidate column
segments and missing-row flags — and are scored together.  A round is C
code over the APL image (section (d) of ``repro/native/gat.c``), one call
per entry, reading the candidates' rows of the APL array store
(:mod:`repro.index.gat.apl`) through the key lookup validation already
computed:

* :func:`prepare_block` gathers each candidate's looked-up posting lists,
  dedups their positions into columns, ORs the bitmasks, flags the
  missing rows and evaluates the Euclidean distances (libm ``hypot``,
  which equals ``np.hypot``; a generic metric fills them pair by pair).
* :func:`block_dmm` computes every candidate's exact ``Dmm``: per row,
  the *set-partition decomposition* of the minimum cover (the optimal
  cover equals, over all partitions of the row's activity bits, the
  cheapest sum of per-group nearest-covering-point minima — a scatter-min
  per exact bitmask and a superset-min transform over ``2^b`` states; a
  single-activity row is its masked minimum).  All-single-activity
  queries take :func:`block_dmm_all_single`, which reads each row's one
  posting list straight from the image — no block at all.
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
relative) discrepancy sources remain: ``np.hypot`` / libm's ``hypot``
can round differently from ``math.hypot`` on ~0.6% of inputs, and the
``Dmom`` row scan folds multi-point cover sums in ascending-position
instead of descending-position order (the block cover's partition sums
likewise follow the partitions' order, not the scan's).  Neither moves a
ranking or a pruning counter except on exact distance ties, which the
engine-level parity suite checks never happens on real workloads (ids
and counters are compared exactly, distances to 1e-9 relative).

The kernels' *own* shortcuts are not in that class — they are exact.
The dense row scan :func:`dmom_prepared` ran before it skipped folds, the
Python fold it ran before the fold moved to C, the per-group loop
:func:`block_dmm` ran before its covers became one transform, and the
NumPy round the C round replaced live on as oracles in
``tests/property/`` (``dense_dmom_oracle.py``, ``python_fold_oracle.py``,
``group_loop_dmm_oracle.py``, ``numpy_round_oracle.py``) and are compared
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
from repro.native import c_array, ffi, lib

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
        "c_bits",
        "c_slots",
        "xy",
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
        #: ``bit_table`` and, per row, the slot of its highest bit — an
        #: all-single row's one activity — as the C round reads them.
        self.c_bits = c_array("int64_t", self.bit_table)
        self.c_slots = ffi.new("int64_t[]", self.bit_table.argmax(axis=1).tolist())

        if type(metric) is EuclideanDistance:
            self._mode = "euclidean"
            self._q0 = _np.array([q.x for q in query], dtype=float)
            self._q1 = _np.array([q.y for q in query], dtype=float)
            #: ``(x, y)`` per query point: the C round evaluates distances.
            self.xy = ffi.new("double[]", [c for q in query for c in q.coord])
        else:
            self._mode = "generic"
            self._q0 = self._q1 = None
            self.xy = ffi.NULL

    def _pairwise_rows(self, coords: Sequence[Tuple[float, float]]) -> List[List[float]]:
        """Per-pair metric calls — the only form a non-stock metric has."""
        metric = self.metric
        return [[metric(q.coord, c) for c in coords] for q in self.query]

    def distance_matrix(self, trajectory, positions: List[int]):
        """The ``|Q| x len(positions)`` distance matrix of one candidate, as
        a NumPy array (:meth:`distance_matrix_for` its points)."""
        return self.distance_matrix_for(trajectory.coord_array()[positions])

    def distance_matrix_for(self, coords):
        """The ``|Q| x N`` distance matrix against a raw ``(N, 2)`` float
        array of point coordinates: one elementwise ``np.hypot`` — which
        the C round's libm ``hypot`` equals bit for bit — or, for a
        generic metric, which has no array formula, per-pair calls (the
        block fills its distances this way then)."""
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
def _checked(status: int, what: str) -> None:
    """Raise :class:`MemoryError` on a C entry's out-of-memory return."""
    if status:
        raise MemoryError(what)


def _fold(qk, dist, mask, order, gates, seg_of, lengths, threshold, k, out) -> None:
    """``gat_dmom_block``: the ``Dmom`` of candidates *order* (column
    segment ``seg_of[c]``, ``lengths[c]`` long, of the ``[|Q|, N]`` *dist*
    / *mask*) into ``out[c]``, in that order; stopping at the first gate
    above the running threshold when *gates* is given, and tightening the
    threshold to the k-th smallest ``Dmom`` when ``k > 0``."""
    if not (dist.dtype == _np.float64 and mask.dtype == _np.int64 and dist.shape == mask.shape):
        raise TypeError("the Dmom fold reads float64 distances and int64 masks of one shape")
    _checked(lib.gat_dmom_block(
        qk.m, qk.fold_bits, c_array("double", dist), c_array("int64_t", mask), dist.shape[1],
        c_array("int64_t", order), len(order),
        ffi.NULL if gates is None else c_array("double", gates), c_array("int64_t", seg_of),
        c_array("int64_t", lengths), threshold, k, c_array("double", out, True),
    ), "Dmom fold")


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
    every candidate's relevant positions and ``mask`` the same-shape
    per-query-point activity-overlap bitmasks.  ``seg_of``/``lengths``
    (``int64`` arrays; ``seg_of`` is -1 for an empty segment) map a
    candidate to its column segment (and to its slice of ``positions``, the
    columns' trajectory positions as one flat int array); candidates with
    no relevant position keep an empty segment so outputs align with the
    input order.  ``missing`` is a ``[C, |Q|]`` bool array flagging the
    rows some query activity of which never occurs in the candidate —
    recorded during the build, where the candidate × activity lookup is in
    hand, because such a row can never be covered (Algorithm 3 returns
    ``inf``) even when other activities give it relevant points; only
    candidates with columns are flagged.
    """

    __slots__ = ("n", "lengths", "seg_of", "positions", "total", "big", "mask", "missing")

    def __init__(self, n, lengths, seg_of, positions, total, big, mask, missing) -> None:
        self.n = n
        self.lengths = lengths
        self.seg_of = seg_of
        self.positions = positions
        self.total = total
        self.big = big
        self.mask = mask
        self.missing = missing


def _round_args(candidates):
    """The round's image arrays, rows and lookup, as the C round reads them."""
    image, lookup = candidates.image, candidates.lookup()
    return (
        c_array("int64_t", image.offsets), c_array("int64_t", image.positions),
        c_array("int64_t", image.point_offsets), c_array("double", image.xy),
        c_array("int64_t", candidates.rows), c_array("int64_t", lookup),
        len(candidates), lookup.shape[1],
    )


def _block_args(qk: QueryKernel, block: CandidateBlock):
    """The block's arrays, as the C covers and fold read them."""
    return (
        qk.m, qk.fold_bits, c_array("double", block.big), c_array("int64_t", block.mask),
        block.total, block.n, c_array("int64_t", block.seg_of),
        c_array("int64_t", block.lengths), c_array("uint8_t", block.missing),
    )


def _scores(n: int, stats, what: str, entry, *args):
    """``entry(*args, out, points)`` into a fresh ``[n]`` float array, adding
    the ``point_match_points`` it counts to *stats*."""
    out = _np.empty(n)
    points = ffi.new("int64_t *")
    _checked(entry(*args, c_array("double", out, True), points), what)
    if stats is not None:
        stats.point_match_points += points[0]
    return out


def prepare_block(qk: QueryKernel, candidates) -> CandidateBlock:
    """Stack one round's candidates into a :class:`CandidateBlock`
    (``gat_round_block``).

    *candidates* is a non-empty
    :class:`~repro.index.gat.apl.PostingRound` against
    ``qk.sorted_activities``.  A candidate's columns are its points that
    one of its looked-up posting lists names, in position order, and a
    column's bitmask ORs, per row, the bits of the activities listing it.
    The C build evaluates the Euclidean distances itself; a generic metric
    fills them afterwards, pair by pair, from the columns' coordinates.
    """
    n, m = len(candidates), qk.m
    seg_of = _np.empty(n, dtype=_np.int64)
    lengths = _np.empty(n, dtype=_np.int64)
    missing = _np.empty((n, m), dtype=bool)
    out = ffi.new("gat_columns *")
    _checked(lib.gat_round_block(
        *_round_args(candidates), m, qk.c_bits, qk.xy, c_array("int64_t", seg_of, True),
        c_array("int64_t", lengths, True), c_array("uint8_t", missing, True), out,
    ), "block build")
    total = out.total
    # The block's arrays live in one malloc'd buffer, freed with the last of them.
    data = ffi.buffer(ffi.gc(out.data, lib.gat_free), (2 * m + 1) * total * 8)
    big = _np.frombuffer(data, _np.float64, m * total).reshape(m, total)
    mask = _np.frombuffer(data, _np.int64, m * total, 8 * m * total).reshape(m, total)
    positions = _np.frombuffer(data, _np.int64, total, 16 * m * total)
    if qk.xy == ffi.NULL:
        image = candidates.image
        points = _np.repeat(image.point_offsets[candidates.rows], lengths) + positions
        big = qk.distance_matrix_for(image.xy[points])
    return CandidateBlock(n, lengths, seg_of, positions, total, big, mask, missing)


def block_dmm_all_single(qk: QueryKernel, candidates, stats=None):
    """``Dmm`` for one round of an all-single-activity query straight from
    the APL image (``gat_round_dmm_single``), without a
    :class:`CandidateBlock`: ``Dmm`` is order-free, so a row's value is the
    nearest point of its one activity's posting list, and its candidate
    count that list's length — no column dedup.  Values and counter
    accounting are bit-identical to the per-candidate all-single path.  A
    generic metric goes through the block instead (the same values)."""
    if qk.xy == ffi.NULL:
        return block_dmm(qk, prepare_block(qk, candidates), stats)
    return _scores(
        len(candidates), stats, "all-single Dmm", lib.gat_round_dmm_single,
        *_round_args(candidates), qk.m, qk.c_slots, qk.xy,
    )


def block_dmm(qk: QueryKernel, block: CandidateBlock, stats=None):
    """Exact ``Dmm`` for every block candidate, as a ``[C]`` float array
    (``inf`` only where ``Dmm`` truly is ``inf``) — ``gat_block_dmm``.

    Each row's cover uses the set-partition decomposition of the minimum
    cover: the optimal cover equals, over all partitions of the row's
    activity bits into groups, the cheapest sum of per-group minima
    (``M[g]`` = nearest relevant point whose bitmask covers group ``g``) —
    any cover induces the partition that assigns each bit to the point
    covering it, and conversely each partition's group minima form a cover.
    ``M`` is a scatter-min per exact bitmask and a superset-min transform
    over ``2^b`` states; a single-activity row is the one-partition case,
    its masked minimum.  Sums over 3+ groups may re-associate relative to
    the per-candidate *scan's* fold order — the same last-ulp class as the
    documented array-vs-scalar sources.
    """
    return _scores(block.n, stats, "block Dmm", lib.gat_block_dmm, *_block_args(qk, block))


def block_dmom(
    qk: QueryKernel,
    block: CandidateBlock,
    stats=None,
    threshold: float = INFINITY,
    k: Optional[int] = None,
):
    """``Dmom`` for every block candidate — blockwise gate, then the DP
    (``gat_block_dmom``).

    The Lemma-3 gate is the whole-round :func:`block_dmm`; candidates whose
    gate exceeds the abandonment threshold are ``inf`` before any
    per-candidate work, exactly like the per-candidate gate.  The C fold
    then walks the survivors in ascending-gate order (ties by candidate),
    reading each one's columns of ``block.big`` / ``block.mask`` in place —
    the computation :func:`dmom_prepared` performs — so that, with *k* set,
    the abandonment threshold tightens to the k-th smallest ``Dmom`` seen
    so far and later candidates (whose gates are lower bounds on their
    ``Dmom``) are abandoned against it.  Tightening only ever happens on
    ``Dmom`` values — the ranked metric — never on the ``Dmm`` gate
    values, whose k-th could undercut the final ``Dmom`` k-th and cost a
    true top-k member.

    Counter accounting (``point_match_points``) covers every candidate,
    exactly as the per-candidate gate would have counted it.
    """
    return _scores(
        block.n, stats, "block Dmom", lib.gat_block_dmom, *_block_args(qk, block),
        threshold, k or 0,
    )
