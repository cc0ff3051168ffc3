"""Array scoring kernels — a validation round's candidates, scored in C.

The scalar hot path of the engine spends almost all of its time inside
Algorithm 3's minimum-point-match and Algorithm 4's order-sensitive DP:
profiling one cold-cache mixed workload shows >95% of query latency in
per-point ``DistanceMetric`` calls and per-``(i, j, k)``
:class:`~repro.core.match.PointMatchTable` updates.  This module replaces
both with a *prepare once, scan arrays* scheme (``kernel='block'``, the
default):

1. :class:`QueryKernel` precomputes, once per query, the per-query-point
   activity→bit assignment, ``Q.Φ`` ascending with each row's bit for
   every activity in it, the activity slots of the MIB check
   (:func:`point_slots`) and the query points' coordinates.
2. :func:`prepare_block` stacks a round's candidates — a
   :class:`~repro.index.gat.apl.PostingRound`: rows of an APL image,
   looked up against ``Q.Φ`` — into one :class:`CandidateBlock`: the
   coordinates of every candidate's concatenated relevant points
   (``rel(Tr)``: the points carrying a query activity — exactly the
   sub-sequence the compressed scalar DP runs over), a flat ``[|Q|, N]``
   distance matrix over them that the covers fill, a same-shape activity
   bitmask, per-candidate column segments and missing-row flags.
3. :func:`block_dmm` / :func:`block_dmom` run the combinatorics over the
   block: Algorithm 3's set cover as a set-partition decomposition over
   ``2^|q.Φ|`` states (|q.Φ| ≤ 5 in the paper), and Algorithm 4's row
   recurrence collapsed from O(n²) incremental table rebuilds to one
   left-to-right scan per row (the C fold ``gat_dmom_block``), at most
   O(n · 2^|q.Φ|) and in practice far less: a point is folded only when
   it could still lower the row's best cover without exceeding the
   threshold.

All of it is C over the APL image (section (d) of
``repro/native/gat.c``), one call per entry, reading the candidates' rows
through the key lookup validation already computed.  Each entry takes
handles: the image's (published with it), the query's
(:attr:`QueryKernel.handle`, built once per query) and, for the covers
and the fold, the block's own ``gat_columns`` buffer
(:attr:`CandidateBlock.columns`); only the round's rows and lookup and
the entry's output are wrapped per call:

* :func:`prepare_block` gathers each candidate's looked-up posting lists,
  dedups their positions into columns, copies the columns' coordinates,
  ORs the bitmasks and flags the missing rows; it evaluates no Euclidean
  distance (a generic metric fills the matrix here, pair by pair).
* :func:`block_dmm` computes every candidate's exact ``Dmm`` up to the
  pruning threshold τ, evaluating a row's distances (libm ``hypot``,
  which equals ``np.hypot``) only at the columns that row can use and
  only while the candidate's partial sum is still ``<= τ`` — the
  early-abandoning rule of the UCR suite (Rakthanmanon et al., KDD 2012)
  applied to ``Dmm = Σ_i Dmpm(q_i, Tr)``; a candidate whose sum passes
  τ is ``inf``.  Per row,
  the *set-partition decomposition* of the minimum cover (the optimal
  cover equals, over all partitions of the row's activity bits, the
  cheapest sum of per-group nearest-covering-point minima — a scatter-min
  per exact bitmask and a superset-min transform over ``2^b`` states; a
  single-activity row is its masked minimum).  All-single-activity
  queries take :func:`block_dmm_all_single`, which reads each row's one
  posting list straight from the image — no block at all.
* :func:`block_dmom` gates on the block ``Dmm`` at τ (Lemma 3) and the C fold
  walks the survivors cheapest-gate-first with a running k-th threshold,
  reading their columns of the block in place, so most candidates are
  **abandoned** before the per-candidate DP — every query shape alike.

Abandonment never moves a ranking or a counter: the values it replaces
with ``inf`` all exceed the final k-th distance (so the top-k collector
would reject them anyway), and every pruning counter is derived from the
relevance pattern exactly as a candidate-by-candidate scan would have
counted them — the block-vs-scalar engine parity suites compare ids and
counters exactly.

Every searcher scores through these entries.  The GAT engine hands over
one validation round at a time; :class:`MatchEvaluator`'s per-candidate
``dmm`` / ``dmom`` (what IL / RT / IRT call) score a one-candidate round
over the one-row image of the trajectory's own columns
(:func:`repro.index.gat.apl.trajectory_round`), so a trajectory gets the
same distance, bit for bit, whichever searcher found it.
``kernel='scalar'`` bypasses this module entirely.

Exactness
---------
The scalar implementations in :mod:`repro.core.match` and
:mod:`repro.core.order_match` are kept untouched as oracles; the
property-based suites (``tests/property/test_kernel_parity.py``,
``test_block_kernel_parity.py``) check the kernels against them on
randomized inputs.  Given the same distances, a cover fold (Algorithm 2's
in ``gat_walk_bound``, the ``Dmom`` row fold's) performs the same
additions in the same order as ``PointMatchTable`` (each entry is
``best(remainder) + dist``), and a single-activity row's
``Dmm`` is the same minimum.  Three last-ulp (≲2e-16 relative)
discrepancy sources remain: ``np.hypot`` /
libm's ``hypot`` can round differently from ``math.hypot`` on ~0.6% of
inputs, the ``Dmom`` row scan folds multi-point cover sums in
ascending-position instead of descending-position order, and the block
cover's partition sums follow the partitions' order, not a scan's.  None
moves a ranking or a pruning counter except on exact distance ties, which
the engine-level parity suite checks never happens on real workloads (ids
and counters are compared exactly, distances to 1e-9 relative).

The kernels' *own* shortcuts are not in that class — they are exact.
The dense row scan the fold ran before it skipped folds, the Python fold
it ran before it moved to C, the per-group loop :func:`block_dmm` ran
before its covers became one transform and the NumPy round the C round
replaced live on as oracles in ``tests/property/``
(``dense_dmom_oracle.py``, ``python_fold_oracle.py``,
``group_loop_dmm_oracle.py``, ``numpy_round_oracle.py``) and are
compared with ``==`` / ``np.array_equal``, thresholds included (the
block distances after a ``threshold = inf`` cover, where every entry some
cover reads is written).  The
per-candidate NumPy path the evaluator ran before it scored one-row
rounds (``per_candidate_oracle.py``: Algorithm 3's scan per candidate)
is the reference for the block ``Dmm`` up to the partition-order ulp
above, and for its counters exactly.

Early abandoning in :func:`block_dmm` (and in the gate of
:func:`block_dmom`) is exact too:

* adding a non-negative float never lowers a float sum, so a partial sum
  ``> τ`` implies a final ``Dmm > τ``: the rows it skips cannot bring the
  candidate back under τ;
* the test is strict ``>`` because :class:`~repro.core.results.TopKCollector`
  breaks distance ties by id: a candidate at exactly τ with a smaller id
  than the current k-th still enters;
* τ is read at round start, and it only tightens before the candidate is
  offered, so a value above it is above the k-th at the offer too;
* only finite values above τ become ``inf``, and ``offer`` rejects those
  anyway.  On a sharded fan-out τ is ``min(local, merged)`` k-th, so the
  ``result_sink`` only loses results worse than that, which cannot enter
  the merged top-k.

ATSQ's covers also tighten τ *within* the round (``block_dmm(..., k=k)``):
after each candidate, τ drops to the k-th smallest finite ``Dmm`` the
round has scored so far, held in a max-heap as the ``Dmom`` fold holds its
running k-th.  That is exact too:

* a candidate abandoned against it has a ``Dmm`` strictly above k values
  of the same round, all of which are offered to the collector (finite,
  distinct trajectories), so k results beat it on distance alone and it
  could not enter the top-k whatever its id;
* a tie with the round's k-th survives (strict ``>``, as above), so id
  tie-breaking is left to the collector;
* on a sharded fan-out those k values reach the ``result_sink`` too, so
  the merged top-k loses nothing either.

It is never used on OATSQ's gate: there the ranked metric is ``Dmom``,
and a ``Dmm`` k-th is only a lower bound on the ``Dmom`` of the
candidates that set it — a candidate whose ``Dmm`` exceeds the round's
``Dmm`` k-th can still have a smaller ``Dmom`` than all of them, so
abandoning it could cost a true top-k member.  :func:`block_dmom` passes
``k = 0`` to its gate and tightens only on ``Dmom`` values.

Evaluated values are the same bits as without abandoning: ``hypot`` gets
the same doubles, and the rows sum in query order.  ``point_match_points``
is counted from the masks of every row, so no counter moves; the hypot
calls saved show only in ``EvaluatorStats.distances``.

NumPy and cffi are hard dependencies (``setup.py``).  The round builds
read positions and coordinates from an APL image and touch no trajectory
object.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as _np

from repro.model.distance import DistanceMetric, EuclideanDistance
from repro.native import c_array, ffi, lib, struct

INFINITY = math.inf

KERNELS = ("scalar", "block")

#: The most activities one query point's row may carry under the block
#: covers (``GAT_WIDEST_ROW`` in ``gat.c``): :func:`block_dmm` sums a
#: table of every set partition of the row's activity bits.
WIDEST_ROW = lib.gat_widest_row()


def resolve_kernel(kernel: str) -> str:
    """Return *kernel* if it names one of :data:`KERNELS`; raise otherwise."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


# ----------------------------------------------------------------------
# Per-query preparation
# ----------------------------------------------------------------------
def point_slots(query, activities) -> Tuple[_np.ndarray, _np.ndarray]:
    """``(slots, starts)``: the columns of *activities* (``Q.Φ`` ascending)
    holding ``q_1.Φ, q_2.Φ, …`` back to back, and where each query point's
    run starts (``starts[m]`` closes the last) — the layout of a
    per-query-point reduction over a round's lookup, which is what the MIB
    check (:meth:`~repro.index.gat.apl.PostingRound.mib`) reads."""
    sizes = [len(q.activities) for q in query]
    wanted = [a for q in query for a in q.activities]
    return _np.searchsorted(activities, wanted), _np.cumsum([0] + sizes)


class QueryKernel:
    """Query-side precomputation shared by every candidate of one query.

    Holds the per-query-point bit assignment (same iteration order as
    ``PointMatchTable`` uses, so masks are comparable in tests), the MIB
    check's activity slots and the query half of the array distance
    formula — and :attr:`handle`, the ``gat_query`` struct pointing into
    them that every C round entry reads, built once here.  Metrics other
    than Euclidean fall back to per-pair Python calls — still through one
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
        "euclidean",
        "point_slots",
        "handle",
        "_c_arrays",
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
        #: Whether the C round evaluates the distances itself.
        self.euclidean = type(metric) is EuclideanDistance

        #: The block builder's lookup side: ``Q.Φ`` ascending (what a round's
        #: activity occurrences are ``searchsorted`` against) and, per row,
        #: the bit each of those activities holds there (0 = not asked for).
        self.sorted_activities = _np.array(sorted(query.all_activities), dtype=_np.int64)
        self.bit_table = _np.zeros((self.m, len(self.sorted_activities)), dtype=_np.int64)
        for row, bit_values in zip(self.bit_table, self.bit_values):
            row[_np.searchsorted(self.sorted_activities, list(bit_values))] = list(
                bit_values.values()
            )
        #: :func:`point_slots` over :attr:`sorted_activities` — the MIB
        #: check's layout.
        self.point_slots = point_slots(query, self.sorted_activities)
        slots, starts = self.point_slots
        # What the handle points at beyond the arrays above: ``n_bits``, per
        # row the slot of its highest bit (an all-single row's one
        # activity), and the ``(x, y)`` per query point from which the C
        # round evaluates Euclidean distances — ``NULL`` for any other
        # metric, whose block :meth:`distance_matrix_for` fills.
        self._c_arrays = (
            ffi.new("int32_t[]", self.n_bits),
            ffi.new("int64_t[]", self.bit_table.argmax(axis=1).tolist()),
            ffi.new("double[]", [c for q in query for c in q.coord])
            if self.euclidean
            else ffi.NULL,
        )
        n_bits, row_slot, xy = self._c_arrays
        #: The ``gat_query *`` the C round reads.
        self.handle = struct(
            "gat_query", m=self.m, n_bits=n_bits, acts=self.sorted_activities,
            n_acts=len(self.sorted_activities), bits=self.bit_table, row_slot=row_slot,
            slots=slots, starts=starts, xy=xy,
        )

    def distance_matrix_for(self, coords):
        """The ``|Q| x N`` distance matrix against a raw ``(N, 2)`` float
        array of point coordinates, one metric call per pair — the block's
        distances under a metric other than Euclidean, which has no array
        formula (the C round evaluates Euclidean ones itself)."""
        metric = self.metric
        points = list(map(tuple, coords.tolist()))
        rows = [[metric(q.coord, p) for p in points] for q in self.query]
        return _np.asarray(rows, dtype=float).reshape(self.m, len(points))


def _checked(status: int, what: str) -> None:
    """Raise :class:`MemoryError` on a C entry's out-of-memory return."""
    if status:
        raise MemoryError(what)


# ----------------------------------------------------------------------
# Block kernel — one flat tensor per validation round
# ----------------------------------------------------------------------
#: The arrays of a :class:`CandidateBlock`, views of its C buffer.
_VIEWS = ("big", "mask", "positions", "cxy", "seg_of", "lengths", "missing")


class CandidateBlock:
    """One validation round's candidates in flat concatenated form.

    ``big`` is the ``[|Q|, N]`` distance matrix over the concatenation of
    every candidate's relevant positions — ``inf`` until a cover writes the
    entries it reads, full under a generic metric — ``cxy`` those
    positions' ``(x, y)`` and ``mask`` the same-shape
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

    All of them live in the one buffer the C build allocates (freed with
    the last reference to it); the covers and the fold read them through
    :attr:`columns`, one ``gat_columns`` pointer, and the NumPy views above
    are made on the first read of one.
    """

    __slots__ = ("columns", "n", "total", "m", "_data") + _VIEWS

    def __init__(self, columns, m: int) -> None:
        self.columns = columns
        self.n, self.total, self.m = columns.n, columns.total, m
        self._data = ffi.gc(columns.dist, lib.gat_free)

    def __getattr__(self, name: str):
        """The block's arrays as NumPy views of its C buffer, made together
        on the first read of one, each from its ``gat_columns`` field."""
        if name not in _VIEWS:
            raise AttributeError(name)
        columns, n, m, total, owner = self.columns, self.n, self.m, self.total, self._data

        def view(field, dtype, *shape):
            # The no-op destructor holds the buffer's owner: the buffer is
            # freed once the block and every view of it are gone.
            field = ffi.gc(field, lambda _field: owner)
            nbytes = _np.dtype(dtype).itemsize * int(_np.prod(shape))
            return _np.frombuffer(ffi.buffer(field, nbytes), dtype).reshape(shape)

        self.big = view(columns.dist, _np.float64, m, total)
        self.mask = view(columns.mask, _np.int64, m, total)
        self.positions = view(columns.positions, _np.int64, total)
        self.cxy = view(columns.cxy, _np.float64, total, 2)
        self.seg_of = view(columns.seg_of, _np.int64, n)
        self.lengths = view(columns.lengths, _np.int64, n)
        self.missing = view(columns.missing, _np.bool_, n, m)
        return getattr(self, name)


def _scores(n: int, stats, what: str, entry, *args):
    """``entry(*args, out, counts)`` into a fresh ``[n]`` float array, adding
    the ``point_match_points`` and ``distances`` it counts to *stats*."""
    out = _np.empty(n)
    counts = ffi.new("int64_t[2]")
    _checked(entry(*args, c_array("double", out, True), counts), what)
    if stats is not None:
        stats.point_match_points += counts[0]
        stats.distances += counts[1]
    return out


def prepare_block(qk: QueryKernel, candidates) -> CandidateBlock:
    """Stack one round's candidates into a :class:`CandidateBlock`
    (``gat_round_block``).

    *candidates* is a non-empty
    :class:`~repro.index.gat.apl.PostingRound` against
    ``qk.sorted_activities``.  A candidate's columns are its points that
    one of its looked-up posting lists names, in position order, and a
    column's bitmask ORs, per row, the bits of the activities listing it;
    ``cxy`` holds the columns' coordinates.  The build evaluates no
    Euclidean distance: ``big`` is ``inf`` until :func:`block_dmm` /
    :func:`block_dmom` write the entries they need.  A generic metric fills
    ``big`` here in full, pair by pair, from ``cxy``.
    """
    columns = ffi.new("gat_columns *")
    _checked(lib.gat_round_block(
        candidates.image.handle, qk.handle, candidates.c_rows, candidates.c_lookup(),
        len(candidates), columns,
    ), "block build")
    block = CandidateBlock(columns, qk.m)
    if not qk.euclidean:
        block.big[...] = qk.distance_matrix_for(block.cxy)
    return block


def block_dmm_all_single(qk: QueryKernel, candidates, stats=None):
    """``Dmm`` for one round of an all-single-activity query straight from
    the APL image (``gat_round_dmm_single``), without a
    :class:`CandidateBlock`: ``Dmm`` is order-free, so a row's value is the
    nearest point of its one activity's posting list, and its candidate
    count that list's length — no column dedup.  Values and counter
    accounting are bit-identical to :func:`block_dmm` on the round's block,
    which a generic metric goes through instead."""
    if not qk.euclidean:
        return block_dmm(qk, prepare_block(qk, candidates), stats)
    return _scores(
        len(candidates), stats, "all-single Dmm", lib.gat_round_dmm_single,
        candidates.image.handle, qk.handle, candidates.c_rows, candidates.c_lookup(),
        len(candidates),
    )


def block_dmm(
    qk: QueryKernel,
    block: CandidateBlock,
    stats=None,
    threshold: float = INFINITY,
    k: Optional[int] = None,
):
    """Exact ``Dmm`` for every block candidate whose ``Dmm`` is at most
    the abandonment threshold, as a ``[C]`` float array, ``inf`` for the
    others — ``gat_block_dmm``.

    The threshold starts at *threshold*; with *k* set (ATSQ, where ``Dmm``
    is the ranked metric) it tightens, candidate by candidate in block
    order, to the k-th smallest finite ``Dmm`` of the block so far.  Rows
    are evaluated left to right, and a row only while the partial sum of
    the rows before it is ``<=`` the threshold (early abandoning): an
    evaluated row writes ``hypot(q_i - column)`` into ``block.big`` at its
    columns with ``mask != 0`` and counts each in ``stats.distances``.  At
    ``threshold = inf`` without *k* every row is evaluated and the result
    is the exact ``Dmm`` of every candidate.  ``point_match_points`` is
    counted from the masks of every row, evaluated or not.

    Each row's cover uses the set-partition decomposition of the minimum
    cover: the optimal cover equals, over all partitions of the row's
    activity bits into groups, the cheapest sum of per-group minima
    (``M[g]`` = nearest relevant point whose bitmask covers group ``g``) —
    any cover induces the partition that assigns each bit to the point
    covering it, and conversely each partition's group minima form a cover.
    ``M`` is a scatter-min per exact bitmask and a superset-min transform
    over ``2^b`` states; a single-activity row is the one-partition case,
    its masked minimum.  The partitions of each row width the query uses
    are enumerated once per call into a table (restricted growth strings,
    each partition's groups in the order they open) that every row sums
    ``M`` down, so a row holds at most :data:`WIDEST_ROW` activities — the
    width-10 table is Bell(11) = 678 570 ``int32``; a wider row raises
    ``MemoryError``.  Sums over 3+ groups may re-associate relative to the
    scalar Algorithm 3's scan order — one of the documented last-ulp
    array-vs-scalar sources.
    """
    return _scores(
        block.n, stats, "block Dmm", lib.gat_block_dmm, qk.handle, block.columns, threshold,
        k or 0,
    )


def block_dmom(
    qk: QueryKernel,
    block: CandidateBlock,
    stats=None,
    threshold: float = INFINITY,
    k: Optional[int] = None,
):
    """``Dmom`` for every block candidate — blockwise gate, then the DP
    (``gat_block_dmom``).

    The Lemma-3 gate is the whole-round :func:`block_dmm` at the
    abandonment threshold; candidates whose gate exceeds it are ``inf``
    before any per-candidate work, and the survivors' rows were all
    evaluated.  The C fold then walks the survivors in
    ascending-gate order (ties by candidate), reading each one's columns of
    ``block.big`` / ``block.mask`` in place, so that, with *k* set, the
    abandonment threshold tightens to the k-th smallest ``Dmom`` seen so
    far and later candidates (whose gates are lower bounds on their
    ``Dmom``) are abandoned against it.  Tightening only ever happens on
    ``Dmom`` values — the ranked metric — never on the ``Dmm`` gate
    values, whose k-th could undercut the final ``Dmom`` k-th and cost a
    true top-k member.

    The scalar Algorithm 4 evaluates ``G(i, j) = min_k G(i-1, k) +
    Dmpm(q_i, Tr[k, j])`` by rebuilding an incremental point-match table
    per cell.  The fold scans each row once, left to right: ``A[t]`` is
    the cheapest ``G(i-1, k) + (cover of mask t by points k..j)`` over all
    segment starts ``k ≤ j``.  Folding column ``j`` in sets ``A[0]`` to
    ``G(i-1, j)`` (a finished row is non-increasing in ``j``) and relaxes
    ``A[t] ← A[t & ~mask_j] + d_j`` for every ``t`` sharing a bit with the
    mask, in ascending ``t``; ``G(i, j)``
    is ``A[full]`` after the fold.  Most folds are skipped, exactly: every
    cover through column ``j`` is ``≥ G(i-1, j) + d_j``, so when that is
    not below the row's best full cover so far, or is above the
    threshold, the fold cannot change the result — entries at or below
    the threshold, and the returned value, are bit-identical to the dense
    scan's (``tests/property/dense_dmom_oracle.py``).  When a finished
    row's last entry exceeds the threshold the candidate can never beat
    the current k-th best, and its scan aborts (Lemma 4).

    Counter accounting (``point_match_points``) covers every candidate,
    exactly as a candidate-by-candidate gate would have counted it.
    """
    return _scores(
        block.n, stats, "block Dmom", lib.gat_block_dmom, qk.handle, block.columns, threshold,
        k or 0,
    )
