"""The per-candidate validation chain ``repro.core.pipeline`` walked before
a round became three array tests over the APL row store — kept (bar the
class prefixes and the inlined per-candidate fetch) as the oracle the array
chain is compared against in ``test_chain_differential.py``.

One :class:`Candidate` record per retrieved trajectory flows through the
filters: the TAS filter asks the trajectory's own :class:`TrajectorySketch`
about every query activity, the APL filter fetches the posting dict (one
counted read) and asks whether all of ``Q.Φ`` are keys, the MIB filter
materialises the trajectory and calls ``order_feasible`` — one
``matching_index_bounds`` per (candidate, query point).

``covers_query`` / ``union_positions`` / ``candidate_positions`` are the
posting-dict helpers that lived on ``APLStore``; ``dict_block_oracle.py``
builds its blocks with ``union_positions``.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.order_match import order_feasible
from repro.index.gat.tas import TrajectorySketch

PostingLists = Dict[int, Tuple[int, ...]]


def covers_query(posting: PostingLists, activities: Iterable[int]) -> bool:
    """The exact validation of Section V-C: a posting list must exist
    for every query activity."""
    return all(activity in posting for activity in activities)


def union_positions(posting: PostingLists, activities: Iterable[int]) -> Tuple[int, ...]:
    """Sorted union of a trajectory's posting lists over *activities* —
    one query point's candidate positions (Algorithm 3, line 1) or, with
    the whole query's activity set, the relevant sub-sequence ``rel(Tr)``."""
    out: set = set()
    for activity in activities:
        ps = posting.get(activity)
        if ps:
            out.update(ps)
    return tuple(sorted(out))


candidate_positions = union_positions


@dataclass(slots=True)
class Candidate:
    """One retrieved trajectory flowing through the validation chain."""

    trajectory_id: int
    posting: Optional[PostingLists] = None
    trajectory: object = None


class ObjectTASFilter:
    stat_field = "tas_pruned"

    def __init__(self, trajectories: Sequence, m: int) -> None:
        self.sketches = {
            tr.trajectory_id: TrajectorySketch.from_activities(tr.activity_union, m)
            for tr in trajectories
        }

    def admits(self, query, candidate: Candidate) -> bool:
        return self.sketches[candidate.trajectory_id].covers_all(query.all_activities)


class ObjectAPLFilter:
    """One counted ``APLStore.fetch`` per candidate reaching the filter."""

    stat_field = "apl_pruned"

    def __init__(self, apl) -> None:
        self.apl = apl

    def admits(self, query, candidate: Candidate) -> bool:
        candidate.posting = self.apl.fetch(candidate.trajectory_id)
        return covers_query(candidate.posting, query.all_activities)


class ObjectMIBFilter:
    stat_field = "mib_pruned"

    def __init__(self, trajectories: Sequence) -> None:
        self.by_id = {tr.trajectory_id: tr for tr in trajectories}

    def admits(self, query, candidate: Candidate) -> bool:
        candidate.trajectory = self.by_id[candidate.trajectory_id]
        return order_feasible(candidate.trajectory, query)


def object_admit_batch(filters: Sequence, query, trajectory_ids: Sequence[int]):
    """Walk *trajectory_ids* through *filters* candidate by candidate
    inside each filter; returns ``(survivor ids in order, {stat_field:
    rejections})``."""
    survivors: List[Candidate] = [Candidate(tid) for tid in trajectory_ids]
    pruned = {"tas_pruned": 0, "apl_pruned": 0, "mib_pruned": 0}
    for f in filters:
        kept = [candidate for candidate in survivors if f.admits(query, candidate)]
        pruned[f.stat_field] += len(survivors) - len(kept)
        survivors = kept
    return [candidate.trajectory_id for candidate in survivors], pruned
