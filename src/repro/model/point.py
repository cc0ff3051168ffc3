"""Trajectory point: a geo-location plus its (possibly empty) activity set."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple


@dataclass(frozen=True, slots=True)
class TrajectoryPoint:
    """One point ``p_i`` of an activity trajectory (Definition 2).

    Attributes
    ----------
    x, y:
        Planar coordinates (kilometres in our datasets; tests sometimes use
        abstract units since distances can be matrix-backed).
    activities:
        ``p.Φ`` — the set of activity IDs performed at this place.  Empty is
        legal: the paper explicitly allows points with no activities.
    timestamp:
        Optional check-in time (seconds).  Not used by the queries, which
        are purely spatio-textual, but preserved because the datasets carry
        it and trajectory construction sorts by it.
    venue_id:
        Optional ID of the venue the check-in happened at; used by dataset
        statistics (Table IV counts distinct venues).
    """

    x: float
    y: float
    activities: FrozenSet[int] = field(default_factory=frozenset)
    timestamp: Optional[float] = None
    venue_id: Optional[int] = None

    @property
    def coord(self) -> Tuple[float, float]:
        return (self.x, self.y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        acts = ",".join(map(str, sorted(self.activities)))
        return f"TrajectoryPoint(({self.x:.3f}, {self.y:.3f}), {{{acts}}})"
