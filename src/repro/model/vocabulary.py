"""Activity vocabulary: the mapping between activity names and integer IDs.

Definition 1 of the paper treats each activity as "a unique entry of a
pre-defined activity vocabulary".  Two requirements shape this module:

1. Query processing wants dense integer IDs (bitmask- and array-friendly).
2. The Trajectory Activity Sketch (Section IV) requires that IDs be
   assigned *in order of occurrence frequency*: "we sort all the activities
   in the vocabulary by their occurrence frequencies in the whole database,
   and assign continuous numerical ID to each activity".  Frequency-ordered
   IDs make co-occurring popular activities numerically close, which is what
   lets the sketch intervals stay compact.

:meth:`Vocabulary.from_frequencies` implements requirement 2; the plain
constructor enumerates names in first-seen order for tests and ad-hoc data.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence


class Vocabulary:
    """Bidirectional activity-name <-> dense-integer-ID mapping.

    The mapping is append-only: IDs are never reassigned once handed out, so
    any frozenset of IDs stored in an index stays valid for the lifetime of
    the vocabulary.
    """

    __slots__ = ("_id_of", "_name_of")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._id_of: Dict[str, int] = {}
        self._name_of: List[str] = []
        for name in names:
            self.add(name)

    @classmethod
    def from_frequencies(cls, frequencies: Mapping[str, int]) -> "Vocabulary":
        """Build a vocabulary with IDs in descending frequency order.

        Ties are broken alphabetically so construction is deterministic.
        """
        ordered = sorted(frequencies.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls(name for name, _count in ordered)

    @classmethod
    def from_activity_sets(cls, activity_sets: Iterable[Iterable[str]]) -> "Vocabulary":
        """Build a frequency-ordered vocabulary by counting occurrences in
        an iterable of per-point activity-name sets (one pass)."""
        counts: Counter[str] = Counter()
        for activities in activity_sets:
            counts.update(activities)
        return cls.from_frequencies(counts)

    def add(self, name: str) -> int:
        """Register *name* (idempotent) and return its ID."""
        existing = self._id_of.get(name)
        if existing is not None:
            return existing
        new_id = len(self._name_of)
        self._id_of[name] = new_id
        self._name_of.append(name)
        return new_id

    def id_of(self, name: str) -> int:
        """ID of a known activity name.

        Raises
        ------
        KeyError
            If *name* was never registered.
        """
        return self._id_of[name]

    def name_of(self, activity_id: int) -> str:
        """Name of a known activity ID."""
        return self._name_of[activity_id]

    def encode(self, names: Iterable[str]) -> FrozenSet[int]:
        """Translate a set of names to a frozenset of IDs (names must exist)."""
        return frozenset(self._id_of[name] for name in names)

    def decode(self, ids: Iterable[int]) -> FrozenSet[str]:
        """Translate a set of IDs back to names."""
        return frozenset(self._name_of[i] for i in ids)

    def __contains__(self, name: object) -> bool:
        return name in self._id_of

    def __len__(self) -> int:
        return len(self._name_of)

    def __iter__(self) -> Iterator[str]:
        return iter(self._name_of)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vocabulary({len(self)} activities)"

    def names(self) -> Sequence[str]:
        """All names, index == ID."""
        return tuple(self._name_of)
