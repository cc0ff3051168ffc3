"""Zipf-distributed sampling over a finite vocabulary.

Activity/tag frequencies in check-in services follow a power law: a few
activities ("food", "coffee") dominate while the long tail is huge (Table IV
reports 87,567 distinct activities in LA over 3.1 M occurrences).  The
generator uses this sampler to reproduce that skew.

Implemented with an explicit cumulative table + binary search so sampling is
O(log V) and needs nothing beyond ``random.Random``.
"""

from __future__ import annotations

import bisect
import random
from typing import List


class ZipfSampler:
    """Sample ranks ``0 .. n-1`` with probability proportional to
    ``1 / (rank + 1)^exponent``.

    Rank 0 is the most frequent item.  The default exponent of 1.0 matches
    the classic Zipf law observed for text keywords.
    """

    __slots__ = ("n", "exponent", "_cumulative")

    def __init__(self, n: int, exponent: float = 1.0) -> None:
        if n <= 0:
            raise ValueError("vocabulary size must be positive")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        self.n = n
        self.exponent = exponent
        weights = [1.0 / ((rank + 1) ** exponent) for rank in range(n)]
        total = sum(weights)
        cumulative: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        cumulative[-1] = 1.0  # guard against floating drift
        self._cumulative = cumulative

    def sample(self, rng: random.Random) -> int:
        """Draw one rank."""
        return bisect.bisect_left(self._cumulative, rng.random())

    def sample_distinct(self, rng: random.Random, k: int, max_tries: int = 64) -> List[int]:
        """Draw *k* distinct ranks, falling back to low ranks if rejection
        sampling stalls (can only happen for k close to n)."""
        if k >= self.n:
            return list(range(self.n))
        picked: set[int] = set()
        tries = 0
        while len(picked) < k and tries < max_tries * k:
            picked.add(self.sample(rng))
            tries += 1
        rank = 0
        while len(picked) < k:
            picked.add(rank)
            rank += 1
        return sorted(picked)
