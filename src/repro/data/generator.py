"""Synthetic Foursquare-like check-in generator.

The paper's evaluation uses crawled Foursquare check-ins for Los Angeles and
New York, which cannot be redistributed.  This generator synthesises data
with the structural properties the queries and indexes are sensitive to:

* **Spatial skew** — venues are drawn from a mixture of Gaussian hot-spots
  (downtowns, malls, campuses) plus a uniform background, so grid cells have
  wildly different densities, exactly the regime where hierarchical spatial
  pruning matters.
* **Activity skew** — each venue gets a topic-biased activity pool; the
  global activity frequency follows a Zipf law, so popular activities occur
  in most cells (weak activity pruning) while rare ones are highly selective
  (strong activity pruning) — the tension the GAT index exploits.
* **User mobility** — each user is anchored to a *home* location and
  checks in at venues drawn from a popularity- and distance-weighted pool
  around it, with occasional long jumps across the city.  Check-in
  histories therefore have a bounded spatial footprint (people's venues
  cluster around home/work), which is what keeps the set of trajectories
  near any query location a small fraction of the database — the property
  all spatial pruning in the paper relies on.
* **Venue popularity skew** — check-in volume per venue follows a power
  law (a handful of airports/malls/stadiums absorb a large share of all
  check-ins).  This is what gives every query location a dense pool of
  co-visiting trajectories, the regime the paper's small GAT retrieval
  counts imply.

All randomness flows through one ``random.Random(seed)``, so a given
configuration is fully reproducible.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.data.checkin import CheckIn, group_checkins_into_trajectories
from repro.data.zipf import ZipfSampler
from repro.model.database import TrajectoryDatabase
from repro.model.vocabulary import Vocabulary


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """Knobs of the synthetic city.

    Defaults produce a small, test-friendly dataset; the LA/NY presets in
    :mod:`repro.data.presets` scale these up and skew them to mirror the
    ratios of the paper's Table IV.
    """

    n_users: int = 500
    n_venues: int = 2000
    vocabulary_size: int = 800
    width_km: float = 60.0
    height_km: float = 50.0
    n_hotspots: int = 12
    hotspot_sigma_km: float = 2.5
    uniform_fraction: float = 0.15
    checkins_per_user_mean: float = 12.0
    checkins_per_user_min: int = 2
    activities_per_checkin_mean: float = 2.0
    empty_activity_fraction: float = 0.1
    zipf_exponent: float = 1.0
    common_fraction: float = 0.6
    common_pool_size: int = 25
    venue_topic_size: int = 25
    venue_topic_bias: float = 0.65
    venue_popularity_exponent: float = 0.8
    walk_locality_km: float = 5.0
    user_range_km: float = 4.0
    long_jump_probability: float = 0.08
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_users <= 0 or self.n_venues <= 0 or self.vocabulary_size <= 0:
            raise ValueError("users, venues and vocabulary must be positive")
        if not 0.0 <= self.uniform_fraction <= 1.0:
            raise ValueError("uniform_fraction must be in [0, 1]")
        if not 0.0 <= self.venue_topic_bias <= 1.0:
            raise ValueError("venue_topic_bias must be in [0, 1]")
        if not 0.0 <= self.common_fraction <= 1.0:
            raise ValueError("common_fraction must be in [0, 1]")
        if self.common_pool_size < 1:
            raise ValueError("common_pool_size must be >= 1")


@dataclass(frozen=True, slots=True)
class _Venue:
    venue_id: int
    x: float
    y: float
    topic: Tuple[int, ...]  # activity ranks this venue is biased towards
    weight: float  # popularity weight (power-law distributed)


class CheckInGenerator:
    """Generates check-ins and packages them into a
    :class:`~repro.model.database.TrajectoryDatabase`."""

    def __init__(self, config: GeneratorConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self._zipf = ZipfSampler(config.vocabulary_size, config.zipf_exponent)
        pool = min(config.common_pool_size, config.vocabulary_size)
        self._common = ZipfSampler(pool, 1.0)
        self._venues: List[_Venue] = []
        self._venue_grid: dict[Tuple[int, int], List[int]] = {}
        self._venue_cumulative: List[float] = []

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def generate(self, name: str = "synthetic") -> TrajectoryDatabase:
        """Generate the full database."""
        self._venues = self._make_venues()
        self._build_venue_grid()
        checkins = self._make_checkins()
        vocabulary = Vocabulary.from_activity_sets(c.activities for c in checkins)
        trajectories = group_checkins_into_trajectories(checkins, vocabulary.encode)
        return TrajectoryDatabase(trajectories, vocabulary, name=name)

    # ------------------------------------------------------------------
    # Venues
    # ------------------------------------------------------------------
    def _make_venues(self) -> List[_Venue]:
        cfg = self.config
        rng = self._rng
        hotspots = [
            (rng.uniform(0.0, cfg.width_km), rng.uniform(0.0, cfg.height_km))
            for _ in range(cfg.n_hotspots)
        ]
        # Hot-spot weights themselves are skewed: a city has one dominant
        # centre and several secondary ones.
        weights = [1.0 / (i + 1) for i in range(cfg.n_hotspots)]
        total_w = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total_w
            cumulative.append(acc)

        venues: List[_Venue] = []
        for venue_id in range(cfg.n_venues):
            if rng.random() < cfg.uniform_fraction:
                x = rng.uniform(0.0, cfg.width_km)
                y = rng.uniform(0.0, cfg.height_km)
            else:
                r = rng.random()
                spot = 0
                while cumulative[spot] < r:
                    spot += 1
                cx, cy = hotspots[spot]
                x = min(max(rng.gauss(cx, cfg.hotspot_sigma_km), 0.0), cfg.width_km)
                y = min(max(rng.gauss(cy, cfg.hotspot_sigma_km), 0.0), cfg.height_km)
            topic = tuple(self._zipf.sample_distinct(rng, cfg.venue_topic_size))
            venues.append(_Venue(venue_id, x, y, topic, 0.0))
        # Power-law popularity: shuffle ranks so popularity is independent
        # of position, then weight 1/(rank+1)^gamma.
        ranks = list(range(cfg.n_venues))
        rng.shuffle(ranks)
        gamma = cfg.venue_popularity_exponent
        venues = [
            _Venue(v.venue_id, v.x, v.y, v.topic, 1.0 / ((ranks[i] + 1) ** gamma))
            for i, v in enumerate(venues)
        ]
        # Cumulative weights for O(log V) global popularity-weighted draws.
        total = sum(v.weight for v in venues)
        acc = 0.0
        self._venue_cumulative = []
        for v in venues:
            acc += v.weight / total
            self._venue_cumulative.append(acc)
        self._venue_cumulative[-1] = 1.0
        return venues

    def _popular_venue(self) -> _Venue:
        """Global popularity-weighted venue draw (long jumps, walk starts)."""
        idx = bisect.bisect_left(self._venue_cumulative, self._rng.random())
        return self._venues[idx]

    def _build_venue_grid(self) -> None:
        """Coarse bucket grid over venues so the random walk can find
        nearby venues without an O(V) scan per step."""
        cell = max(self.config.walk_locality_km, 1e-6)
        grid: dict[Tuple[int, int], List[int]] = {}
        for venue in self._venues:
            key = (int(venue.x / cell), int(venue.y / cell))
            grid.setdefault(key, []).append(venue.venue_id)
        self._venue_grid = grid

    # ------------------------------------------------------------------
    # Check-ins
    # ------------------------------------------------------------------
    def _make_checkins(self) -> List[CheckIn]:
        cfg = self.config
        rng = self._rng
        checkins: List[CheckIn] = []
        for user_id in range(cfg.n_users):
            n = max(
                cfg.checkins_per_user_min,
                int(rng.expovariate(1.0 / cfg.checkins_per_user_mean)) + 1,
            )
            home = self._popular_venue()
            pool, cumulative = self._home_pool(home)
            t = float(rng.randrange(0, 10_000))
            for _step in range(n):
                if not pool or rng.random() < cfg.long_jump_probability:
                    venue = self._popular_venue()
                else:
                    idx = bisect.bisect_left(cumulative, rng.random() * cumulative[-1])
                    venue = self._venues[pool[min(idx, len(pool) - 1)]]
                activities = self._activities_for(venue)
                checkins.append(
                    CheckIn(
                        user_id=user_id,
                        venue_id=venue.venue_id,
                        x=venue.x,
                        y=venue.y,
                        timestamp=t,
                        activities=activities,
                    )
                )
                t += rng.uniform(1.0, 100.0)
        return checkins

    def _home_pool(self, home: _Venue) -> Tuple[List[int], List[float]]:
        """The user's habitual venue pool: venues within ~2.5 ranges of
        home, weighted by popularity x Gaussian distance decay.

        Returns the pool plus *cumulative* weights so per-check-in draws
        are a single binary search.
        """
        sigma = max(self.config.user_range_km, 1e-6)
        cell = max(self.config.walk_locality_km, 1e-6)
        reach = int(2.5 * sigma / cell) + 1
        cx, cy = int(home.x / cell), int(home.y / cell)
        pool: List[int] = []
        cumulative: List[float] = []
        acc = 0.0
        two_sigma_sq = 2.0 * sigma * sigma
        cutoff_sq = (2.5 * sigma) ** 2
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                for venue_id in self._venue_grid.get((cx + dx, cy + dy), ()):
                    venue = self._venues[venue_id]
                    d_sq = (venue.x - home.x) ** 2 + (venue.y - home.y) ** 2
                    if d_sq > cutoff_sq:
                        continue
                    pool.append(venue_id)
                    acc += venue.weight * math.exp(-d_sq / two_sigma_sq)
                    cumulative.append(acc)
        return pool, cumulative

    def _activities_for(self, venue: _Venue) -> frozenset[str]:
        """Activity names for one check-in at *venue*.

        With probability ``empty_activity_fraction`` the check-in has no
        tips at all (the paper allows empty activity sets).  Otherwise each
        activity draw is three-tiered:

        * with probability ``common_fraction`` a *common word* — tip text is
          dominated by near-universal words ("good", "place", "food"), and
          this tier is what makes realistic multi-activity queries have
          sizeable candidate sets, as the paper's IL timings imply;
        * otherwise, with probability ``venue_topic_bias``, a word from the
          venue's topic pool (spatial activity correlation);
        * otherwise a global Zipf draw (the long tail).
        """
        cfg = self.config
        rng = self._rng
        if rng.random() < cfg.empty_activity_fraction:
            return frozenset()
        k = max(1, int(rng.expovariate(1.0 / cfg.activities_per_checkin_mean)) + 1)
        ranks: set[int] = set()
        for _ in range(k):
            if rng.random() < cfg.common_fraction:
                ranks.add(self._common.sample(rng))
            elif venue.topic and rng.random() < cfg.venue_topic_bias:
                ranks.add(venue.topic[rng.randrange(len(venue.topic))])
            else:
                ranks.add(self._zipf.sample(rng))
        return frozenset(_activity_name(rank) for rank in ranks)


def _activity_name(rank: int) -> str:
    """Deterministic human-ish name for an activity rank."""
    return f"act{rank:05d}"
