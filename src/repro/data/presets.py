"""LA / NY dataset presets mirroring the ratios of the paper's Table IV.

Table IV of the paper:

==================  =========  =========
statistic           LA         NY
==================  =========  =========
#trajectory         31,557     49,027
#venue              215,614    206,416
#activity           3,164,124  2,056,785
#distinct activity  87,567     64,649
==================  =========  =========

The key *ratios* the evaluation commentary relies on:

* NY has ~1.55x more trajectories than LA;
* LA trajectories carry more activities on average
  (3.16 M / 31.6 K ~ 100 occurrences per trajectory vs NY's ~ 42) — the
  paper explains LA's slower queries by "trajectories of LA contain more
  activities averagely, resulting in more candidates matching the query
  activities";
* both cities have a venue pool several times larger than the trajectory
  count and a heavy-tailed activity vocabulary.

A pure-Python reproduction cannot profitably run 50 queries x 6 sweeps over
3 M activity occurrences, so presets take a ``scale`` in (0, 1]; the default
benchmark scale is 0.1.  The preset keeps the LA-vs-NY *contrast* intact at
every scale.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.data.generator import CheckInGenerator, GeneratorConfig
from repro.model.database import TrajectoryDatabase

#: Baseline (scale=1.0) configurations.  Activity volume per trajectory is
#: the load-bearing contrast: LA ~ 2.4x NY's activities per check-in.
PRESETS: Dict[str, GeneratorConfig] = {
    "la": GeneratorConfig(
        n_users=31_557,
        n_venues=100_000,
        vocabulary_size=50_000,
        width_km=80.0,
        height_km=60.0,
        n_hotspots=18,
        hotspot_sigma_km=3.0,
        checkins_per_user_mean=30.0,
        activities_per_checkin_mean=3.4,
        empty_activity_fraction=0.05,
        zipf_exponent=1.1,
        common_fraction=0.7,
        common_pool_size=20,
        user_range_km=5.0,
        seed=101,
    ),
    "ny": GeneratorConfig(
        n_users=49_027,
        n_venues=95_000,
        vocabulary_size=40_000,
        width_km=55.0,
        height_km=70.0,
        n_hotspots=14,
        hotspot_sigma_km=2.0,
        checkins_per_user_mean=18.0,
        activities_per_checkin_mean=2.3,
        empty_activity_fraction=0.08,
        zipf_exponent=1.1,
        common_fraction=0.65,
        common_pool_size=20,
        user_range_km=4.0,
        seed=202,
    ),
}


def preset_config(name: str, scale: float = 1.0) -> GeneratorConfig:
    """The generator config for preset *name* at the given *scale*.

    Scaling shrinks counts (users, venues, vocabulary) proportionally and
    the city extent by ``sqrt(scale)``, so trajectory density per km² —
    the quantity spatial pruning lives on — is scale-invariant.  A scaled
    dataset behaves like a district of the full city, not like the full
    city gone sparse.
    """
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    base = PRESETS[name]
    side = scale ** 0.5
    return replace(
        base,
        n_users=max(20, int(base.n_users * scale)),
        n_venues=max(50, int(base.n_venues * scale)),
        vocabulary_size=max(50, int(base.vocabulary_size * scale)),
        width_km=base.width_km * side,
        height_km=base.height_km * side,
        hotspot_sigma_km=base.hotspot_sigma_km * side,
        walk_locality_km=base.walk_locality_km * side,
        user_range_km=base.user_range_km * side,
        n_hotspots=max(3, int(base.n_hotspots * side)),
    )


def dataset_from_preset(name: str, scale: float = 1.0, seed: int | None = None) -> TrajectoryDatabase:
    """Generate the LA- or NY-like dataset at *scale*.

    Parameters
    ----------
    name:
        ``"la"`` or ``"ny"``.
    scale:
        Fraction of the paper's dataset size (1.0 reproduces Table IV
        magnitudes; benchmarks default to much smaller scales).
    seed:
        Override the preset's seed (e.g. to generate disjoint replicas).
    """
    config = preset_config(name, scale)
    if seed is not None:
        config = replace(config, seed=seed)
    return CheckInGenerator(config).generate(name=f"{name}@{scale:g}")
