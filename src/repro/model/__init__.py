"""Data model: activities, vocabulary, trajectory points, trajectories,
and the in-memory trajectory database.

This is the substrate every index and query algorithm operates on.  The
model follows Section II of the paper:

* an **activity** is an entry of a pre-defined vocabulary (Definition 1);
  internally we use dense integer IDs assigned in descending frequency
  order, because the Trajectory Activity Sketch of Section IV requires
  frequency-ordered IDs;
* an **activity trajectory** is a sequence of geo-points, each with a
  (possibly empty) set of activities (Definition 2).
"""

from repro.model.vocabulary import Vocabulary
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.model.database import TrajectoryDatabase
from repro.model.distance import DistanceMetric, EuclideanDistance, MatrixDistance

__all__ = [
    "Vocabulary",
    "TrajectoryPoint",
    "ActivityTrajectory",
    "TrajectoryDatabase",
    "DistanceMetric",
    "EuclideanDistance",
    "MatrixDistance",
]
