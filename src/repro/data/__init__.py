"""Dataset substrate: synthetic Foursquare-like check-in data.

The paper evaluates on crawled Foursquare check-ins for Los Angeles and New
York (Table IV).  Those crawls are not redistributable, so this package
synthesises the closest equivalent:

* venues are drawn from a mixture of Gaussian hot-spots over a city-sized
  bounding box (check-in venues are heavily clustered downtown);
* each user's trajectory is a random walk over nearby venues, ordered
  chronologically like the paper's per-user check-in sequences;
* every check-in carries activities (tip keywords) drawn from a Zipf
  distribution over a large vocabulary — check-in tags are famously
  Zipf-skewed — with venue-topic bias so co-located activities correlate.

:mod:`repro.data.presets` provides ``la`` and ``ny`` presets whose
statistics mirror the *ratios* of Table IV at a configurable scale, and
:mod:`repro.data.loader` saves and loads a database as one ``.npz`` of its
columns.
"""

from repro.data.checkin import checkin_columns
from repro.data.generator import CheckInGenerator, GeneratorConfig
from repro.data.loader import load_database, save_database
from repro.data.presets import dataset_from_preset, PRESETS
from repro.data.zipf import ZipfSampler

__all__ = [
    "checkin_columns",
    "CheckInGenerator",
    "GeneratorConfig",
    "load_database",
    "save_database",
    "dataset_from_preset",
    "PRESETS",
    "ZipfSampler",
]
