"""Simulated two-tier storage.

The paper's GAT index splits its components between main memory (high HICL
levels, ITL, TAS) and hard disk (low HICL levels, APL).  Since this
reproduction runs on a single process with everything in RAM, we *simulate*
the disk: a :class:`~repro.storage.disk.SimulatedDisk` is a byte-serialised
object store that counts logical page reads and writes.  Experiments can
then report logical I/O alongside wall-clock time, which is the faithful
signal for the paper's memory-budget discussion.
"""

from repro.storage.cache import LRUCache
from repro.storage.disk import DiskStats, SimulatedDisk
from repro.storage.serialization import deserialize_obj, serialize_obj

__all__ = [
    "SimulatedDisk",
    "DiskStats",
    "LRUCache",
    "serialize_obj",
    "deserialize_obj",
]
