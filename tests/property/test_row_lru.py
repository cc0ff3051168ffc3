"""The APL residency LRU: the C recency list over rows against the keyed
``OrderedDict`` LRU it replaced (``lru_oracle.py``).

Random rounds — repeated rows, a racing insert between a round's touch and
its insert, an image that grows between rounds — drive both, and every
round must miss the same rows in the same order, ask the same number of
distinct rows, and leave the same resident rows in the same recency
order.  The oracle itself is checked against per-key ``get`` / ``put`` on
``LRUCache``, which is what it stood for.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from lru_oracle import KeyedLRU

from repro.core.context import ExecutionContext
from repro.core.evaluator import MatchEvaluator
from repro.core.query import Query, QueryPoint
from repro.faults import FaultInjector, FaultRule, InjectedDiskError
from repro.index.gat.apl import APLStore
from repro.model.database import TrajectoryDatabase
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.model.vocabulary import Vocabulary
from repro.native import c_array
from repro.storage.cache import LRUCache, RowLRU
from repro.storage.disk import SimulatedDisk


def recency(lru: RowLRU):
    """The resident rows from the least to the most recently used, read
    off the C list."""
    rows, row = [], lru._list.lru
    while row >= 0:
        rows.append(row)
        row = lru._list.next[row]
    assert len(rows) == lru._list.size
    return rows


def test_the_oracle_equals_the_per_key_calls():
    """A round's pass over the keyed oracle lands every entry and its
    recency where ``get`` / ``put`` per key would, and misses the same
    keys."""
    rng = random.Random(7)
    batched, looped = KeyedLRU(5), LRUCache(5)
    miss = object()
    for _ in range(200):
        keys = rng.sample(range(12), rng.randrange(0, 9))
        want = [k for k in keys if looped.get(k, miss) is miss]
        for k in want:
            looped.put(k, None)
        got = batched.missing(keys)
        batched.put_many(got)
        assert got == want
        assert list(batched.entries) == list(looped._entries)


round_st = st.tuples(
    st.integers(0, 3),  # rows the image gains first
    st.lists(st.integers(0, 40), max_size=10),  # the round, repeats allowed
    st.lists(st.integers(0, 40), max_size=3),  # a racing insert's rows
)


@given(st.integers(1, 12), st.lists(round_st, max_size=12))
@settings(max_examples=300, deadline=None)
# Capacity 1: every insert evicts the previous row.
@example(1, [(3, [0, 1, 2, 1, 0], []), (0, [2, 0], [1])])
# A racing insert of a row the round itself misses: it is resident when the
# round's own insert comes, and only moves.
@example(2, [(2, [0, 1], [1]), (1, [2, 0, 1], [2, 0])])
def test_the_row_list_equals_the_keyed_lru(capacity, rounds):
    lru, oracle = RowLRU(capacity), KeyedLRU(capacity)
    n_rows = 1
    for grown, picks, racing in rounds:
        n_rows += grown
        rows = np.array([p % n_rows for p in picks], dtype=np.int64)
        misses, asked = lru.missing(c_array("int64_t", rows), len(rows), n_rows)
        wanted = list(dict.fromkeys(rows.tolist()))
        want = oracle.missing(wanted)
        assert misses.tolist() == want
        assert asked == len(wanted)
        # Another query's insert lands between this round's touch and insert.
        racing = [p % n_rows for p in racing]
        lru.put_many(np.array(racing, dtype=np.int64))
        oracle.put_many(racing)
        lru.put_many(misses)
        oracle.put_many(want)
        assert recency(lru) == list(oracle.entries)


def _store(n=6):
    trajectories = [
        ActivityTrajectory(100 + i, [TrajectoryPoint(float(i), 0.0, frozenset({1}))])
        for i in range(n)
    ]
    return trajectories, TrajectoryDatabase(trajectories, Vocabulary())


def test_fetch_many_counts_like_the_keyed_lru():
    """``APLStore.fetch_many`` over the row list reports the hits, lookups
    and counted reads the keyed LRU would, round after round."""
    _trajectories, db = _store(8)
    disk = SimulatedDisk()
    apl = APLStore(db, disk)
    ctx = ExecutionContext(Query([QueryPoint(0.0, 0.0, frozenset({1}))]), 1, False, MatchEvaluator())
    lru, oracle = RowLRU(3), KeyedLRU(3)
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.sample(range(8), rng.randrange(1, 6))
        disk.reset_stats()
        hits, lookups = apl.fetch_many(apl.round(rows, ctx.query_kernel), lru)
        misses, asked = oracle.fetch_round([db.trajectories[r].trajectory_id for r in rows])
        assert (hits, lookups) == (asked - len(misses), asked)
        assert disk.stats.reads == len(misses)
        assert [db.trajectories[r].trajectory_id for r in recency(lru)] == list(oracle.entries)


def test_an_injected_error_makes_nothing_resident():
    """A grouped read that raises leaves the round's misses out of the
    list; the next round misses them again."""
    _trajectories, db = _store(4)
    injector = FaultInjector(FaultRule(error_rate=1.0, key_pattern=r"'apl', 102"), seed=0)
    disk = SimulatedDisk(fault_injector=injector)
    apl = APLStore(db, disk)
    ctx = ExecutionContext(Query([QueryPoint(0.0, 0.0, frozenset({1}))]), 1, False, MatchEvaluator())
    lru = RowLRU(8)
    assert apl.fetch_many(apl.round([0, 1], ctx.query_kernel), lru) == (0, 2)
    with pytest.raises(InjectedDiskError):
        apl.fetch_many(apl.round([3, 2, 1], ctx.query_kernel), lru)
    assert recency(lru) == [0, 1]
    disk.fault_injector = None
    assert apl.fetch_many(apl.round([3, 2, 1], ctx.query_kernel), lru) == (1, 3)
    assert recency(lru) == [0, 1, 3, 2]


def test_concurrent_rounds_keep_the_list_whole():
    """Threads (more than cores, switching often) touching and inserting
    rows of a growing image on one list: every call holds the lock, so the
    list stays one consistent chain within capacity, with every resident
    row on it once."""
    import sys
    import threading

    lru, capacity, errors = RowLRU(7), 7, []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for i in range(400):
                n_rows = 20 + i // 10
                rows = np.array(rng.sample(range(n_rows), rng.randrange(1, 9)), dtype=np.int64)
                misses, _asked = lru.missing(c_array("int64_t", rows), len(rows), n_rows)
                lru.put_many(misses)
        except Exception as exc:  # reported below, with the thread's seed
            errors.append((seed, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    rows = recency(lru)
    assert len(rows) == len(set(rows)) == capacity
    assert all(lru._list.state[r] == 1 for r in rows)
    assert sum(lru._list.state[r] for r in range(lru._list.rows)) == capacity
