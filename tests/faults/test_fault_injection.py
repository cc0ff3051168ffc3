"""FaultInjector unit tests: rule validation, determinism, fault shapes.

The injector is the trusted instrument every chaos test leans on, so its
own behaviour is pinned here against a bare :class:`SimulatedDisk` —
no serving stack, no concurrency except the one stall test that needs a
blocked reader thread.
"""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultRule, InjectedDiskError
from repro.storage.disk import SimulatedDisk


def _disk_with(injector, n_keys=8):
    disk = SimulatedDisk(fault_injector=injector)
    for i in range(n_keys):
        disk.put(("apl", i), list(range(i + 1)))
    return disk


# ----------------------------------------------------------------------
# FaultRule validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"error_rate": -0.1},
        {"error_rate": 1.5},
        {"stall_rate": 2.0},
        {"latency_rate": -1.0},
        {"extra_latency_s": -0.5},
        {"max_errors": -1},
        {"max_stalls": -2},
    ],
)
def test_rule_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        FaultRule(**kwargs)


def test_rule_defaults_are_inert():
    rule = FaultRule()
    assert rule.error_rate == 0.0
    assert rule.stall_rate == 0.0
    assert rule.extra_latency_s == 0.0
    assert rule.key_pattern is None


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
def test_max_errors_caps_deterministically():
    """error_rate=1.0 + max_errors=2: exactly the first two reads fail."""
    injector = FaultInjector(FaultRule(error_rate=1.0, max_errors=2), seed=3)
    disk = _disk_with(injector)
    for _ in range(2):
        with pytest.raises(InjectedDiskError):
            disk.get(("apl", 0))
    # Third and later reads succeed: the rule's budget is spent.
    assert disk.get(("apl", 0)) == [0]
    assert disk.get(("apl", 1)) == [0, 1]
    assert injector.errors_injected == 2
    assert injector.reads_seen == 4


def test_error_counters_still_account_io():
    """Injected errors fire after accounting: the seek happened."""
    injector = FaultInjector(FaultRule(error_rate=1.0), seed=0)
    disk = _disk_with(injector)
    with pytest.raises(InjectedDiskError):
        disk.get(("apl", 0))
    assert disk.stats.reads == 1
    assert disk.stats.pages_read >= 1


def test_key_pattern_scopes_faults():
    injector = FaultInjector(
        FaultRule(error_rate=1.0, key_pattern=r"'apl', 3"), seed=5
    )
    disk = _disk_with(injector)
    assert disk.get(("apl", 0)) == [0]
    assert disk.get(("apl", 2)) == [0, 1, 2]
    with pytest.raises(InjectedDiskError):
        disk.get(("apl", 3))
    assert injector.errors_injected == 1


def test_get_many_aborts_on_first_injected_error():
    injector = FaultInjector(
        FaultRule(error_rate=1.0, key_pattern=r"'apl', 1"), seed=0
    )
    disk = SimulatedDisk(fault_injector=injector)
    disk.put_extents("apl", 0, np.array([0, 1, 2]), [8, 8, 8])
    with pytest.raises(InjectedDiskError):
        disk.get_many("apl", np.array([0, 1, 2]))
    # All three reads were accounted (the batch's seeks happened) even
    # though the middle key aborted the gather.
    assert disk.stats.reads == 3


def test_same_seed_same_fault_sequence():
    def sequence(seed):
        injector = FaultInjector(FaultRule(error_rate=0.4), seed=seed)
        disk = _disk_with(injector)
        outcomes = []
        for i in range(40):
            try:
                disk.get(("apl", i % 8))
                outcomes.append("ok")
            except InjectedDiskError:
                outcomes.append("err")
        return outcomes

    assert sequence(99) == sequence(99)
    assert "err" in sequence(99)  # the rate actually fires at 40 draws


def test_enabled_flag_turns_disk_healthy():
    injector = FaultInjector(FaultRule(error_rate=1.0), seed=0)
    disk = _disk_with(injector)
    injector.enabled = False
    assert disk.get(("apl", 4)) == [0, 1, 2, 3, 4]
    assert injector.errors_injected == 0
    assert injector.reads_seen == 0  # disabled injector doesn't even count
    injector.enabled = True
    with pytest.raises(InjectedDiskError):
        disk.get(("apl", 4))


# ----------------------------------------------------------------------
# Latency spikes
# ----------------------------------------------------------------------
def test_latency_spike_pays_wall_time():
    injector = FaultInjector(FaultRule(extra_latency_s=0.05), seed=0)
    disk = _disk_with(injector)
    t0 = time.perf_counter()
    disk.get(("apl", 0))
    elapsed = time.perf_counter() - t0
    assert elapsed >= 0.04
    assert injector.delays_injected == 1


# ----------------------------------------------------------------------
# Stalls
# ----------------------------------------------------------------------
def test_stall_blocks_until_lifted_then_resumes_normally():
    injector = FaultInjector(FaultRule(stall_rate=1.0, max_stalls=1), seed=0)
    disk = _disk_with(injector)
    result = {}

    def read():
        result["value"] = disk.get(("apl", 2))

    reader = threading.Thread(target=read)
    reader.start()
    reader.join(timeout=0.2)
    assert reader.is_alive(), "stalled read returned before lift_stalls()"
    injector.lift_stalls()
    reader.join(timeout=5.0)
    assert not reader.is_alive()
    # The stalled read resumed *normally* — correct value, no exception.
    assert result["value"] == [0, 1, 2]
    assert injector.stalls_injected == 1
    # max_stalls=1 spent: the next read passes straight through.
    assert disk.get(("apl", 2)) == [0, 1, 2]


def test_stall_timeout_releases_reader():
    injector = FaultInjector(
        FaultRule(stall_rate=1.0, max_stalls=1), seed=0, stall_timeout_s=0.05
    )
    disk = _disk_with(injector)
    t0 = time.perf_counter()
    assert disk.get(("apl", 1)) == [0, 1]
    assert time.perf_counter() - t0 >= 0.04


# ----------------------------------------------------------------------
# Multiple rules / precedence
# ----------------------------------------------------------------------
def test_rules_evaluate_in_order_and_delays_accumulate():
    injector = FaultInjector(
        [
            FaultRule(extra_latency_s=0.02),
            FaultRule(extra_latency_s=0.03),
        ],
        seed=0,
    )
    disk = _disk_with(injector)
    t0 = time.perf_counter()
    disk.get(("apl", 0))
    assert time.perf_counter() - t0 >= 0.04  # both rules' spikes paid
    assert injector.delays_injected == 2


def test_counters_snapshot():
    injector = FaultInjector(FaultRule(error_rate=1.0, max_errors=1), seed=0)
    disk = _disk_with(injector)
    with pytest.raises(InjectedDiskError):
        disk.get(("apl", 0))
    disk.get(("apl", 0))
    counters = (
        injector.reads_seen,
        injector.errors_injected,
        injector.stalls_injected,
        injector.delays_injected,
    )
    assert counters == (2, 1, 0, 0)


# ----------------------------------------------------------------------
# Process boundary
# ----------------------------------------------------------------------
def test_injector_is_not_picklable():
    """The process fleet must never silently ship an injector to workers
    (its counters would diverge and its lock cannot cross exec)."""
    injector = FaultInjector(FaultRule(error_rate=0.5), seed=1)
    with pytest.raises(Exception):
        pickle.dumps(injector)
