"""Arrival processes: determinism, rate accuracy, and shape."""

import math

import pytest

from repro.serving.arrivals import (
    ARRIVAL_KINDS,
    DiurnalArrivals,
    PoissonArrivals,
    SquareWaveArrivals,
    arrival_process,
)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_same_seed_same_schedule(self, kind):
        a = arrival_process(kind, 80.0, seed=13)
        b = arrival_process(kind, 80.0, seed=13)
        assert a.times(3.0) == b.times(3.0)
        # And repeated calls on one instance replay identically.
        assert a.times(3.0) == a.times(3.0)

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_different_seed_different_schedule(self, kind):
        a = arrival_process(kind, 80.0, seed=1)
        b = arrival_process(kind, 80.0, seed=2)
        assert a.times(3.0) != b.times(3.0)


@pytest.mark.parametrize("kind", ARRIVAL_KINDS)
def test_times_sorted_within_window(kind):
    times = arrival_process(kind, 120.0, seed=3).times(2.5)
    assert times == sorted(times)
    assert all(0.0 <= t < 2.5 for t in times)


@pytest.mark.parametrize("kind", ARRIVAL_KINDS)
def test_mean_rate_matches_request(kind):
    """Every factory shape offers the same mean load — the saturation
    sweep means one thing for all three.  Whole periods only, so the
    time-varying shapes average out exactly."""
    process = arrival_process(kind, 200.0, seed=11, period_s=2.0)
    duration = 20.0  # 10 whole periods
    n = len(process.times(duration))
    expected = 200.0 * duration
    # Poisson sd is sqrt(4000) ~ 63; 4 sigma ~ 250 -> 15% is comfortable.
    assert abs(n - expected) / expected < 0.15


def test_poisson_rate_curve_flat():
    p = PoissonArrivals(50.0, seed=0)
    assert p.rate(0.0) == p.rate(123.4) == p.peak_rate() == 50.0


def test_diurnal_rate_curve_shape():
    d = DiurnalArrivals(10.0, 90.0, period_s=8.0, seed=0)
    assert d.rate(0.0) == pytest.approx(10.0)  # trough at t=0
    assert d.rate(4.0) == pytest.approx(90.0)  # peak at half period
    assert d.rate(8.0) == pytest.approx(10.0)  # periodic
    for t in (0.0, 1.0, 2.5, 7.9):
        assert 10.0 <= d.rate(t) <= 90.0 == d.peak_rate()


def test_square_wave_burst_and_quiet_plateaus():
    s = SquareWaveArrivals(20.0, 180.0, period_s=2.0, duty=0.5, seed=4)
    assert s.rate(0.1) == 180.0  # burst leads each period
    assert s.rate(1.5) == 20.0
    assert s.rate(2.1) == 180.0
    # The sampled schedule actually is burstier in the burst half.
    times = s.times(20.0)
    in_burst = sum(1 for t in times if (t % 2.0) < 1.0)
    in_quiet = len(times) - in_burst
    assert in_burst > 4 * in_quiet  # true ratio is 9:1


def test_square_wave_duty_cycle():
    s = SquareWaveArrivals(0.0, 100.0, period_s=4.0, duty=0.25, seed=0)
    assert s.rate(0.9) == 100.0
    assert s.rate(1.1) == 0.0
    assert all((t % 4.0) < 1.0 for t in s.times(12.0))


def test_zero_rate_and_zero_duration_empty():
    assert PoissonArrivals(0.0).times(5.0) == []
    assert PoissonArrivals(50.0).times(0.0) == []


def test_factory_swing_bounds():
    d = arrival_process("diurnal", 100.0, swing=0.5)
    assert (d.low_qps, d.high_qps) == (50.0, 150.0)
    s = arrival_process("square", 100.0, swing=0.2)
    assert (s.low_qps, s.high_qps) == (pytest.approx(80.0), pytest.approx(120.0))


def test_validation_errors():
    with pytest.raises(ValueError):
        arrival_process("sawtooth", 10.0)
    with pytest.raises(ValueError):
        arrival_process("diurnal", 10.0, swing=1.5)
    with pytest.raises(ValueError):
        PoissonArrivals(-1.0)
    with pytest.raises(ValueError):
        DiurnalArrivals(50.0, 10.0, period_s=1.0)  # low > high
    with pytest.raises(ValueError):
        SquareWaveArrivals(1.0, 2.0, period_s=0.0)
    with pytest.raises(ValueError):
        SquareWaveArrivals(1.0, 2.0, period_s=1.0, duty=1.0)
