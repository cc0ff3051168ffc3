"""Admission control decision logic, on a fake monotonic clock."""

import pytest

from repro.serving.admission import (
    AdmissionController,
    AdmissionError,
    ExpiredError,
    RejectedError,
    ServiceTimeEWMA,
    ServingConfig,
    ShedError,
)


class FakeClock:
    def __init__(self, t: float = 100.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def controller(clock, **kwargs) -> AdmissionController:
    return AdmissionController(ServingConfig(**kwargs), clock=clock)


class TestBackpressure:
    def test_rejects_when_queue_full(self):
        clock = FakeClock()
        ctrl = controller(clock, queue_capacity=2, max_concurrency=1)
        ctrl.admit()
        ctrl.admit()
        with pytest.raises(RejectedError) as err:
            ctrl.admit()
        assert err.value.queue_depth == 2
        assert err.value.capacity == 2
        assert err.value.outcome == "rejected"

    def test_dispatch_frees_a_slot(self):
        clock = FakeClock()
        ctrl = controller(clock, queue_capacity=1, max_concurrency=1)
        ticket = ctrl.admit()
        with pytest.raises(RejectedError):
            ctrl.admit()
        ctrl.dispatch(ticket)
        ctrl.admit()  # does not raise

    def test_abandon_frees_a_slot(self):
        clock = FakeClock()
        ctrl = controller(clock, queue_capacity=1, max_concurrency=1)
        ticket = ctrl.admit()
        ctrl.abandon(ticket)
        assert ctrl.queue_depth == 0
        ctrl.admit()  # does not raise


class TestShedding:
    def test_sheds_when_estimated_wait_exceeds_budget(self):
        clock = FakeClock()
        ctrl = controller(clock, queue_capacity=64, max_concurrency=2)
        ctrl.ewma.prime(0.1)
        # 4 queued over 2 permits + our own service: (4/2 + 1) * 0.1 = 0.3.
        for _ in range(4):
            ctrl.admit(deadline_s=10.0)
        assert ctrl.estimated_wait_s() == pytest.approx(0.3)
        with pytest.raises(ShedError) as err:
            ctrl.admit(deadline_s=0.25)
        assert err.value.stage == "admission"
        assert err.value.estimated_wait_s == pytest.approx(0.3)
        assert err.value.remaining_s == pytest.approx(0.25)
        assert err.value.outcome == "shed"
        # A patient caller is still admitted.
        ctrl.admit(deadline_s=0.35)

    def test_never_sheds_blind(self):
        """No EWMA sample yet -> estimate is zero -> nothing sheds."""
        clock = FakeClock()
        ctrl = controller(clock, queue_capacity=64, max_concurrency=1)
        for _ in range(10):
            ctrl.admit(deadline_s=1e-6)

    def test_shed_disabled(self):
        clock = FakeClock()
        ctrl = controller(clock, shed=False, max_concurrency=1)
        ctrl.ewma.prime(10.0)
        ctrl.admit(deadline_s=0.001)  # does not raise

    def test_headroom_sheds_earlier(self):
        clock = FakeClock()
        ctrl = controller(clock, max_concurrency=1, shed_headroom=2.0)
        ctrl.ewma.prime(0.1)
        # estimate 0.1, x2 headroom = 0.2 > 0.15 budget -> shed.
        with pytest.raises(ShedError):
            ctrl.admit(deadline_s=0.15)
        ctrl.admit(deadline_s=0.25)

    def test_no_deadline_no_shed(self):
        clock = FakeClock()
        ctrl = controller(clock, max_concurrency=1)
        ctrl.ewma.prime(100.0)
        ctrl.admit(deadline_s=None)  # unbounded patience

    def test_default_deadline_applies(self):
        clock = FakeClock()
        ctrl = controller(clock, max_concurrency=1, default_deadline_s=0.05)
        ctrl.ewma.prime(0.1)
        with pytest.raises(ShedError):
            ctrl.admit()


class TestDispatch:
    def test_remaining_budget_shrinks_with_queue_wait(self):
        clock = FakeClock()
        ctrl = controller(clock)
        ticket = ctrl.admit(deadline_s=1.0)
        clock.advance(0.4)
        remaining = ctrl.dispatch(ticket)
        assert remaining == pytest.approx(0.6)
        assert ctrl.queue_depth == 0

    def test_sheds_at_dispatch_when_budget_gone(self):
        clock = FakeClock()
        ctrl = controller(clock)
        ticket = ctrl.admit(deadline_s=0.2)
        clock.advance(0.5)
        with pytest.raises(ShedError) as err:
            ctrl.dispatch(ticket)
        assert err.value.stage == "dispatch"
        # The queue slot is released even on the shed path.
        assert ctrl.queue_depth == 0

    def test_unbounded_ticket_dispatches_none(self):
        clock = FakeClock()
        ctrl = controller(clock)
        ticket = ctrl.admit(deadline_s=None)
        clock.advance(99.0)
        assert ctrl.dispatch(ticket) is None

    def test_no_shed_dispatch_keeps_budget_floor(self):
        """With shedding off an exhausted budget still reaches the
        backend as a small positive deadline, not zero/negative."""
        clock = FakeClock()
        ctrl = controller(clock, shed=False)
        ticket = ctrl.admit(deadline_s=0.1)
        clock.advance(1.0)
        remaining = ctrl.dispatch(ticket)
        assert remaining is not None and remaining > 0


class TestEWMA:
    def test_first_sample_initialises(self):
        ewma = ServiceTimeEWMA()
        assert ewma.value is None
        ewma.record(0.2)
        assert ewma.value == pytest.approx(0.2)

    def test_exponential_smoothing(self):
        ewma = ServiceTimeEWMA()
        ewma.record(0.2)
        ewma.record(0.7)
        assert ewma.value == pytest.approx(0.3)
        ewma.record(0.3)
        assert ewma.value == pytest.approx(0.3)

    def test_prime_overrides(self):
        ewma = ServiceTimeEWMA()
        ewma.record(1.0)
        ewma.prime(0.05)
        assert ewma.value == pytest.approx(0.05)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_capacity": 0},
            {"max_concurrency": 0},
            {"default_deadline_s": 0.0},
            {"shed_headroom": 0.0},
        ],
    )
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


def test_error_taxonomy():
    """Every refusal is an AdmissionError with a stable outcome label —
    the buckets the metrics registry counts under."""
    assert issubclass(RejectedError, AdmissionError)
    assert issubclass(ShedError, AdmissionError)
    assert issubclass(ExpiredError, AdmissionError)
    assert RejectedError(1, 1).outcome == "rejected"
    assert ShedError(1.0, 0.5).outcome == "shed"
    err = ExpiredError(0.3, 0.2, response="late-answer", reason="late")
    assert err.outcome == "expired"
    assert err.response == "late-answer"
