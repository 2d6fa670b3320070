"""Unit tests for the policy objects: clocks, retry, timeout, breaker.

Everything runs on :class:`ManualClock`; the breaker walks all three
transitions (closed→open→half-open→{closed,open}) driven purely by
``clock.advance`` — no real waiting anywhere.
"""

import itertools
import sys
import threading

import pytest

from repro.errors import (
    CircuitOpenError,
    SourceError,
    SourceTimeoutError,
    TransientSourceError,
)
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ManualClock,
    RetryPolicy,
    Timeout,
)


class TestManualClock:
    def test_sleep_advances_and_records(self):
        clock = ManualClock()
        clock.sleep(0.5)
        clock.sleep(0.25)
        assert clock.time() == pytest.approx(0.75)
        assert clock.sleeps == [0.5, 0.25]

    def test_advance_does_not_record(self):
        clock = ManualClock(start=10.0)
        clock.advance(5)
        assert clock.time() == pytest.approx(15.0)
        assert clock.sleeps == []


class TestRetryPolicy:
    def test_delays_schedule_is_capped_exponential(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.35
        )
        assert policy.delays() == pytest.approx([0.1, 0.2, 0.35, 0.35])

    def test_call_retries_transient_and_sleeps_backoff(self):
        clock = ManualClock()
        policy = RetryPolicy(
            attempts=3, base_delay=0.1, multiplier=2.0, sleep=clock.sleep
        )
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientSourceError("boom")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(calls) == 3
        assert clock.sleeps == pytest.approx([0.1, 0.2])

    def test_call_exhausts_budget_and_reraises(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=2, sleep=clock.sleep)

        def always():
            raise TransientSourceError("never works")

        with pytest.raises(TransientSourceError):
            policy.call(always)
        assert len(clock.sleeps) == 1  # one retry between two attempts

    def test_permanent_errors_are_not_retried(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=5, sleep=clock.sleep)
        calls = []

        def broken():
            calls.append(1)
            raise SourceError("permanent")

        with pytest.raises(SourceError):
            policy.call(broken)
        assert len(calls) == 1
        assert clock.sleeps == []

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


class TestTimeout:
    def test_fast_call_passes(self):
        clock = ManualClock()
        timeout = Timeout(1.0, clock=clock)
        assert timeout.guard(lambda: "fast") == "fast"

    def test_slow_call_raises_with_payload(self):
        clock = ManualClock()
        timeout = Timeout(0.25, clock=clock)

        def slow():
            clock.advance(0.4)
            return "late"

        with pytest.raises(SourceTimeoutError) as info:
            timeout.guard(slow, doc_id="root1", source="s")
        assert info.value.limit == pytest.approx(0.25)
        assert info.value.elapsed == pytest.approx(0.4)
        assert info.value.doc_id == "root1"
        assert isinstance(info.value, TransientSourceError)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            Timeout(0)


class TestCircuitBreaker:
    def make(self, threshold=2, cooldown=5.0):
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=threshold, cooldown=cooldown, clock=clock,
            name="s",
        )
        return clock, breaker

    def test_all_three_transitions_to_recovery(self):
        clock, breaker = self.make()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == OPEN

        with pytest.raises(CircuitOpenError) as info:
            breaker.allow("root1")
        assert info.value.retry_after == pytest.approx(5.0)

        clock.advance(5.0)
        assert breaker.state == HALF_OPEN  # cooldown elapsed: probe time
        breaker.allow("root1")  # the probe is admitted
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.transitions == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
        ]

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        clock, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        breaker.record_failure()  # the probe failed
        assert breaker.state == OPEN
        clock.advance(4.9)
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN

    def test_success_resets_consecutive_failures(self):
        __, breaker = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never two *consecutive* failures

    def test_transition_hook_fires(self):
        clock, breaker = self.make(threshold=1)
        seen = []
        breaker.on_transition = lambda a, b: seen.append((a, b))
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        assert seen == [(CLOSED, OPEN), (OPEN, HALF_OPEN)]

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestCircuitBreakerConcurrency:
    """Answers over one source force concurrently, so breaker updates
    race; a tiny switch interval makes the interleavings likely."""

    THREADS = 8

    def race(self, fn, calls):
        barrier = threading.Barrier(self.THREADS)

        def run():
            barrier.wait(10)
            for __ in range(calls):
                fn()

        threads = [
            threading.Thread(target=run, daemon=True)
            for __ in range(self.THREADS)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)

    def test_no_failure_increment_is_lost(self):
        calls = 400
        breaker = CircuitBreaker(
            failure_threshold=self.THREADS * calls, clock=ManualClock()
        )
        self.race(breaker.record_failure, calls)
        # The threshold is met by the very last failure, exactly once.
        assert breaker._consecutive_failures == self.THREADS * calls
        assert breaker.state == OPEN
        assert breaker.transitions == [(CLOSED, OPEN)]

    def test_racing_probes_record_each_legal_transition_once(self):
        # cooldown=0: every read of an open breaker moves it to
        # half-open, so succeeding and failing probes keep racing over
        # the half-open state — the window where an unguarded breaker
        # records illegal (OPEN, CLOSED) edges, duplicate half-open
        # moves, or refuses a caller after the cooldown elapsed.
        legal = {(CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
                 (HALF_OPEN, OPEN)}
        for __ in range(10):
            seen = []
            errors = []
            breaker = CircuitBreaker(
                failure_threshold=1, cooldown=0.0, clock=ManualClock(),
                on_transition=lambda a, b: seen.append((a, b)),
            )
            outcomes = itertools.cycle(
                [breaker.record_success, breaker.record_failure]
            )

            def probe():
                record = next(outcomes)
                try:
                    breaker.allow()
                except CircuitOpenError as exc:
                    errors.append(exc)
                record()

            self.race(probe, 300)
            transitions = breaker.transitions
            assert not errors
            assert set(transitions) <= legal
            assert all(
                a[1] == b[0] for a, b in zip(transitions, transitions[1:])
            )
            assert seen == transitions
