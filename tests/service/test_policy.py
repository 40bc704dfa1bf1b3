"""Tests for per-request policies: deadlines, cancellation, retries."""

import threading
import time

import pytest

from repro.errors import ServiceError, TransientExecutionError
from repro.service import policy as policy_module
from repro.service.policy import (
    CancellationToken,
    Deadline,
    RequestPolicy,
    RetryPolicy,
)
from tests.service.helpers import backoff


class TestDeadline:
    def test_none_never_expires(self):
        deadline = Deadline.after(None)
        assert not deadline.expired
        assert deadline.remaining() is None
        assert deadline.clamp(3.0) == 3.0

    def test_zero_budget_is_immediately_expired(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        assert deadline.clamp(3.0) == 0.0

    def test_remaining_counts_down(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        remaining = deadline.remaining()
        assert 0.0 < remaining <= 60.0
        assert deadline.clamp(1.0) == 1.0
        assert deadline.clamp(120.0) <= 60.0

    def test_expiry_actually_happens(self):
        deadline = Deadline.after(0.005)
        time.sleep(0.01)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ServiceError):
            Deadline.after(-1.0)


class TestCancellationToken:
    def test_starts_uncancelled(self):
        token = CancellationToken()
        assert not token.cancelled
        assert not token.wait(0.001)

    def test_cancel_is_sticky_and_wakes_waiters(self):
        token = CancellationToken()
        token.cancel()
        assert token.cancelled
        assert token.wait(10.0)  # returns immediately, not after 10s
        token.cancel()  # idempotent
        assert token.cancelled


class TestRetryPolicy:
    def test_exponential_schedule(self):
        policy = RetryPolicy(max_attempts=5)
        assert policy.delay(1) == pytest.approx(0.01)
        assert policy.delay(2) == pytest.approx(0.02)
        assert policy.delay(3) == pytest.approx(0.04)

    def test_cap_applies(self, monkeypatch):
        monkeypatch.setattr(policy_module, "BACKOFF_BASE_S", 1.0)
        monkeypatch.setattr(policy_module, "BACKOFF_FACTOR", 10.0)
        monkeypatch.setattr(policy_module, "BACKOFF_CAP_S", 2.5)
        policy = RetryPolicy(max_attempts=9)
        assert policy.delay(1) == pytest.approx(1.0)
        assert policy.delay(2) == pytest.approx(2.5)
        assert policy.delay(8) == pytest.approx(2.5)

    def test_invalid_attempts_rejected(self):
        with pytest.raises(ServiceError):
            RetryPolicy(max_attempts=0)

    def test_single_attempt_policy_never_backs_off(self):
        # max_attempts=1 means "no retries": the executor loop asks for
        # a delay only between attempts, so delay() is never reached.
        policy = RetryPolicy(max_attempts=1)
        assert [n for n in range(1, policy.max_attempts)] == []

    def test_attempt_exhaustion_reraises_last_error(self):
        """The canonical retry loop: attempts stop at max_attempts.

        A transient failure backs off and retries; once the budget is
        spent the last error propagates unchanged.
        """
        policy = RetryPolicy(max_attempts=3)
        token = CancellationToken()
        attempts = 0

        def flaky():
            nonlocal attempts
            attempts += 1
            raise TransientExecutionError(f"attempt {attempts} failed")

        with pytest.raises(TransientExecutionError, match="attempt 3"), backoff(0.0, 0.0):
            for attempt in range(1, policy.max_attempts + 1):
                try:
                    flaky()
                    break
                except TransientExecutionError:
                    if attempt >= policy.max_attempts:
                        raise
                    token.wait(policy.delay(attempt))
        assert attempts == policy.max_attempts

    def test_cancellation_wakes_a_backoff_sleep(self):
        # A 30-second backoff must end the instant the token fires,
        # not after the full delay.
        policy = RetryPolicy(max_attempts=2)
        token = CancellationToken()
        timer = threading.Timer(0.02, token.cancel)
        timer.start()
        try:
            started = time.monotonic()
            with backoff(30.0, 30.0):
                cancelled = token.wait(policy.delay(1))
            elapsed = time.monotonic() - started
        finally:
            timer.cancel()
        assert cancelled
        assert elapsed < 5.0


class TestRequestPolicy:
    def test_defaults_are_unbounded(self):
        policy = RequestPolicy()
        assert policy.deadline_s is None
        assert policy.max_plans is None
        assert policy.first_k_answers is None
        assert not policy.start_deadline().expired
        assert not policy.token().cancelled

    def test_shared_token_is_passed_through(self):
        token = CancellationToken()
        policy = RequestPolicy(cancellation=token)
        assert policy.token() is token

    def test_fresh_token_when_none_given(self):
        policy = RequestPolicy()
        assert policy.token() is not policy.token()
