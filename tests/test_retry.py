"""The durable queue's retry policy: jittered exponential backoff."""

import pytest

from repro.engine.retry import RetryPolicy, jitter_fraction


class TestRetryPolicy:
    def test_exhausted_counts_executions(self):
        policy = RetryPolicy(max_retries=2)
        assert not policy.exhausted(1)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)

    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(backoff=1.0, multiplier=2.0, jitter=0.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 2.0
        assert policy.delay(3) == 4.0

    def test_delay_is_capped(self):
        policy = RetryPolicy(backoff=100.0, max_delay=150.0, jitter=0.0)
        assert policy.delay(5) == 150.0

    def test_jitter_is_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy(backoff=10.0, jitter=0.5)
        assert policy.delay(2, key="job-a") == policy.delay(2, key="job-a")
        assert policy.delay(2, key="job-a") != policy.delay(2, key="job-b")
        assert policy.delay(2, key="job-a") != policy.delay(3, key="job-a")

    def test_jitter_stays_within_the_band(self):
        policy = RetryPolicy(backoff=10.0, multiplier=1.0, jitter=0.1)
        for key in ("a", "b", "c", "d"):
            assert 9.0 <= policy.delay(1, key=key) <= 11.0

    def test_jitter_fraction_range(self):
        for attempt in range(1, 20):
            assert -1.0 <= jitter_fraction("k", attempt) < 1.0

    def test_never_negative(self):
        policy = RetryPolicy(backoff=0.0)
        assert policy.delay(1) == 0.0
        assert policy.delay(0) == 0.0  # clamped attempt

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RetryPolicy().max_retries = 5


class TestSharedInstances:
    def test_durable_queue_uses_the_shared_policy(self, tmp_path):
        from repro.server import DurableQueue

        queue = DurableQueue(tmp_path, max_retries=3, retry_backoff=2.0)
        assert isinstance(queue.retry_policy, RetryPolicy)
        assert queue.retry_policy.max_retries == 3
        assert queue.retry_policy.backoff == 2.0
