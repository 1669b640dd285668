"""The durable job queue's retry policy: jittered exponential backoff.

A queued job that raises is retried after
``backoff * multiplier**(attempt - 1)`` seconds (capped at
``max_delay``) until ``max_retries`` is spent, then parked as
``failed`` (see :class:`repro.server.queue.DurableQueue`).

The backoff is *jittered* so a thundering herd of requeued jobs does not
re-land on the same instant, but deterministically so: the jitter is a
pure function of ``(key, attempt)``, never of wall-clock or a global
RNG.  Two processes computing the delay for the same job agree exactly,
and a test can predict every delay.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def jitter_fraction(key: str, attempt: int) -> float:
    """Deterministic pseudo-random fraction in ``[-1, 1)`` per (key, attempt)."""
    digest = hashlib.sha256(("%s#%d" % (key, attempt)).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") / float(1 << 63) - 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, and how long to wait between attempts.

    ``attempt`` numbering is 1-based and counts *executions*, matching
    the durable queue's ``JobRecord.attempts``: after the first failed
    execution ``delay(1)`` is the wait before the second, and
    ``exhausted(attempts)`` is True once ``attempts`` executions have
    consumed every allowed retry.
    """

    max_retries: int = 2
    backoff: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.1  # fraction of the delay, +/-
    max_delay: float = 300.0

    def exhausted(self, attempts: int) -> bool:
        """True when *attempts* executions used up every retry."""
        return attempts > self.max_retries

    def delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before retrying after execution *attempt*."""
        attempt = max(1, int(attempt))
        base = self.backoff * (self.multiplier ** (attempt - 1))
        base = min(base, self.max_delay)
        if self.jitter and base > 0.0:
            base *= 1.0 + self.jitter * jitter_fraction(key, attempt)
        return max(0.0, base)

