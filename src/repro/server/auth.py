"""Token authentication and per-token rate limiting for the job server.

Tokens live in a JSON file (``nda-repro serve --tokens tokens.json``)::

    {
      "tokens": [
        {"token": "s3cret", "name": "alice"},
        {"token": "ci-token", "name": "ci", "rate_per_sec": 50,
         "burst": 100}
      ]
    }

Clients present the token as ``Authorization: Bearer <token>`` (a bare
token value is accepted too).  Each token maps to a :class:`Principal`
whose name labels the server's job records and submit spans; unknown or
missing tokens are rejected with 401 before any spec parsing happens.

Rate limiting is a classic token bucket per principal: ``rate_per_sec``
tokens drip in continuously up to ``burst`` capacity, and each request
spends one.  An empty bucket means 429 with a ``retry_after_seconds``
hint.  When the server runs without a tokens file (the default for
local use), authentication and rate limiting are both disabled and
every request acts as the anonymous principal.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

#: Default drip rate / bucket size for tokens that do not override them.
DEFAULT_RATE_PER_SEC = 20.0
DEFAULT_BURST = 40


@dataclass(frozen=True)
class Principal:
    """One authenticated identity (what a token resolves to)."""

    name: str
    token: str
    rate_per_sec: float = DEFAULT_RATE_PER_SEC
    burst: int = DEFAULT_BURST


#: The identity requests act under when auth is disabled.
ANONYMOUS = Principal(name="anonymous", token="")


class TokenAuth:
    """Token table loaded from a JSON file (or built directly in tests)."""

    def __init__(self, principals: Dict[str, Principal]) -> None:
        self._by_token = dict(principals)

    @classmethod
    def load(cls, path) -> "TokenAuth":
        """Read a tokens file; raises ValueError on a malformed table."""
        payload = json.loads(Path(path).read_text())
        entries = payload.get("tokens")
        if not isinstance(entries, list) or not entries:
            raise ValueError(
                "tokens file %s must carry a non-empty 'tokens' list" % path
            )
        principals: Dict[str, Principal] = {}
        for index, entry in enumerate(entries):
            token = entry.get("token")
            if not token or not isinstance(token, str):
                raise ValueError(
                    "tokens[%d] in %s is missing its 'token' string"
                    % (index, path)
                )
            principals[token] = Principal(
                name=str(entry.get("name", "token-%d" % index)),
                token=token,
                rate_per_sec=float(
                    entry.get("rate_per_sec", DEFAULT_RATE_PER_SEC)
                ),
                burst=int(entry.get("burst", DEFAULT_BURST)),
            )
        return cls(principals)

    def authenticate(self, header: Optional[str]) -> Optional[Principal]:
        """Resolve an ``Authorization`` header value, or None to reject."""
        if not header:
            return None
        value = header.strip()
        if value.lower().startswith("bearer "):
            value = value[7:].strip()
        return self._by_token.get(value)

    def __len__(self) -> int:
        return len(self._by_token)


class RateLimiter:
    """Per-principal token bucket (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: principal name -> (tokens remaining, last refill timestamp)
        self._buckets: Dict[str, tuple] = {}

    def check(self, principal: Principal,
              now: Optional[float] = None) -> float:
        """Spend one request; returns 0.0 when allowed, else the number
        of seconds until a token drips in (the 429 Retry-After hint)."""
        if principal.rate_per_sec <= 0:  # unlimited principal
            return 0.0
        now = time.monotonic() if now is None else now
        with self._lock:
            tokens, last = self._buckets.get(
                principal.name, (float(principal.burst), now)
            )
            tokens = min(
                float(principal.burst),
                tokens + (now - last) * principal.rate_per_sec,
            )
            if tokens >= 1.0:
                self._buckets[principal.name] = (tokens - 1.0, now)
                return 0.0
            self._buckets[principal.name] = (tokens, now)
            return (1.0 - tokens) / principal.rate_per_sec
