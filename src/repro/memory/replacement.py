"""Cache replacement: true LRU, the paper's Table 3 policy.

The covert channels the paper studies (d-cache, and by analogy the BTB)
work because speculative fills change which lines survive in a set.  The
policy therefore exposes exactly the operations the tag arrays need:
record a touch, pick a victim, and forget an invalidated way.
"""

from __future__ import annotations

from typing import List


class LRUPolicy:
    """Per-set least-recently-used ordering."""

    def __init__(self, assoc: int):
        self.assoc = assoc
        # Most-recent at the end.  Ways not present are "least recent".
        self._order: List[int] = []

    def touch(self, way: int) -> None:
        """Way *way* was accessed (hit or fresh fill)."""
        if way in self._order:
            self._order.remove(way)
        self._order.append(way)

    def victim(self) -> int:
        """Pick the way to evict from a full set."""
        if self._order:
            return self._order[0]
        return 0

    def forget(self, way: int) -> None:
        """Way *way* was invalidated."""
        if way in self._order:
            self._order.remove(way)

    def recency_order(self) -> List[int]:
        """Ways, least-recent first (exposed for tests and channel PoCs)."""
        return list(self._order)
