"""The policy-result cache.

Paper, section 5: "To improve performance, we use a cache of requested
operations and policy results." — and the search benchmark (Figure 12)
"was conducted with a cache size of 128 policy results."

The cache is a map from three strings — principal, handle, operation —
to whatever the caller decided for them (the DisCFS server stores each
verdict with the keys that authorized it, and keys the operation only
while some assertion reads it: see
:meth:`~repro.core.server.DisCFSServer.decision_for`), with LRU eviction
at a fixed capacity (128 by default, configurable for the ablation
benchmark) and an optional time-to-live, stamped with the clock of the
:class:`~repro.core.policy.PolicyEngine` that owns it — the one its
``@now`` / ``@hour`` policies see.  Any credential submission or
revocation flushes the cache — policy changed, all bets off.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

CacheKey = tuple[str, str, str]  # (principal, handle, operation)

V = TypeVar("V")


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.flushes = 0


class PolicyCache(Generic[V]):
    """LRU cache of compliance-query results.

    ``capacity=0`` disables caching entirely (every lookup is a miss),
    which the ablation benchmark uses as its baseline.
    """

    def __init__(self, capacity: int = 128, ttl_seconds: float | None = None,
                 clock: Callable[[], float] = time.time):
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self.clock = clock
        self._entries: OrderedDict[CacheKey, tuple[V, float]] = OrderedDict()
        self.stats = CacheStats()

    def get(self, principal: str, handle: str, operation: str) -> V | None:
        key = (principal, handle, operation)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        value, stored_at = entry
        if self.ttl_seconds is not None and self.clock() - stored_at > self.ttl_seconds:
            del self._entries[key]
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, principal: str, handle: str, operation: str, value: V) -> None:
        if self.capacity == 0:
            return
        key = (principal, handle, operation)
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (value, self.clock())
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def flush(self) -> None:
        """Drop everything (called on any credential/revocation change)."""
        self._entries.clear()
        self.stats.flushes += 1

    def __len__(self) -> int:
        return len(self._entries)
