"""Write-back LRU cache overlay (``cached://<child-uri>#capacity=N``).

Keeps the hottest ``capacity`` blocks in memory in front of any child
store.  Writes dirty the cache entry and only reach the child on LRU
eviction or :meth:`flush` — the classic write-back discipline, so a
``cached://sqlite://...`` stack absorbs Bonnie's rewrite phase at memory
speed while the child still holds everything after a flush.

The overlay's own :class:`~repro.storage.base.BlockDeviceStats` counts the
*logical* traffic callers issued; the child's stats count the *physical*
traffic that survived the cache — the difference is what the ablation
measures.  Hit/miss/eviction/write-back counts live in
:class:`CacheStats`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import InvalidArgument
from repro.storage.base import BlockStore, WrapperBlockStore

DEFAULT_CAPACITY = 256


@dataclass
class CacheStats:
    """Overlay behaviour counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0


class CachedBlockStore(WrapperBlockStore):
    """LRU write-back cache in front of ``child``.

    Not ``thread_safe`` (the LRU mutates even on reads) and not durable
    until flushed; misses and write-backs go through the child's public
    API, so the child's stats count the physical traffic.
    """

    scheme = "cached"
    descends = True
    buffers_writes = True

    def __init__(self, child: BlockStore, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise InvalidArgument("cache capacity must be positive")
        super().__init__(child)
        self.capacity = capacity
        self.cache_stats = CacheStats()
        self._entries: OrderedDict[int, bytes] = OrderedDict()
        self._dirty: set[int] = set()

    def _get(self, block_no: int) -> bytes | None:
        cached = self._entries.get(block_no)
        if cached is not None:
            self.cache_stats.hits += 1
            self._entries.move_to_end(block_no)
            return cached
        self.cache_stats.misses += 1
        data = self.child.read(block_no)
        self._insert(block_no, data, dirty=False)
        return data

    def _put(self, block_no: int, data: bytes) -> None:
        self._insert(block_no, data, dirty=True)

    def _contains(self, block_no: int) -> bool:
        return block_no in self._dirty or self.child._contains(block_no)

    def _get_many(self, block_nos: list[int]) -> list[bytes | None]:
        # Serve hits from the overlay; fetch all misses from the child in
        # one read_many, so a cached://remote:// stack pays one round trip
        # per cold batch instead of one per cold block.
        out: list[bytes | None] = [None] * len(block_nos)
        miss_positions: dict[int, list[int]] = {}
        for pos, block_no in enumerate(block_nos):
            cached = self._entries.get(block_no)
            if cached is not None:
                self.cache_stats.hits += 1
                self._entries.move_to_end(block_no)
                out[pos] = cached
            elif block_no in miss_positions:
                # Same block again in this batch: the looped path would
                # hit the just-filled entry, so count it as a hit.
                self.cache_stats.hits += 1
                miss_positions[block_no].append(pos)
            else:
                self.cache_stats.misses += 1
                miss_positions[block_no] = [pos]
        if miss_positions:
            missing = list(miss_positions)
            for block_no, data in zip(missing, self.child.read_many(missing)):
                self._insert(block_no, data, dirty=False)
                for pos in miss_positions[block_no]:
                    out[pos] = data
        return out

    def _put_many(self, items: list[tuple[int, bytes]]) -> None:
        for block_no, data in items:
            self._insert(block_no, data, dirty=True)

    def _insert(self, block_no: int, data: bytes, dirty: bool) -> None:
        if block_no in self._entries:
            self._entries.move_to_end(block_no)
        self._entries[block_no] = data
        if dirty:
            self._dirty.add(block_no)
        while len(self._entries) > self.capacity:
            victim, victim_data = self._entries.popitem(last=False)
            self.cache_stats.evictions += 1
            if victim in self._dirty:
                self._dirty.discard(victim)
                self.cache_stats.writebacks += 1
                self.child.write(victim, victim_data)

    def flush(self) -> None:
        dirty = sorted(self._dirty)
        if dirty:
            # One vectored write-back instead of one write per dirty
            # block: over a remote child this is one round trip.
            self.cache_stats.writebacks += len(dirty)
            self.child.write_many(
                [(block_no, self._entries[block_no]) for block_no in dirty]
            )
        self._dirty.clear()
        self.child.flush()

    def close(self) -> None:
        self.flush()
        self.child.close()

    def used_blocks(self) -> int:
        # Count dirty blocks the child has never seen without flushing
        # them: mid-run introspection must not add physical writes to the
        # child's stats, or the logical-vs-physical ablation is skewed.
        new_dirty = sum(
            1 for block_no in self._dirty if not self.child._contains(block_no)
        )
        return self.child.used_blocks() + new_dirty

    def used_block_numbers(self) -> list[int]:
        # Dirty blocks the child has never seen, plus the child's own —
        # without flushing (introspection must stay stats-pure).
        return sorted(set(self.child.used_block_numbers()) | self._dirty)

    def _extra_stats(self) -> dict[str, float]:
        lookups = self.cache_stats.hits + self.cache_stats.misses
        return {
            "hits": self.cache_stats.hits,
            "misses": self.cache_stats.misses,
            "hit_ratio": round(self.cache_stats.hits / lookups, 4)
            if lookups else 0.0,
            "evictions": self.cache_stats.evictions,
            "writebacks": self.cache_stats.writebacks,
            "dirty": len(self._dirty),
        }

    def describe(self) -> str:
        return f"cached(cap={self.capacity}) over {self.child.describe()}"
