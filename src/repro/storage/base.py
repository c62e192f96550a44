"""The abstract block store: what every storage backend implements.

A :class:`BlockStore` is a flat array of fixed-size blocks addressed by
integer block number.  Stores are *composable* (``replica://`` and
``cached://`` wrap other stores) and *URI-addressable* (see
:mod:`repro.storage.registry`); FFS runs on one stack of them through
:class:`~repro.storage.adapter.StoreBlockDevice`.

Every store — and the device above the stack — counts its operations in
a :class:`BlockDeviceStats`, so the benchmark cost models that attribute
simulated disk time keep working no matter which backend (or stack of
backends) sits underneath, and composite stores can report per-layer and
per-replica traffic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.errors import InvalidArgument, NoSpace

T = TypeVar("T")

DEFAULT_BLOCK_SIZE = 8192
DEFAULT_NUM_BLOCKS = 16384


@dataclass
class BlockDeviceStats:
    """Operation counters, reset-able between benchmark phases.

    Increments are atomic (guarded by a per-instance lock, like the
    :mod:`repro.obs.metrics` instruments): the counters are shared by
    concurrent paths — replica straggler lanes, pipelined ``remote://``
    windows, ``store-serve --workers`` threads — where a bare ``x += 1``
    read-modify-write silently loses updates.
    """

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    # Tracks the previous block number to let cost models distinguish
    # sequential from random access.
    last_block: int = field(default=-1, repr=False)
    seeks: int = 0
    # Real durability barriers issued (os.fsync and equivalents): the
    # cost axis the journal ablation reports, since a write-ahead log
    # trades throughput for exactly these.
    fsyncs: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_read(self, block_no: int, nbytes: int) -> None:
        with self._lock:
            self.reads += 1
            self.bytes_read += nbytes
            if block_no != self.last_block + 1:
                self.seeks += 1
            self.last_block = block_no

    def record_write(self, block_no: int, nbytes: int) -> None:
        with self._lock:
            self.writes += 1
            self.bytes_written += nbytes
            if block_no != self.last_block + 1:
                self.seeks += 1
            self.last_block = block_no

    def record_fsync(self) -> None:
        with self._lock:
            self.fsyncs += 1

    def reset(self) -> None:
        with self._lock:
            self.reads = self.writes = 0
            self.bytes_read = self.bytes_written = 0
            self.seeks = 0
            self.fsyncs = 0
            self.last_block = -1


@dataclass(frozen=True)
class Capabilities:
    """What a store *is*, as typed flags instead of duck-typed probes.

    ``serve_store``'s wrap-or-not decision, the control plane's
    topology dumps and the bench report tables all consume this
    instead of poking at per-class attributes.
    """

    #: Data operations tolerate concurrent callers (``mem://`` is
    #: GIL-atomic).  ``serve_store`` serializes backends that do not
    #: claim this.
    thread_safe: bool = False
    #: Writes survive process exit once flushed (``file://``;
    #: composites derive from their children).
    durable: bool = False
    #: At least one layer crosses a network/RPC boundary.
    networked: bool = False
    #: Wraps or fans out over child stores.
    composite: bool = False

    def flags(self) -> str:
        """Compact ``thread-safe,durable,...`` rendering for reports."""
        names = [
            name for name, on in (
                ("thread-safe", self.thread_safe), ("durable", self.durable),
                ("networked", self.networked), ("composite", self.composite),
            ) if on
        ]
        return ",".join(names) or "-"


@dataclass
class StoreStats:
    """Uniform point-in-time stats snapshot every store can produce.

    Core I/O counters come from the store's
    :class:`BlockDeviceStats`; layer-specific
    counters (cache hits, quorum repairs, journal transactions, ...)
    ride in ``extra`` keyed by counter name, so consumers — the bench
    report tables, ``discfs store-inspect`` — read one shape no matter
    which backend (or stack of backends) they are looking at.
    """

    scheme: str = ""
    description: str = ""
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0
    fsyncs: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "description": self.description,
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "seeks": self.seeks,
            "fsyncs": self.fsyncs,
            "extra": dict(self.extra),
        }


class BlockStore:
    """Abstract fixed-size-block store.

    Subclasses implement :meth:`_get` / :meth:`_put`; the public
    :meth:`read` / :meth:`write` wrappers validate ranges, zero-fill
    unwritten blocks, pad short writes, and record stats.

    Stats increments are atomic: :class:`BlockDeviceStats.record_read`
    and friends hold a per-instance lock, so the counters stay exact
    even where concurrent paths share a store — replica straggler
    lanes, pipelined ``remote://`` windows and ``store-serve
    --workers`` threads all drive the same child from
    several threads at once (a bare ``x += 1`` there silently loses
    updates; ``tests/unit/test_storage_concurrency.py`` regresses
    this).  Counters shared *across* layers (``ReplicaStats``) keep
    their own lock in ``replica://``.
    """

    #: URI scheme this store registers under (set by subclasses).
    scheme: str = ""

    #: Whether this store's *data* operations tolerate concurrent
    #: callers (``mem://`` is GIL-atomic).  ``serve_store(..., workers=N)``
    #: serializes backends that do not claim this, so a worker-pool
    #: server never races an unlocked backend (``cached://``'s LRU
    #: mutates even on reads).  Surface through
    #: :meth:`capabilities`; composites derive from their children.
    thread_safe: bool = False

    #: Writes survive process exit once flushed (class default; see
    #: :meth:`capabilities`).
    durable: bool = False

    #: This layer crosses a network boundary (class default; see
    #: :meth:`capabilities`).
    networked: bool = False

    def __init__(self, num_blocks: int, block_size: int = DEFAULT_BLOCK_SIZE):
        if num_blocks <= 0:
            raise InvalidArgument("store must have at least one block")
        if block_size <= 0 or block_size % 512:
            raise InvalidArgument("block size must be a positive multiple of 512")
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.stats = BlockDeviceStats()
        self._zero = bytes(block_size)

    # -- subclass interface ------------------------------------------------

    def _get(self, block_no: int) -> bytes | None:
        """Return the stored block, or None if never written."""
        raise NotImplementedError

    def _put(self, block_no: int, data: bytes) -> None:
        """Store ``data`` (exactly ``block_size`` bytes)."""
        raise NotImplementedError

    def _contains(self, block_no: int) -> bool:
        """Whether the block was ever written — without touching stats.

        Composite stores override this so introspection (e.g. a cache
        overlay counting blocks) never inflates physical-I/O counters.
        """
        return self._get(block_no) is not None

    def _get_many(self, block_nos: list[int]) -> list[bytes | None]:
        """Fetch several blocks; positions align with ``block_nos``.

        The default loops over :meth:`_get`.  Composite and remote stores
        override this to batch — per child (``replica://``), per cache
        miss set (``cached://``), or per RPC round trip
        (``remote://``) — which is what makes cold paths affordable once
        blocks live on other nodes.
        """
        return [self._get(block_no) for block_no in block_nos]

    def _put_many(self, items: list[tuple[int, bytes]]) -> None:
        """Store several (block_no, data) pairs (data already padded)."""
        for block_no, data in items:
            self._put(block_no, data)

    # -- public API --------------------------------------------------------

    def read(self, block_no: int) -> bytes:
        self._check_range(block_no)
        self.stats.record_read(block_no, self.block_size)
        data = self._get(block_no)
        return data if data is not None else self._zero

    def write(self, block_no: int, data: bytes) -> None:
        self._check_range(block_no)
        if len(data) > self.block_size:
            raise InvalidArgument(
                f"data ({len(data)} bytes) exceeds block size ({self.block_size})"
            )
        if len(data) < self.block_size:
            data = data + b"\x00" * (self.block_size - len(data))
        self.stats.record_write(block_no, self.block_size)
        self._put(block_no, data)

    def read_many(self, block_nos: list[int]) -> list[bytes]:
        """Read several blocks in one vectored operation.

        Semantically equivalent to ``[self.read(b) for b in block_nos]``
        (same validation, same stats), but a single call into the backend,
        so stores that pay per-operation overhead — an RPC round trip, a
        replica fan-out — amortize it across the whole batch.
        """
        block_nos = list(block_nos)
        for block_no in block_nos:
            self._check_range(block_no)
        for block_no in block_nos:
            self.stats.record_read(block_no, self.block_size)
        if not block_nos:
            return []
        return [
            data if data is not None else self._zero
            for data in self._get_many(block_nos)
        ]

    def write_many(self, items: list[tuple[int, bytes]]) -> None:
        """Write several (block_no, data) pairs in one vectored operation.

        Equivalent to looping :meth:`write` (validation, padding, stats)
        but delivered to the backend as one batch.
        """
        validated: list[tuple[int, bytes]] = []
        for block_no, data in items:
            self._check_range(block_no)
            if len(data) > self.block_size:
                raise InvalidArgument(
                    f"data ({len(data)} bytes) exceeds block size "
                    f"({self.block_size})"
                )
            if len(data) < self.block_size:
                data = data + b"\x00" * (self.block_size - len(data))
            validated.append((block_no, data))
        for block_no, _data in validated:
            self.stats.record_write(block_no, self.block_size)
        if validated:
            self._put_many(validated)

    def _check_range(self, block_no: int) -> None:
        if not 0 <= block_no < self.num_blocks:
            raise NoSpace(
                f"block {block_no} out of range (store has {self.num_blocks})"
            )

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        """Push buffered state to durable/child storage (no-op by default)."""

    def close(self) -> None:
        """Release resources; the store must not be used afterwards."""

    def __enter__(self) -> "BlockStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    def used_blocks(self) -> int:
        """Number of distinct blocks ever written, where knowable."""
        raise NotImplementedError

    def used_block_numbers(self) -> list[int]:
        """The distinct block numbers ever written, sorted.

        ``tenant://`` rebuilds its per-tenant usage from it, which needs
        *which* blocks a child holds, not just how many.  Composites
        union their children; ``remote://`` pages the listing over RPC.
        """
        raise NotImplementedError

    def capabilities(self) -> Capabilities:
        """Typed capability flags for this store instance.

        The default reads the class-level declarations; composite
        stores override to derive from their children (a ring is as
        durable as its least durable child, and networked if any child
        is).
        """
        return Capabilities(
            thread_safe=self.thread_safe,
            durable=self.durable,
            networked=self.networked,
            composite=bool(self.child_stores()),
        )

    def child_stores(self) -> list["BlockStore"]:
        """The *live* child stores one layer down (empty for leaves).

        Unlike :meth:`leaf_stores` this does not flatten: walking
        ``child_stores`` recursively reproduces the mounted topology,
        which is what ``describe()``/``store-inspect`` render.
        """
        return []

    def snapshot(self) -> StoreStats:
        """Uniform point-in-time stats snapshot (see :class:`StoreStats`)."""
        return StoreStats(
            scheme=self.scheme,
            description=self.describe(),
            reads=self.stats.reads,
            writes=self.stats.writes,
            bytes_read=self.stats.bytes_read,
            bytes_written=self.stats.bytes_written,
            seeks=self.stats.seeks,
            fsyncs=self.stats.fsyncs,
            extra=self._extra_stats(),
        )

    def _extra_stats(self) -> dict[str, float]:
        """Layer-specific counters folded into :meth:`snapshot`."""
        return {}

    def remote_stats(self) -> StoreStats | None:
        """The *served* store's snapshot, for stores that proxy one over
        the network (``remote://``); None for local stores."""
        return None

    def leaf_stores(self) -> list["BlockStore"]:
        """The physical stores at the bottom of this stack.

        Composite stores (``replica://``, ``cached://``) override this to
        descend; a leaf returns itself.  Summing ``leaf.stats`` over the
        result gives the *physical* I/O that reached backing storage, as
        opposed to the logical traffic counted at the top of the stack —
        the difference is what the cache ablations measure.
        """
        return [self]

    def describe(self) -> str:
        """One-line human description (used by CLI and reports)."""
        return f"{self.scheme}://  {self.num_blocks}x{self.block_size}B"

    @property
    def capacity_bytes(self) -> int:
        return self.num_blocks * self.block_size


class WrapperBlockStore(BlockStore):
    """A store that is one ``child`` plus a delta: every method forwards.

    The base for the pass-through layers (``failing://``, ``slow://``,
    ``metered://``, ``tenant://``, ``cached://``, ``journal://`` and the
    server's lock wrapper).  A subclass states only what it changes:

    * :meth:`around` — one hook run around every forwarded operation
      (raise, sleep, lock, time); the default calls straight through.
    * the data hooks, where the layer holds state of its own (a cache,
      a log, a region offset).

    **The leaf rule.**  The data hooks here forward to the child's
    *internal* hooks: this layer's public ``read``/``write`` already
    validated, padded and counted the operation, so re-entering the
    child's public API would count one pass-through twice and
    zero-fill the holes ``_get`` must report as ``None``.  The child's
    counters therefore stay at zero and this store *is* the physical
    leaf — ``leaf_stores()`` returns ``[self]``, its stats are the I/O
    that reached backing storage.  A subclass whose data hooks call
    the child's public ``read``/``write`` instead (``cached://``,
    ``journal://``: the child counts what survived this layer) sets
    ``descends = True`` and ``leaf_stores()`` descends.
    """

    #: Data hooks call the child's public API (see the leaf rule).
    descends = False
    #: Holds acknowledged writes in memory, so the child's durability
    #: is not this layer's (``cached://``'s write-back).
    buffers_writes = False

    def __init__(self, child: BlockStore, num_blocks: int | None = None):
        super().__init__(
            child.num_blocks if num_blocks is None else num_blocks,
            child.block_size,
        )
        self.child = child

    def around(self, op: str, fn: Callable[[], T]) -> T:
        """Run ``fn`` — the forwarded child call for ``op`` (``read``,
        ``write``, ``read_many``, ``write_many``, ``contains``,
        ``flush``, ``close``, ``used_blocks``, ``used_block_numbers``)."""
        return fn()

    def _get(self, block_no: int) -> bytes | None:
        return self.around("read", lambda: self.child._get(block_no))

    def _put(self, block_no: int, data: bytes) -> None:
        self.around("write", lambda: self.child._put(block_no, data))

    def _get_many(self, block_nos: list[int]) -> list[bytes | None]:
        return self.around("read_many",
                           lambda: self.child._get_many(block_nos))

    def _put_many(self, items: list[tuple[int, bytes]]) -> None:
        self.around("write_many", lambda: self.child._put_many(items))

    def _contains(self, block_no: int) -> bool:
        return self.around("contains", lambda: self.child._contains(block_no))

    def flush(self) -> None:
        self.around("flush", self.child.flush)

    def close(self) -> None:
        self.around("close", self.child.close)

    def used_blocks(self) -> int:
        return self.around("used_blocks", self.child.used_blocks)

    def used_block_numbers(self) -> list[int]:
        return self.around("used_block_numbers",
                           self.child.used_block_numbers)

    def leaf_stores(self) -> list[BlockStore]:
        return self.child.leaf_stores() if self.descends else [self]

    def child_stores(self) -> list[BlockStore]:
        return [self.child]

    def capabilities(self) -> Capabilities:
        child_caps = self.child.capabilities()
        return Capabilities(
            thread_safe=self.thread_safe,
            durable=child_caps.durable and not self.buffers_writes,
            networked=child_caps.networked,
            composite=True,
        )


def close_quietly(stores: list[BlockStore]) -> None:
    """Best-effort close of partially built stacks on the error path —
    a child that fails to close must not mask the original error."""
    for store in stores:
        try:
            store.close()
        except Exception:
            pass
