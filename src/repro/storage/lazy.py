"""Lazy/retrying child store (``lazy://<child-uri>[#retry=S]``).

``remote://`` (and anything composed over it) connects eagerly, so a
node that happens to be down at *mount* time fails ``open_store`` even
when the caller — a ``replica://`` quorum — could tolerate the outage
during operation.  :class:`LazyBlockStore` holds the child *URI* instead
of the child: the real store is opened on first use and re-opened after
a failure, with a small backoff (``retry``, seconds) so a dead node does
not add a connect timeout to every operation.

While the child is down every operation raises
:class:`~repro.errors.StoreUnavailable` — exactly what ``replica://``
already treats as a degraded child — and the first operation after the
node returns reconnects it, at which point read-repair heals whatever
it missed.  ``replica://`` applies this wrapper automatically when one
of its children is unreachable at mount time (the ROADMAP lazy-connect
item), so ``replica://remote://h1;remote://h2;remote://h3#w=2&r=2``
mounts with a node down and heals it on reconnect.

Geometry is provisional until the first successful open (a down node
cannot be asked): the wrapper assumes the mount-time ``num_blocks`` /
``block_size`` and adopts the child's real block count on connect.  A
block-size mismatch at that point is a configuration error and raises.
"""

from __future__ import annotations

import threading
import time

from typing import TYPE_CHECKING

from repro.errors import InvalidArgument, StoreUnavailable
from repro.storage.base import DEFAULT_BLOCK_SIZE, BlockStore

if TYPE_CHECKING:
    from repro.storage.spec import SpecLike

#: Seconds to wait after a failed open before trying the child again.
DEFAULT_RETRY_INTERVAL = 1.0


class LazyBlockStore(BlockStore):
    """Defer and retry opening ``uri`` until the backend is reachable.

    ``uri`` may also be a :class:`~repro.storage.spec.StoreSpec` —
    programmatic-only topologies have no URI form, and ``open_store``
    accepts either.
    """

    scheme = "lazy"

    def __init__(self, uri: SpecLike, num_blocks: int = 16384,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 retry_interval: float = DEFAULT_RETRY_INTERVAL):
        super().__init__(num_blocks, block_size)
        self.uri = uri
        #: Short human name for messages (spec objects repr verbosely).
        self._label = uri if isinstance(uri, str) else (
            f"<{type(uri).__name__}>"
        )
        self.retry_interval = retry_interval
        self.reconnects = 0
        self._child: BlockStore | None = None
        self._next_attempt = 0.0  # monotonic deadline for the next try
        self._closed = False
        # Concurrent fan-out (replica lanes racing a read against a
        # background write) may hit a down child from two threads at
        # once; serialize open/reopen so exactly one connection results.
        self._connect_lock = threading.Lock()

    # -- connection management ---------------------------------------------

    @property
    def connected(self) -> bool:
        return self._child is not None

    def try_connect(self) -> bool:
        """Attempt to open the child now; False if it is unreachable."""
        try:
            self._ensure()
            return True
        except StoreUnavailable:
            return False

    def _ensure(self) -> BlockStore:
        with self._connect_lock:
            if self._closed:
                raise InvalidArgument(f"lazy store {self._label} is closed")
            if self._child is not None:
                return self._child
            now = time.monotonic()
            if now < self._next_attempt:
                raise StoreUnavailable(
                    f"{self._label} is down (next retry in "
                    f"{self._next_attempt - now:.1f}s)"
                )
            from repro.storage.registry import open_store

            try:
                child = open_store(self.uri, num_blocks=self.num_blocks,
                                   block_size=self.block_size)
            except StoreUnavailable:
                self._next_attempt = time.monotonic() + self.retry_interval
                raise
            if child.block_size != self.block_size:
                child.close()
                raise InvalidArgument(
                    f"{self._label} has block size {child.block_size}; "
                    f"this mount expected {self.block_size}"
                )
            self.num_blocks = child.num_blocks  # adopt the real geometry
            self._child = child
            self.reconnects += 1
            return child

    def _drop(self) -> None:
        with self._connect_lock:
            child, self._child = self._child, None
            self._next_attempt = time.monotonic() + self.retry_interval
        if child is not None:
            try:
                child.close()
            except Exception:  # a dead child may fail to close cleanly
                pass

    def _forward(self, op):
        child = self._ensure()
        try:
            return op(child)
        except StoreUnavailable:
            self._drop()  # connection is dead; reopen on a later call
            raise

    # -- BlockStore interface ----------------------------------------------

    def _get(self, block_no: int) -> bytes | None:
        return self._forward(lambda c: c.read(block_no))

    def _put(self, block_no: int, data: bytes) -> None:
        self._forward(lambda c: c.write(block_no, data))

    def _get_many(self, block_nos: list[int]) -> list[bytes | None]:
        return self._forward(lambda c: list(c.read_many(block_nos)))

    def _put_many(self, items: list[tuple[int, bytes]]) -> None:
        self._forward(lambda c: c.write_many(items))

    def _contains(self, block_no: int) -> bool:
        return self._forward(lambda c: c._contains(block_no))

    def flush(self) -> None:
        self._forward(lambda c: c.flush())

    def close(self) -> None:
        # Under _connect_lock, or close() can race _ensure(): the swap
        # below could take the slot while _ensure is mid-connect, and the
        # freshly opened child would be resurrected after close (leaked
        # connection on a store the caller believes shut down).
        with self._connect_lock:
            self._closed = True
            child, self._child = self._child, None
        if child is not None:
            child.close()

    def used_blocks(self) -> int:
        return self._forward(lambda c: c.used_blocks())

    def used_block_numbers(self) -> list[int]:
        return self._forward(lambda c: c.used_block_numbers())

    def leaf_stores(self) -> list[BlockStore]:
        return self._child.leaf_stores() if self._child is not None else [self]

    def child_stores(self) -> list[BlockStore]:
        return [self._child] if self._child is not None else []

    def capabilities(self):
        from repro.storage.base import Capabilities

        if self._child is not None:
            child_caps = self._child.capabilities()
            return Capabilities(
                thread_safe=False,
                durable=child_caps.durable,
                networked=child_caps.networked,
                composite=True,
            )
        # Down children are almost always remote nodes; claim nothing
        # beyond the composite wrapper until the child connects.
        return Capabilities(composite=True)

    def _extra_stats(self) -> dict[str, float]:
        return {
            "reconnects": self.reconnects,
            "connected": 1.0 if self.connected else 0.0,
        }

    def describe(self) -> str:
        state = "up" if self.connected else "DOWN"
        return f"lazy({state}) over {self._label}"
