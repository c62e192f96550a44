"""The block device FFS runs on: one :class:`BlockStore` stack.

:func:`~repro.storage.registry.open_device` builds one from a URI or
spec; ``FFS(device)`` takes it.  The device keeps its own stats — what
the bench cost models read via ``fs.device.stats`` — one record per
block FFS moves, while the wrapped store (and any stores *it* wraps)
keep their own per-layer counters.  Range, size and padding are the
store's checks.
"""

from __future__ import annotations

from repro.storage.base import BlockDeviceStats, BlockStore


class StoreBlockDevice:
    """A block device view over any :class:`BlockStore`."""

    def __init__(self, store: BlockStore, uri: str | None = None):
        self.store = store
        self.uri = uri
        self.num_blocks = store.num_blocks
        self.block_size = store.block_size
        self.stats = BlockDeviceStats()

    def read_block(self, block_no: int) -> bytes:
        data = self.store.read(block_no)
        self.stats.record_read(block_no, self.block_size)
        return data

    def write_block(self, block_no: int, data: bytes) -> None:
        self.store.write(block_no, data)
        self.stats.record_write(block_no, self.block_size)

    def read_blocks(self, block_nos: list[int]) -> list[bytes]:
        # Device-level stats stay per-block (the bench cost models read
        # them); the store sees one vectored call it can batch per child
        # or per RPC round trip.
        blocks = self.store.read_many(block_nos)
        for block_no in block_nos:
            self.stats.record_read(block_no, self.block_size)
        return blocks

    def write_blocks(self, items: list[tuple[int, bytes]]) -> None:
        self.store.write_many(items)
        for block_no, _data in items:
            self.stats.record_write(block_no, self.block_size)

    def flush(self) -> None:
        self.store.flush()

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "StoreBlockDevice":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"StoreBlockDevice({self.store.describe()})"
