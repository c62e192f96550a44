"""In-memory block store (``mem://``) — the default for tests and benches."""

from __future__ import annotations

from repro.storage.base import DEFAULT_BLOCK_SIZE, BlockStore


class MemoryBlockStore(BlockStore):
    """Blocks live in a dict; unwritten blocks read as zeros."""

    scheme = "mem"
    thread_safe = True  # dict get/set are GIL-atomic

    def __init__(self, num_blocks: int = 16384, block_size: int = DEFAULT_BLOCK_SIZE):
        super().__init__(num_blocks, block_size)
        self._blocks: dict[int, bytes] = {}

    def _get(self, block_no: int) -> bytes | None:
        return self._blocks.get(block_no)

    def _put(self, block_no: int, data: bytes) -> None:
        self._blocks[block_no] = data

    def used_blocks(self) -> int:
        return len(self._blocks)

    def used_block_numbers(self) -> list[int]:
        return sorted(self._blocks)
