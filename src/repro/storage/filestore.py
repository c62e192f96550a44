"""Host-file block store (``file://<path>``).

Blocks are laid out at ``block_no * block_size`` in a single host file
(sparse where the OS allows), so a store reopened on the same path sees
the blocks a previous process wrote — the persistence story behind
``discfs serve --backend file:///var/lib/discfs.img``.

Geometry lives in a ``<path>.meta`` sidecar: reopening with a different
block size is rejected (it would silently shift every block), and a
reopened store never shrinks below the capacity it was created with.

Hole detection is explicit: a block is "written" only if this process
wrote it or the block overlaps an allocated data extent of the reopened
file (``SEEK_DATA``/``SEEK_HOLE``), so a hole *below* the file's high
-water mark still reads back as never-written (``None``) rather than as
a zero block that counts as content — the distinction ``replica://``
divergence checks, ``cached://`` introspection and the logical-vs-
physical ablation rely on.  On filesystems without hole information the
scan degrades to the old whole-extent upper bound.
"""

from __future__ import annotations

import errno
import json
import os

from repro.errors import InvalidArgument
from repro.storage.base import DEFAULT_BLOCK_SIZE, BlockStore


class FileBlockStore(BlockStore):
    """Blocks stored in one host file; never-written regions read as zeros."""

    scheme = "file"
    durable = True

    def __init__(
        self, path: str, num_blocks: int = 16384, block_size: int = DEFAULT_BLOCK_SIZE
    ):
        self.path = path
        self._meta_path = path + ".meta"
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if os.path.exists(self._meta_path):
            with open(self._meta_path, "r", encoding="utf-8") as f:
                meta = json.load(f)
            if meta["block_size"] != block_size:
                raise InvalidArgument(
                    f"{path} was created with block size {meta['block_size']}, "
                    f"not {block_size}"
                )
            num_blocks = max(num_blocks, meta["num_blocks"])
        super().__init__(num_blocks, block_size)
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o600)
        self._written = self._scan_written_extents()
        # Rewrite the sidecar atomically, and only once the data file is
        # open: a crash mid-write or an open() failure must never leave a
        # truncated/orphaned meta file that poisons every later open.
        tmp_path = self._meta_path + ".tmp"
        try:
            with open(tmp_path, "w", encoding="utf-8") as f:
                json.dump(
                    {"block_size": block_size, "num_blocks": num_blocks}, f
                )
            os.replace(tmp_path, self._meta_path)
        except OSError:
            os.close(self._fd)
            self._fd = -1
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    def _scan_written_extents(self) -> set[int]:
        """Blocks overlapping the file's allocated data extents.

        ``SEEK_DATA``/``SEEK_HOLE`` skips the holes, so a sparse file
        reopened from a previous run reports only regions that were
        actually written (at filesystem-extent granularity).  Where the
        kernel or filesystem offers no hole information the whole
        ``[0, size)`` range counts as data — the pre-scan behaviour.
        """
        size = os.fstat(self._fd).st_size
        if not hasattr(os, "SEEK_DATA"):  # platform without the API
            return set(range((size + self.block_size - 1) // self.block_size))
        written: set[int] = set()
        pos = 0
        while pos < size:
            try:
                start = os.lseek(self._fd, pos, os.SEEK_DATA)
            except OSError as exc:
                if exc.errno == errno.ENXIO:  # no data at or beyond pos
                    return written
                # SEEK_DATA unsupported here: whole extent counts.
                return set(range((size + self.block_size - 1)
                                 // self.block_size))
            end = os.lseek(self._fd, start, os.SEEK_HOLE)
            if end <= start:  # defensive: never loop forever
                return set(range((size + self.block_size - 1)
                                 // self.block_size))
            written.update(range(start // self.block_size,
                                 (end - 1) // self.block_size + 1))
            pos = end
        return written

    def _get(self, block_no: int) -> bytes | None:
        if block_no not in self._written:
            return None  # a hole, even below the file's high-water mark
        data = os.pread(self._fd, self.block_size, block_no * self.block_size)
        if not data:
            return None
        if len(data) < self.block_size:
            data = data + b"\x00" * (self.block_size - len(data))
        return data

    def _put(self, block_no: int, data: bytes) -> None:
        os.pwrite(self._fd, data, block_no * self.block_size)
        self._written.add(block_no)

    def _contains(self, block_no: int) -> bool:
        return block_no in self._written

    def flush(self) -> None:
        if self._fd >= 0:
            os.fsync(self._fd)
            self.stats.record_fsync()

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def used_blocks(self) -> int:
        """Distinct written blocks (extent-granular for reopened files)."""
        if self._fd < 0:
            return 0
        return len(self._written)

    def used_block_numbers(self) -> list[int]:
        if self._fd < 0:
            return []
        return sorted(self._written)

    def describe(self) -> str:
        return f"file://{self.path}  {self.num_blocks}x{self.block_size}B"
