"""SQLite-backed block store (``sqlite://<path>``).

Blocks are rows in a ``blocks`` table keyed by block number, with a
``meta`` table recording the geometry so a reopened store recovers the
block size it was created with.  Writes are batched inside a transaction
and committed on :meth:`flush`/:meth:`close` (and every
:data:`COMMIT_EVERY` writes), which keeps the per-block overhead close to
a dict insert while still giving real on-disk durability — the cheapest
"database-grade" backend the ablation can compare against ``file://``.

A single connection is shared across threads (``check_same_thread=False``
with a lock serializing every statement), because ``discfs serve`` hands
each TCP client to its own thread while the store was opened on the main
thread.
"""

from __future__ import annotations

import os
import sqlite3
import threading

from repro.errors import InvalidArgument
from repro.storage.base import DEFAULT_BLOCK_SIZE, BlockStore

#: Commit the write transaction after this many buffered writes.
COMMIT_EVERY = 512


class SQLiteBlockStore(BlockStore):
    """Blocks stored as rows of an SQLite database."""

    scheme = "sqlite"
    thread_safe = True  # every statement runs under an internal lock
    durable = True

    def __init__(
        self, path: str, num_blocks: int = 16384, block_size: int = DEFAULT_BLOCK_SIZE
    ):
        self.path = path
        if path == ":memory:":
            self.durable = False  # instance override: nothing on disk
        if path != ":memory:":
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
        conn = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
        conn.execute("PRAGMA journal_mode=MEMORY")
        conn.execute("PRAGMA synchronous=OFF")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS blocks"
            " (block_no INTEGER PRIMARY KEY, data BLOB NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value INTEGER)"
        )
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'block_size'"
        ).fetchone()
        if row is not None:
            stored_bs = int(row[0])
            if stored_bs != block_size:
                conn.close()
                raise InvalidArgument(
                    f"{path} was created with block size {stored_bs}, "
                    f"not {block_size}"
                )
            stored_blocks = conn.execute(
                "SELECT value FROM meta WHERE key = 'num_blocks'"
            ).fetchone()
            # A reopened store never shrinks below its created capacity.
            num_blocks = max(num_blocks, int(stored_blocks[0]))
        super().__init__(num_blocks, block_size)
        conn.execute(
            "INSERT OR REPLACE INTO meta VALUES ('block_size', ?)", (block_size,)
        )
        conn.execute(
            "INSERT OR REPLACE INTO meta VALUES ('num_blocks', ?)", (num_blocks,)
        )
        self._conn = conn
        self._pending = 0
        self._lock = threading.Lock()
        conn.execute("BEGIN")

    def _require_conn(self) -> sqlite3.Connection:
        if self._conn is None:
            raise InvalidArgument(f"sqlite store {self.path} is closed")
        return self._conn

    def _get(self, block_no: int) -> bytes | None:
        with self._lock:
            row = self._require_conn().execute(
                "SELECT data FROM blocks WHERE block_no = ?", (block_no,)
            ).fetchone()
        return None if row is None else bytes(row[0])

    def _put(self, block_no: int, data: bytes) -> None:
        with self._lock:
            self._require_conn().execute(
                "INSERT OR REPLACE INTO blocks VALUES (?, ?)", (block_no, data)
            )
            self._pending += 1
            if self._pending >= COMMIT_EVERY:
                self._commit_locked()

    def _contains(self, block_no: int) -> bool:
        with self._lock:
            return self._require_conn().execute(
                "SELECT 1 FROM blocks WHERE block_no = ?", (block_no,)
            ).fetchone() is not None

    def _commit_locked(self) -> None:
        self._conn.execute("COMMIT")
        self._conn.execute("BEGIN")
        self._pending = 0

    def flush(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._commit_locked()

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.execute("COMMIT")
                self._conn.close()
                self._conn = None

    def used_blocks(self) -> int:
        with self._lock:
            if self._conn is None:
                return 0
            return int(
                self._conn.execute("SELECT COUNT(*) FROM blocks").fetchone()[0]
            )

    def used_block_numbers(self) -> list[int]:
        with self._lock:
            if self._conn is None:
                return []
            rows = self._conn.execute(
                "SELECT block_no FROM blocks ORDER BY block_no"
            ).fetchall()
        return [int(row[0]) for row in rows]

    def describe(self) -> str:
        return f"sqlite://{self.path}  {self.num_blocks}x{self.block_size}B"
