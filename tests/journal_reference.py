"""The all-logged ``journal://`` write path, kept as an oracle.

This is :class:`repro.storage.journal.JournalBlockStore` as it was
before ordered mode: every block of every batch is appended to the
intent log (one DATA + COMMIT transaction, one ``fsync``) and only then
written to the child; every checkpoint flushes the child and resets the
log, empty or not.  The on-disk format is the shared one, so the record
codec and the scanner are imported rather than copied.

``tests/property/test_prop_journal.py`` runs it beside the ordered-mode
store: the same read-back after close and after crash + reopen, and over
a ``mem://`` child (never durable, so everything is logged) the same log
bytes.
"""

from __future__ import annotations

import os
import threading
import time
import zlib

from repro.errors import InvalidArgument
from repro.storage.base import BlockStore, WrapperBlockStore
from repro.storage.journal import (
    _HEADER,
    _REC,
    _U32,
    DEFAULT_JOURNAL_CAP,
    KIND_COMMIT,
    KIND_DATA,
    MAGIC,
    JournalRecord,
    JournalStats,
    _decode_data,
    _scan,
)


class JournalBlockStore(WrapperBlockStore):
    """Write-ahead journal in front of a durable child store."""

    scheme = "journal"
    descends = True

    def __init__(self, child: BlockStore, journal_path: str,
                 cap: int = DEFAULT_JOURNAL_CAP):
        if cap <= 0:
            raise InvalidArgument("journal cap must be positive")
        super().__init__(child)
        self.thread_safe = child.thread_safe
        self.journal_path = journal_path
        self.cap = cap
        self.journal_stats = JournalStats()
        self._seq = 0
        self._txns_in_log = 0
        self._end = 0
        self._lock = threading.Lock()
        self._fd = os.open(journal_path, os.O_RDWR | os.O_CREAT, 0o600)
        try:
            if os.fstat(self._fd).st_size >= _HEADER.size:
                self._replay()
            else:
                self._reset_log()
        except Exception:
            os.close(self._fd)
            self._fd = -1
            raise

    def _reset_log(self) -> None:
        os.ftruncate(self._fd, 0)
        os.pwrite(self._fd, _HEADER.pack(MAGIC, self.block_size, 0), 0)
        self._fsync()
        self._end = _HEADER.size
        self._seq = 0
        self._txns_in_log = 0

    def _fsync(self) -> None:
        os.fsync(self._fd)
        self.stats.record_fsync()
        self.journal_stats.fsyncs += 1

    def _encode_record(self, kind: int, seq: int, payload: bytes) -> bytes:
        head = _REC.pack(len(payload), seq, kind)
        crc = zlib.crc32(head[4:] + payload)
        return head + payload + _U32.pack(crc)

    def _append_transaction(self, items: list[tuple[int, bytes]]) -> None:
        self._seq += 1
        payload = bytearray(_U32.pack(len(items)))
        for block_no, data in items:
            payload += _U32.pack(block_no)
            payload += data
        rec = (self._encode_record(KIND_DATA, self._seq, bytes(payload))
               + self._encode_record(KIND_COMMIT, self._seq, b""))
        os.pwrite(self._fd, rec, self._end)
        self._fsync()
        self._end += len(rec)
        self._txns_in_log += 1
        self.journal_stats.transactions += 1
        self.journal_stats.blocks_journaled += len(items)

    def _replay(self) -> None:
        started = time.monotonic()
        size = os.fstat(self._fd).st_size
        raw = os.pread(self._fd, size, 0)
        magic, block_size, _reserved = _HEADER.unpack_from(raw)
        if magic != MAGIC:
            raise InvalidArgument(
                f"{self.journal_path} is not a DisCFS journal"
            )
        if block_size != self.block_size:
            raise InvalidArgument(
                f"{self.journal_path} logs {block_size}-byte blocks, "
                f"child uses {self.block_size}"
            )
        buf = raw[_HEADER.size:]
        records, torn_offset = _scan(buf, block_size)
        pending: dict[int, JournalRecord] = {}
        final: dict[int, bytes] = {}
        committed = 0
        for record in records:
            if record.kind == KIND_DATA:
                pending[record.seq] = record
            elif record.seq in pending:
                data_rec = pending.pop(record.seq)
                for block_no, data in _decode_data(buf, data_rec,
                                                   block_size):
                    final[block_no] = data
                committed += 1
        if final:
            self.child.write_many(sorted(final.items()))
        if torn_offset is not None:
            self.journal_stats.torn_bytes = size - torn_offset
        self.journal_stats.replayed_transactions = committed
        self.journal_stats.replayed_blocks = len(final)
        self.child.flush()
        self._reset_log()
        self.journal_stats.replay_seconds = time.monotonic() - started

    def _checkpoint(self, auto: bool = False) -> None:
        self.child.flush()
        self._reset_log()
        self.journal_stats.checkpoints += 1
        if auto:
            self.journal_stats.auto_checkpoints += 1

    @property
    def pending_transactions(self) -> int:
        return self._txns_in_log

    def _require_open(self) -> None:
        if self._fd < 0:
            raise InvalidArgument(
                f"journal store {self.journal_path} is closed"
            )

    def _put(self, block_no: int, data: bytes) -> None:
        self._put_many([(block_no, data)])

    def _put_many(self, items: list[tuple[int, bytes]]) -> None:
        with self._lock:
            self._require_open()
            self._append_transaction(items)
            self.child.write_many(items)
            if self._txns_in_log >= self.cap:
                self._checkpoint(auto=True)

    def _get(self, block_no: int) -> bytes | None:
        return self.child.read(block_no)

    def _get_many(self, block_nos: list[int]) -> list[bytes | None]:
        return list(self.child.read_many(block_nos))

    def flush(self) -> None:
        with self._lock:
            self._require_open()
            self._checkpoint()

    def close(self) -> None:
        try:
            with self._lock:
                if self._fd >= 0:
                    try:
                        self._checkpoint()
                    finally:
                        os.close(self._fd)
                        self._fd = -1
        finally:
            self.child.close()

    def abandon(self) -> None:
        with self._lock:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1
