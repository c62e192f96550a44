"""``journal://`` under enumerated crashes, and against the all-logged oracle.

**Crash points.**  Every child write, child flush, log ``pwrite`` and log
``fsync`` the journal issues while running :data:`SCRIPT` is numbered.
For each number k the script runs again on a fresh store, the power is
cut at the k-th event (it raises :class:`Crash` instead of happening),
and the store is reopened over what a crash may leave: the child's
synced image plus none or all of its unflushed writes, and the log as of
its last ``fsync`` or with every ``pwrite`` kept.  After replay every
block must hold its last acknowledged value — or the value of the write
that was in flight when the power went.  A second crash right after the
replay must change nothing.

**Differential.**  ``tests/journal_reference.py`` is the journal as it
was before ordered mode (every block logged).  For arbitrary sequences of
writes, batches and flushes both stores must read back the same blocks
after ``close`` and after a crash + reopen, and over a ``mem://`` child
(not durable, so nothing goes in place) their logs must be the same
bytes after every operation.

The log file is real; its ``os`` is a stand-in that counts crash points
and remembers the synced bytes instead of paying for ``fsync``.
"""

from __future__ import annotations

import os
import tempfile

import journal_reference as ref  # tests/journal_reference.py
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import MemoryBlockStore
from repro.storage import journal as journal_mod
from repro.storage.base import BlockStore
from repro.storage.journal import JournalBlockStore

BS = 512
BLOCKS = 32
CAP = 4
IMPLS = {"ordered": JournalBlockStore, "reference": ref.JournalBlockStore}
KINDS = {"child write", "child flush", "log pwrite", "log fsync"}


class Crash(Exception):
    """The power cut, raised in place of the I/O event it interrupts."""


class CrashPoints:
    """Numbers the I/O events of one run; the ``at``-th one crashes."""

    def __init__(self) -> None:
        self.at: int | None = None  # None: not counting (setup, replay)
        self.seen: list[str] = []

    def arm(self, at: int) -> None:
        """Count from here on; ``at=0`` counts without ever crashing."""
        self.at, self.seen = at, []

    def tick(self, kind: str) -> None:
        if self.at is None:
            return
        self.seen.append(kind)
        if len(self.seen) == self.at:
            self.at = None
            raise Crash(kind)


class DurableMemory(BlockStore):
    """A durable child in memory: a synced image and a pending overlay.

    ``flush`` moves the overlay into the image; :meth:`crash` keeps the
    image plus none or all of the overlay, as a power cut may.
    """

    durable = True

    def __init__(self, points: CrashPoints) -> None:
        super().__init__(BLOCKS, BS)
        self.points = points
        self.synced: dict[int, bytes] = {}
        self.pending: dict[int, bytes] = {}

    def _get(self, block_no: int) -> bytes | None:
        return self.pending.get(block_no, self.synced.get(block_no))

    def _put(self, block_no: int, data: bytes) -> None:
        self._put_many([(block_no, data)])

    def _put_many(self, items: list[tuple[int, bytes]]) -> None:
        self.points.tick("child write")
        self.pending.update(items)

    def flush(self) -> None:
        self.points.tick("child flush")
        self.synced.update(self.pending)
        self.pending.clear()

    def crash(self, keep_pending: bool) -> None:
        if keep_pending:
            self.synced.update(self.pending)
        self.pending.clear()

    def used_block_numbers(self) -> list[int]:
        return sorted(self.synced.keys() | self.pending.keys())

    def used_blocks(self) -> int:
        return len(self.used_block_numbers())


class LogDisk:
    """``os`` as the journal modules see it.

    Log ``pwrite`` and ``fsync`` are crash points; ``fsync`` records the
    file's bytes instead of syncing, so a crash can put the log back to
    what was durable (its last fsynced length, for an append).
    """

    def __init__(self, points: CrashPoints) -> None:
        self.points = points
        self.synced = b""

    def __getattr__(self, name: str):
        return getattr(os, name)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        self.points.tick("log pwrite")
        return os.pwrite(fd, data, offset)

    def fsync(self, fd: int) -> None:
        self.points.tick("log fsync")
        self.synced = os.pread(fd, os.fstat(fd).st_size, 0)


def _patch_os(mp: pytest.MonkeyPatch, disk: LogDisk) -> None:
    mp.setattr(journal_mod, "os", disk)
    mp.setattr(ref, "os", disk)


#: (operation, blocks); the value written is unique per (step, position).
SCRIPT: list[tuple[str, list[int]]] = [
    ("write", [3]),                     # isolated: logged
    ("write_many", [10, 11, 12]),       # a run: in place
    ("write_many", [4, 5, 9]),          # mixed: 4-5 in place, 9 logged
    ("write", [20]),                    # logged, then overwritten by ...
    ("write_many", [20, 21]),           # ... a run: the stale-replay case
    ("write_many", [7, 8, 7, 15, 15]),  # duplicates, in a run and isolated
    ("flush", []),
    ("flush", []),                      # the log is empty now
    ("write", [30]),
    ("write", [28]),
    ("write", [26]),
    ("write", [24]),                    # CAP-th transaction: checkpoint
    ("write", [3]),
    ("write_many", [2, 3, 17]),         # a run over a logged block + isolated
    ("write_many", [0, 1]),
    ("write", [12]),                    # logged over an in-place block
]


def _items(step: int, blocks: list[int]) -> list[tuple[int, bytes]]:
    return [(b, b"%d:%d:%d" % (step, b, pos)) for pos, b in enumerate(blocks)]


def _apply(store: BlockStore, op: str, items: list[tuple[int, bytes]]) -> None:
    if op == "flush":
        store.flush()
    elif op == "write":
        store.write(*items[0])
    else:
        store.write_many(items)


def _read_all(store: BlockStore) -> list[bytes]:
    return [data.rstrip(b"\0") for data in store.read_many(range(BLOCKS))]


def _cut_power(store, child: DurableMemory, disk: LogDisk, path: str,
               keep_child: bool, keep_log: bool) -> None:
    store.abandon()
    child.crash(keep_child)
    if not keep_log:
        with open(path, "wb") as f:
            f.write(disk.synced)


def _crash_run(impl: str, path: str, points: CrashPoints, disk: LogDisk,
               at: int, keep_child: bool, keep_log: bool) -> list[str]:
    """Run :data:`SCRIPT` with the power cut at event ``at``; reopen and
    return what violates the contract (empty when nothing does)."""
    if os.path.exists(path):
        os.unlink(path)
    child = DurableMemory(points)
    store = IMPLS[impl](child, path, cap=CAP)
    acked: dict[int, bytes] = {}
    inflight: dict[int, bytes] = {}
    points.arm(at)
    try:
        for step, (op, blocks) in enumerate(SCRIPT):
            items = _items(step, blocks)
            inflight = dict(items)
            _apply(store, op, items)
            acked.update(inflight)
            inflight = {}
    except Crash:
        pass
    points.at = None
    _cut_power(store, child, disk, path, keep_child, keep_log)

    where = f"{impl} crash at event {at} ({points.seen[-1]}), " \
            f"child {'all' if keep_child else 'none'} pending, " \
            f"log {'as written' if keep_log else 'as synced'}"
    reopened = IMPLS[impl](child, path, cap=CAP)
    got = _read_all(reopened)
    bad = [
        f"{where}: block {b} reads {data!r}, acked {acked.get(b)!r}, "
        f"in flight {inflight.get(b)!r}"
        for b, data in enumerate(got)
        if data != acked.get(b, b"") and data != inflight.get(b)
    ]
    _cut_power(reopened, child, disk, path, False, False)
    again = IMPLS[impl](child, path, cap=CAP)
    if _read_all(again) != got:
        bad.append(f"{where}: a second crash after replay changed the blocks")
    again.close()
    return bad


@pytest.mark.parametrize("impl", IMPLS)
def test_every_crash_point_keeps_every_acknowledged_write(impl, tmp_path):
    points = CrashPoints()
    disk = LogDisk(points)
    path = str(tmp_path / "crash.journal")
    with pytest.MonkeyPatch.context() as mp:
        _patch_os(mp, disk)
        # A run that never crashes numbers the events and must hold too.
        assert _crash_run(impl, path, points, disk, 0, False, False) == []
        total = len(points.seen)
        assert set(points.seen) == KINDS
        violations: list[str] = []
        for at in range(1, total + 1):
            for keep_child in (False, True):
                for keep_log in (False, True):
                    violations += _crash_run(impl, path, points, disk, at,
                                             keep_child, keep_log)
    assert violations == []


def test_ordered_mode_takes_every_path_of_the_script(tmp_path):
    """The script reaches the rule's branches: runs in place, isolated
    blocks logged, the stale-replay checkpoint and the cap."""
    store = JournalBlockStore(DurableMemory(CrashPoints()),
                              str(tmp_path / "paths.journal"), cap=CAP)
    checkpoints = []
    for step, (op, blocks) in enumerate(SCRIPT):
        before = store.journal_stats.checkpoints
        _apply(store, op, _items(step, blocks))
        checkpoints.append(store.journal_stats.checkpoints - before)
    stats = store.journal_stats
    assert stats.blocks_in_place == 3 + 2 + 2 + 2 + 2 + 2
    assert stats.auto_checkpoints == 1 and checkpoints[11] == 1
    assert checkpoints[4] == 1 and checkpoints[13] == 1  # stale replay
    assert checkpoints[7] == 0  # flushing an empty log is no checkpoint
    store.close()


# ---------------------------------------------------------------------------
# Differential against the all-logged reference
# ---------------------------------------------------------------------------

ops = st.one_of(
    st.tuples(st.just("write"), st.lists(st.integers(0, 15), min_size=1,
                                         max_size=1)),
    st.tuples(st.just("write_many"), st.lists(st.integers(0, 15), min_size=1,
                                              max_size=8)),
    st.tuples(st.just("flush"), st.just([])),
)
scripts = st.lists(ops, max_size=24)


def _run(impl: str, child: BlockStore, path: str, script, cap: int,
         log_bytes: list[bytes] | None = None):
    store = IMPLS[impl](child, path, cap=cap)
    for step, (op, blocks) in enumerate(script):
        _apply(store, op, _items(step, blocks))
        if log_bytes is not None:
            with open(path, "rb") as f:
                log_bytes.append(f.read())
    return store


@settings(max_examples=150, deadline=None)
@given(script=scripts, cap=st.integers(1, 4))
def test_ordered_mode_reads_back_what_the_reference_does(script, cap):
    points = CrashPoints()
    disk = LogDisk(points)
    model: dict[int, bytes] = {}
    for step, (_op, blocks) in enumerate(script):
        model.update(_items(step, blocks))
    want = [model.get(b, b"") for b in range(BLOCKS)]
    with tempfile.TemporaryDirectory() as d, \
            pytest.MonkeyPatch.context() as mp:
        _patch_os(mp, disk)
        for impl in IMPLS:
            # After close: the child alone holds every write.
            child = DurableMemory(points)
            _run(impl, child, f"{d}/{impl}-close", script, cap).close()
            assert _read_all(child) == want, impl

            # After a crash that loses every unflushed child write.
            child = DurableMemory(points)
            path = f"{d}/{impl}-crash"
            store = _run(impl, child, path, script, cap)
            _cut_power(store, child, disk, path, False, False)
            reopened = IMPLS[impl](child, path, cap=cap)
            assert _read_all(reopened) == want, impl
            reopened.close()

        # Over mem:// nothing goes in place: the logs are the same bytes
        # after every operation, so replay into an empty child (all a
        # crash leaves of mem://) rebuilds the same blocks.
        logs: dict[str, list[bytes]] = {}
        replayed: dict[str, list[bytes]] = {}
        for impl in IMPLS:
            logs[impl] = []
            path = f"{d}/{impl}-mem"
            _run(impl, MemoryBlockStore(BLOCKS, BS), path, script, cap,
                 logs[impl]).abandon()
            reopened = IMPLS[impl](MemoryBlockStore(BLOCKS, BS), path, cap=cap)
            replayed[impl] = _read_all(reopened)
            reopened.close()
        assert logs["ordered"] == logs["reference"]
        assert replayed["ordered"] == replayed["reference"]
