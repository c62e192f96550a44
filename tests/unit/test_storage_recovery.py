"""Crash recovery: the journal:// write-ahead log and lazy replica mounts.

Covers the journaling contract (ordered mode: runs in place and flushed,
isolated blocks group-committed and fsynced before the child, the
stale-replay checkpoint; replay of committed-but-unapplied records,
torn-tail discard, capped checkpointing, ``journal-inspect``), the
real-crash case — a writer SIGKILLed mid-``write_many`` whose
acknowledged batches must all survive reopen — and the lazy-connect
wrapper that lets ``replica://remote://...`` mount with a node down and
heal it on reconnect.  Tests of the log's mechanics write scattered
(stride-2) blocks or use a ``mem://`` child, so every block is logged.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.errors import InvalidArgument, StoreUnavailable
from repro.storage import (
    JournalBlockStore,
    LazyBlockStore,
    MemoryBlockStore,
    inspect_journal,
    open_store,
)

BLOCKS = 512
BS = 512


def journal_of(store: JournalBlockStore) -> str:
    return store.journal_path


# ---------------------------------------------------------------------------
# Journal mechanics
# ---------------------------------------------------------------------------


class TestGroupCommit:
    def test_one_fsync_per_batch_not_per_block(self, tmp_path):
        s = open_store(f"journal://file://{tmp_path}/gc.img",
                       num_blocks=BLOCKS, block_size=BS)
        baseline = s.journal_stats.fsyncs
        s.write_many([(2 * i, b"batched") for i in range(32)])
        assert s.journal_stats.fsyncs == baseline + 1  # group commit
        assert s.journal_stats.transactions == 1
        assert s.journal_stats.blocks_journaled == 32
        for i in range(32):
            s.write(100 + i, b"one by one")
        assert s.journal_stats.fsyncs == baseline + 1 + 32
        s.close()

    def test_journal_is_written_before_the_child(self, tmp_path):
        """The WAL invariant: when the child sees a write, the log
        already holds its committed record."""
        order = []

        class Spy(MemoryBlockStore):
            def _put_many(self, items):
                order.append(("child", len(items)))
                super()._put_many(items)

        child = Spy(BLOCKS, BS)
        s = JournalBlockStore(child, str(tmp_path / "spy.journal"))
        real_append = s._append_transaction

        def logging_append(items):
            order.append(("journal", len(items)))
            real_append(items)

        s._append_transaction = logging_append
        s.write_many([(1, b"a"), (2, b"b")])
        assert order == [("journal", 2), ("child", 2)]
        s.close()

    def test_flush_checkpoints_and_truncates(self, tmp_path):
        s = open_store(f"journal://file://{tmp_path}/cp.img",
                       num_blocks=BLOCKS, block_size=BS)
        s.write_many([(2 * i, b"x") for i in range(8)])
        assert s.pending_transactions == 1
        grown = os.path.getsize(journal_of(s))
        s.flush()
        assert s.pending_transactions == 0
        assert os.path.getsize(journal_of(s)) < grown  # truncated to header
        assert s.journal_stats.checkpoints == 1
        assert s.read(6).startswith(b"x")
        s.close()

    def test_cap_forces_automatic_checkpoint(self, tmp_path):
        s = open_store(f"journal://file://{tmp_path}/cap.img#cap=4",
                       num_blocks=BLOCKS, block_size=BS)
        for i in range(9):
            s.write(i, b"y")
        assert s.journal_stats.auto_checkpoints == 2  # at txn 4 and 8
        assert s.pending_transactions == 1
        s.close()

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(InvalidArgument, match="cap"):
            open_store(f"journal://file://{tmp_path}/bad.img#cap=0")

    def test_journal_path_must_be_derivable(self):
        with pytest.raises(InvalidArgument, match="path"):
            open_store("journal://mem://")
        with pytest.raises(InvalidArgument, match="child URI"):
            open_store("journal://")


class TestOrderedMode:
    class Spy(MemoryBlockStore):
        """A durable child that records what reaches it, in order."""

        durable = True

        def __init__(self, order):
            super().__init__(BLOCKS, BS)
            self.order = order

        def _put_many(self, items):
            self.order.append(("child", [b for b, _ in items]))
            super()._put_many(items)

        def flush(self):
            self.order.append(("flush",))

    def _spied(self, tmp_path, order):
        s = JournalBlockStore(self.Spy(order), str(tmp_path / "spy.journal"))
        real_append = s._append_transaction

        def logging_append(items):
            order.append(("journal", [b for b, _ in items]))
            real_append(items)

        s._append_transaction = logging_append
        return s

    def test_neighbours_go_in_place_and_the_isolated_block_is_logged(
            self, tmp_path):
        order = []
        s = self._spied(tmp_path, order)
        s.write_many([(4, b"four"), (5, b"five"), (9, b"nine")])
        # The run is durable in the child before anything is logged.
        assert order == [("child", [4, 5]), ("flush",),
                         ("journal", [9]), ("child", [9])]
        assert s.journal_stats.blocks_in_place == 2
        assert s.journal_stats.blocks_journaled == 1
        assert s.snapshot().extra["blocks_in_place"] == 2
        assert inspect_journal(journal_of(s)).committed_blocks == 1
        assert [s.read(b)[:4] for b in (4, 5, 9)] == [b"four", b"five",
                                                      b"nine"]
        s.close()

    def test_duplicates_in_a_batch_keep_the_last_write(self, tmp_path):
        order = []
        s = self._spied(tmp_path, order)
        s.write_many([(4, b"old"), (5, b"five"), (4, b"new")])
        assert order == [("child", [4, 5]), ("flush",)]
        assert s.read(4).startswith(b"new")
        s.close()

    def test_run_over_a_logged_block_checkpoints_first(self, tmp_path):
        """Replay must never put the logged image of block 5 back over
        the run that overwrote it in place."""
        uri = f"journal://file://{tmp_path}/stale.img"
        s = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        s.write(5, b"logged")
        assert s.pending_transactions == 1
        s.write_many([(5, b"in place"), (6, b"in place")])
        assert s.journal_stats.checkpoints == 1
        assert inspect_journal(journal_of(s)).committed == 0
        s.abandon()
        reopened = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        assert reopened.journal_stats.replayed_blocks == 0
        assert reopened.read(5).startswith(b"in place")
        reopened.close()

    def test_run_clear_of_the_log_does_not_checkpoint(self, tmp_path):
        s = open_store(f"journal://file://{tmp_path}/clear.img",
                       num_blocks=BLOCKS, block_size=BS)
        s.write(5, b"logged")
        s.write_many([(7, b"run"), (8, b"run")])
        assert s.journal_stats.checkpoints == 0
        assert s.pending_transactions == 1
        s.close()

    def test_flushing_an_empty_log_issues_no_log_fsync(self, tmp_path):
        s = open_store(f"journal://file://{tmp_path}/empty.img",
                       num_blocks=BLOCKS, block_size=BS)
        fsyncs = s.journal_stats.fsyncs
        size = os.path.getsize(journal_of(s))
        s.write_many([(i, b"run") for i in range(8)])  # in place, unlogged
        child_fsyncs = s.child.stats.fsyncs
        s.flush()
        assert s.journal_stats.fsyncs == fsyncs
        assert s.journal_stats.checkpoints == 0
        assert s.child.stats.fsyncs == child_fsyncs + 1  # the child flushed
        assert os.path.getsize(journal_of(s)) == size
        s.close()

    def test_a_child_that_is_not_durable_logs_everything(self, tmp_path):
        from repro.storage import CachedBlockStore, FileBlockStore

        # mem:// keeps nothing; cached:// buffers a durable file://.
        for child in (MemoryBlockStore(BLOCKS, BS),
                      CachedBlockStore(FileBlockStore(
                          str(tmp_path / "leaf.img"), BLOCKS, BS))):
            s = JournalBlockStore(child, str(tmp_path / "nd.journal"))
            s.write_many([(i, b"run") for i in range(8)])
            assert s.journal_stats.blocks_in_place == 0
            assert s.journal_stats.blocks_journaled == 8
            s.close()


class TestConcurrentWriters:
    def test_threaded_writers_never_garble_the_log(self, tmp_path):
        """``store-serve --backend journal://...`` dispatches each client
        on its own thread; interleaved appends must stay serialized or
        replay sees a torn record mid-log."""
        import threading

        uri = f"journal://file://{tmp_path}/threads.img#cap=100000"
        s = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        errors: list[Exception] = []

        def worker(base: int) -> None:
            try:
                for i in range(25):
                    s.write_many([(base + i, b"T%d" % (base + i))])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(base,))
                   for base in (0, 100, 200, 300)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        info = inspect_journal(journal_of(s))
        assert info.torn_offset is None
        assert info.committed == 100
        for base in (0, 100, 200, 300):
            for i in range(25):
                assert s.read(base + i).startswith(b"T%d" % (base + i))
        s.close()


class TestReplay:
    def test_committed_records_replay_into_the_child(self, tmp_path):
        """A mem:// child loses everything on a crash; reopen must
        rebuild it entirely from the log."""
        uri = f"journal://mem://#path={tmp_path}/replay.journal"
        s = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        s.write_many([(i, f"gen1-{i}".encode()) for i in range(16)])
        s.write_many([(i, f"gen2-{i}".encode()) for i in range(8)])
        s.abandon()  # crash: no checkpoint, child state is gone

        reopened = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        assert reopened.journal_stats.replayed_transactions == 2
        assert reopened.journal_stats.replayed_blocks == 16
        for i in range(8):
            assert reopened.read(i).startswith(f"gen2-{i}".encode())
        for i in range(8, 16):
            assert reopened.read(i).startswith(f"gen1-{i}".encode())
        # Replay checkpointed: the log is empty again.
        assert reopened.pending_transactions == 0
        reopened.close()

    def test_replay_is_idempotent(self, tmp_path):
        """A crash *during* replay (after apply, before truncate) just
        replays again: applying committed block images twice is a no-op."""
        uri = f"journal://file://{tmp_path}/idem.img"
        s = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        s.write_many([(i, b"stable") for i in range(4)])
        log = journal_of(s)
        pre_crash = open(log, "rb").read()
        s.abandon()

        for _ in range(3):  # replay, then force the same log back, again
            reopened = open_store(uri, num_blocks=BLOCKS, block_size=BS)
            for i in range(4):
                assert reopened.read(i).startswith(b"stable")
            reopened.abandon()
            with open(log, "wb") as f:
                f.write(pre_crash)

    def test_torn_tail_is_discarded(self, tmp_path):
        uri = f"journal://mem://#path={tmp_path}/torn.journal"
        s = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        s.write(1, b"committed")
        s.abandon()
        with open(journal_of(s), "ab") as f:
            f.write(b"\x00\x00\x01\x00partial-record-cut-by-crash")

        reopened = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        assert reopened.journal_stats.torn_bytes > 0
        assert reopened.journal_stats.replayed_transactions == 1
        assert reopened.read(1).startswith(b"committed")
        reopened.close()

    def test_data_without_commit_marker_is_not_applied(self, tmp_path):
        """Strip the trailing COMMIT record: the batch was never
        acknowledged, so replay must not apply it."""
        uri = f"journal://mem://#path={tmp_path}/nocommit.journal"
        s = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        s.write(1, b"acked")
        size_before_txn2 = os.path.getsize(journal_of(s))
        s.write(2, b"never acked")
        s.abandon()
        # A COMMIT record is 17 bytes (header + crc, empty payload);
        # truncating it leaves txn 2 as DATA-without-COMMIT.
        with open(journal_of(s), "r+b") as f:
            f.truncate(os.path.getsize(journal_of(s)) - 17)
        info = inspect_journal(journal_of(s))
        assert info.committed == 1
        assert info.uncommitted == [2]

        reopened = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        assert reopened.read(1).startswith(b"acked")
        assert reopened.read(2) == bytes(BS)  # not applied
        reopened.close()

    def test_corrupted_record_truncates_recovery_there(self, tmp_path):
        uri = f"journal://mem://#path={tmp_path}/bitrot.journal"
        s = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        s.write(1, b"first")
        offset_txn2 = os.path.getsize(journal_of(s))
        s.write(2, b"second")
        s.abandon()
        raw = bytearray(open(journal_of(s), "rb").read())
        raw[offset_txn2 + 20] ^= 0xFF  # flip a payload byte of txn 2
        with open(journal_of(s), "wb") as f:
            f.write(raw)
        info = inspect_journal(journal_of(s))
        assert info.committed == 1
        assert info.torn_offset == offset_txn2

        reopened = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        assert reopened.read(1).startswith(b"first")
        assert reopened.read(2) == bytes(BS)
        reopened.close()

    def test_block_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bs.journal"
        open_store(f"journal://mem://#path={path}", block_size=512).abandon()
        with pytest.raises(InvalidArgument, match="block"):
            open_store(f"journal://mem://#path={path}", block_size=1024)

    def test_non_journal_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-journal"
        path.write_bytes(b"this is sixteen+ bytes of not-journal")
        with pytest.raises(InvalidArgument, match="journal"):
            open_store(f"journal://mem://#path={path}")
        with pytest.raises(InvalidArgument, match="journal"):
            inspect_journal(str(path))


class TestInspect:
    def test_inspect_reports_committed_and_clean_tail(self, tmp_path):
        s = open_store(f"journal://file://{tmp_path}/ins.img",
                       num_blocks=BLOCKS, block_size=BS)
        s.write_many([(2 * i, b"a") for i in range(3)])
        s.write(9, b"b")
        info = inspect_journal(journal_of(s))
        assert info.block_size == BS
        assert info.committed == 2
        assert info.committed_blocks == 4
        assert info.uncommitted == []
        assert info.torn_offset is None
        kinds = [r.kind_name for r in info.records]
        assert kinds == ["data", "commit", "data", "commit"]
        s.close()

    def test_cli_journal_inspect(self, tmp_path, capsys):
        from repro.cli import main

        s = open_store(f"journal://file://{tmp_path}/cli.img",
                       num_blocks=BLOCKS, block_size=BS)
        s.write_many([(2 * i, b"cli") for i in range(5)])
        s.abandon()
        with open(journal_of(s), "ab") as f:
            f.write(b"torn!")
        assert main(["journal-inspect", journal_of(s), "--records"]) == 0
        out = capsys.readouterr().out
        assert "committed  : 1 transaction(s) (5 blocks)" in out
        assert "seq=1" in out and "data" in out and "commit" in out
        assert "torn tail  : 5 byte(s)" in out

    def test_cli_rejects_non_journal(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "garbage"
        path.write_bytes(b"x" * 64)
        assert main(["journal-inspect", str(path)]) == 1
        assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The real thing: SIGKILL a writer mid-write_many, reopen, verify
# ---------------------------------------------------------------------------

#: Slot offsets one batch writes inside its 12-slot window: a run of four
#: (written in place) and four isolated slots (logged), so a kill can
#: land inside either path.
_OFFSETS = (0, 1, 2, 3, 5, 7, 9, 11)
_WINDOWS = 40  # 480 slots, then the batches wrap around and overwrite


def _slots(batch: int) -> list[int]:
    return [(batch % _WINDOWS) * 12 + off for off in _OFFSETS]


_WRITER = r"""
import sys
from repro.storage import open_store

uri = sys.argv[1]
store = open_store(uri, num_blocks=512, block_size=512)
batch = 0
while True:
    slots = [(batch %% %d) * 12 + off for off in %r]
    store.write_many([(slot, b"b%%d-s%%d" %% (batch, slot)) for slot in slots])
    # write_many returns only once the run is flushed and the log is
    # fsynced, so every printed ACK is durable.
    print("ACK %%d" %% batch, flush=True)
    batch += 1
""" % (_WINDOWS, _OFFSETS)


class TestCrashRecoverySubprocess:
    def test_sigkill_mid_write_recovers_every_acknowledged_batch(self, tmp_path):
        """Kill a writer hammering journal://file:// and verify that
        every batch it acknowledged before dying is intact after
        replay, and that a torn trailing record never poisons the log."""
        uri = f"journal://file://{tmp_path}/crash.img"
        env = dict(os.environ)
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", _WRITER, uri],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        acked = -1
        try:
            deadline = time.monotonic() + 30
            while acked < 10:
                line = proc.stdout.readline()
                assert line, "writer died before producing 10 batches"
                assert time.monotonic() < deadline, "writer too slow"
                acked = int(line.split()[1])
        finally:
            proc.kill()  # SIGKILL: no atexit, no flush, no checkpoint
            proc.wait()
        proc.stdout.close()

        # The log must parse (committed prefix + at most a torn tail).
        info = inspect_journal(f"{tmp_path}/crash.img.journal")
        assert info.committed >= acked + 1

        reopened = open_store(uri, num_blocks=512, block_size=512)
        assert reopened.journal_stats.replayed_transactions >= acked + 1
        # Every slot an acknowledged batch wrote holds a well-formed
        # image — the last acknowledged batch's or a later one's
        # (overwrites, in flight), never zeros, never a torn half-write
        # and never an older batch's — on the run slots and the logged
        # slots alike.
        last_acked = {slot: batch for batch in range(acked + 1)
                      for slot in _slots(batch)}
        for slot, batch in sorted(last_acked.items()):
            text = reopened.read(slot).rstrip(b"\x00").decode()
            assert text.endswith(f"-s{slot}"), (slot, text[:32])
            assert text.startswith("b"), (slot, text[:32])
            assert int(text[1:text.index("-")]) >= batch, (slot, text[:32])
        reopened.close()


# ---------------------------------------------------------------------------
# Lazy connect: mount with a node down, heal on reconnect
# ---------------------------------------------------------------------------


def _reserve_endpoint():
    """Bind-and-release a listener so its (host, port) is down but
    rebindable (SO_REUSEADDR on the server side)."""
    from repro.storage.net import serve_store

    probe = serve_store(MemoryBlockStore(BLOCKS, BS))
    host, port = probe.address
    probe.close()
    return host, port


class TestLazyConnect:
    def test_lazy_store_connects_on_first_use(self):
        s = open_store("lazy://mem://", num_blocks=BLOCKS, block_size=BS)
        assert s.connected  # registry factory connects eagerly when it can
        s.write(1, b"through the wrapper")
        assert s.read(1).startswith(b"through")
        s.close()

    def test_down_child_raises_until_it_heals(self):
        from repro.storage.net import serve_store

        backing = MemoryBlockStore(BLOCKS, BS)
        host, port = _reserve_endpoint()
        s = open_store(f"lazy://remote://{host}:{port}#retry=0",
                       num_blocks=BLOCKS, block_size=BS)
        assert not s.connected
        with pytest.raises(StoreUnavailable):
            s.read(0)
        server = serve_store(backing, host=host, port=port)
        try:
            s.write(1, b"after heal")
            assert s.connected
            assert backing.read(1).startswith(b"after heal")
        finally:
            s.close()
            server.close()

    def test_backoff_suppresses_reconnect_storms(self):
        host, port = _reserve_endpoint()
        s = LazyBlockStore(f"remote://{host}:{port}", num_blocks=BLOCKS,
                           block_size=BS, retry_interval=3600.0)
        with pytest.raises(StoreUnavailable):
            s.read(0)
        # Second failure comes from the backoff gate, not a new connect.
        with pytest.raises(StoreUnavailable, match="retry"):
            s.read(0)
        s.close()

    def test_close_waits_for_inflight_connect(self, monkeypatch):
        """Regression: close() racing a concurrent _ensure() must not
        resurrect the freshly opened child.  close() used to swap the
        child slot without _connect_lock, so a connect already past the
        closed-check would install its child *after* the swap — a live
        connection leaked on a store the caller believes shut down."""
        import threading

        from repro.storage import registry

        class TrackedStore(MemoryBlockStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.close_calls = 0

            def close(self):
                self.close_calls += 1
                super().close()

        child = TrackedStore(BLOCKS, BS)
        connect_started = threading.Event()
        release_connect = threading.Event()

        def slow_open(uri, **kwargs):
            connect_started.set()
            assert release_connect.wait(timeout=10)
            return child

        monkeypatch.setattr(registry, "open_store", slow_open)
        s = LazyBlockStore("mem://", num_blocks=BLOCKS, block_size=BS)

        def reader():
            try:
                s.read(0)
            except Exception:
                pass  # a read losing the race to close() may fail; fine

        t = threading.Thread(target=reader)
        t.start()
        assert connect_started.wait(timeout=10)
        # The connect is in flight, holding _connect_lock.  close() must
        # queue behind it rather than swap the (still-empty) slot now.
        closer = threading.Thread(target=s.close)
        closer.start()
        release_connect.set()
        t.join(timeout=10)
        closer.join(timeout=10)
        assert not t.is_alive() and not closer.is_alive()
        assert s._child is None, "child resurrected after close()"
        assert child.close_calls >= 1, "freshly opened child leaked"
        with pytest.raises(InvalidArgument):
            s.read(0)  # closed stays closed

    def test_replica_mounts_with_one_node_down_and_heals(self):
        """Acceptance: replica://remote://h1;h2;h3#w=2&r=2 mounts with a
        node down, serves through the outage, and heals the node when it
        reconnects."""
        from repro.storage.net import serve_store

        live1 = serve_store(MemoryBlockStore(BLOCKS, BS))
        live2 = serve_store(MemoryBlockStore(BLOCKS, BS))
        down_backing = MemoryBlockStore(BLOCKS, BS)
        host3, port3 = _reserve_endpoint()
        uri = ("replica://remote://%s:%d;remote://%s:%d;remote://%s:%d"
               "#w=2&r=2" % (*live1.address, *live2.address, host3, port3))
        rep = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        try:
            lazy = rep.children[2]
            assert isinstance(lazy, LazyBlockStore)
            assert not lazy.connected

            rep.write(1, b"written during the outage")
            # The write returns at quorum W=2; the down child's failure
            # may still be in flight on its lane — drain so the
            # degraded-write count is settled before asserting.
            rep.drain()
            assert rep.replica_stats.degraded_writes >= 1
            assert rep.read(1).startswith(b"written during")

            # Node 3 returns on the same endpoint.
            revived = serve_store(down_backing, host=host3, port=port3)
            try:
                lazy.retry_interval = 0.0
                lazy._next_attempt = 0.0
                # The next read sees node 3 lagging and repairs it.
                assert rep.read(1).startswith(b"written during")
                assert rep.replica_stats.repaired_blocks >= 1
                assert down_backing.read(1).startswith(b"written during")
                assert lazy.connected
            finally:
                revived.close()
        finally:
            rep.close()
            live1.close()
            live2.close()

    def test_explicit_lazy_child_in_replica_uri(self):
        """lazy:// composes by hand too (no auto-wrap needed)."""
        rep = open_store("replica://lazy://mem://;mem://#w=1&r=1",
                         num_blocks=BLOCKS, block_size=BS)
        rep.write(0, b"both forms work")
        assert rep.read(0).startswith(b"both forms")
        rep.close()


# ---------------------------------------------------------------------------
# FFS + persist over journal:// — the end-to-end durability story
# ---------------------------------------------------------------------------


class TestFilesystemOnJournal:
    def test_checkpointed_fs_survives_abandon(self, tmp_path):
        from repro.fs import persist
        from repro.fs.ffs import FFS
        from repro.storage import StoreBlockDevice, open_device

        uri = f"journal://file://{tmp_path}/fs.img"
        store = open_store(uri, num_blocks=2048)
        fs = FFS(StoreBlockDevice(store, uri=uri))
        fs.write_file("/durable.txt", b"acknowledged and journaled")
        persist.sync(fs)   # flushes -> checkpoint + truncate
        fs.write_file("/extra.txt", b"journaled but not checkpointed")
        store.abandon()    # crash

        restored = persist.load(open_device(uri))
        assert restored.read_file("/durable.txt") == \
            b"acknowledged and journaled"
        restored.device.close()


# ---------------------------------------------------------------------------
# Replica version-stamp persistence (#stamps=PATH)
# ---------------------------------------------------------------------------


class TestStampPersistence:
    """Version stamps survive a restart, so last-write-wins read-repair
    still knows which replica is stale after the process reopens the
    same children (the ROADMAP follow-up to read-repair)."""

    def _uri(self, tmp_path, stamps=True):
        base = f"replica://3/failing://file://{tmp_path}/r-{{i}}.img#w=2&r=1"
        return base + f"&stamps={tmp_path}/stamps.json" if stamps else base

    def _write_with_node2_down(self, tmp_path, stamps=True):
        """Session one: node 2 is down for the whole write burst."""
        rep = open_store(self._uri(tmp_path, stamps), num_blocks=BLOCKS,
                         block_size=BS)
        try:
            rep.children[2].fail()
            rep.write_many([(b, b"stamped-%d" % b) for b in range(8)])
            rep.flush()  # quorum ok (2/3) + stamps sidecar written
        finally:
            rep.close()

    def test_repair_after_restart_with_stamps(self, tmp_path):
        self._write_with_node2_down(tmp_path)

        rep = open_store(self._uri(tmp_path), num_blocks=BLOCKS,
                         block_size=BS)
        try:
            # All three children are up again; the reloaded stamps say
            # node 2 never acknowledged these blocks.
            for b in range(8):
                assert rep.read(b).startswith(b"stamped-%d" % b)
            rep.drain()
            assert rep.replica_stats.repaired_blocks >= 8
        finally:
            rep.close()
        healed = open_store(f"file://{tmp_path}/r-2.img",
                            num_blocks=BLOCKS, block_size=BS)
        try:
            for b in range(8):
                assert healed.read(b).startswith(b"stamped-%d" % b)
        finally:
            healed.close()

    def test_without_stamps_restart_presumes_fresh(self, tmp_path):
        """The control: no sidecar means a reopened layer cannot see the
        divergence, so nothing is repaired — exactly the gap stamps
        close."""
        self._write_with_node2_down(tmp_path, stamps=False)

        rep = open_store(self._uri(tmp_path, stamps=False),
                         num_blocks=BLOCKS, block_size=BS)
        try:
            for b in range(8):
                rep.read(b)
            rep.drain()
            assert rep.replica_stats.repaired_blocks == 0
        finally:
            rep.close()

    @pytest.mark.parametrize("garbage", [
        "{not json",            # unparsable
        "[]",                   # valid JSON, wrong top-level shape
        '{"format": 1, "clock": "x", "children": [1, 2, 3]}',  # wrong leaves
    ])
    def test_corrupt_sidecar_is_ignored(self, tmp_path, garbage):
        self._write_with_node2_down(tmp_path)
        with open(f"{tmp_path}/stamps.json", "w") as f:
            f.write(garbage)
        rep = open_store(self._uri(tmp_path), num_blocks=BLOCKS,
                         block_size=BS)
        try:
            assert rep.read(0).startswith(b"stamped-0")
        finally:
            rep.close()

    def test_mismatched_child_count_is_ignored(self, tmp_path):
        self._write_with_node2_down(tmp_path)
        two = open_store(
            f"replica://file://{tmp_path}/r-0.img;file://{tmp_path}/r-1.img"
            f"#w=1&r=1&stamps={tmp_path}/stamps.json",
            num_blocks=BLOCKS, block_size=BS,
        )
        try:
            # 3-child stamps against a 2-child mount: presumed fresh,
            # not misapplied.
            assert two.read(0).startswith(b"stamped-0")
            two.drain()
            assert two.replica_stats.repaired_blocks == 0
        finally:
            two.close()

    def test_stamps_update_across_generations(self, tmp_path):
        """A second session's writes advance the persisted clock, so a
        third session repairs to the *newest* generation."""
        self._write_with_node2_down(tmp_path)

        rep = open_store(self._uri(tmp_path), num_blocks=BLOCKS,
                         block_size=BS)
        try:
            rep.children[2].fail()  # down again for generation two
            rep.write(0, b"generation-two")
            rep.flush()
        finally:
            rep.close()

        rep = open_store(self._uri(tmp_path), num_blocks=BLOCKS,
                         block_size=BS)
        try:
            assert rep.read(0).startswith(b"generation-two")
            rep.drain()
        finally:
            rep.close()
        healed = open_store(f"file://{tmp_path}/r-2.img",
                            num_blocks=BLOCKS, block_size=BS)
        try:
            assert healed.read(0).startswith(b"generation-two")
        finally:
            healed.close()


class TestCloseReleasesResources:
    """close() must release the journal fd and the child even when the
    final checkpoint fails — otherwise a flaky child at shutdown leaks
    the WAL fd and leaves the child dangling (and a later reopen of the
    same journal path replays into it anyway, so holding on buys
    nothing)."""

    class _FlushBoom(MemoryBlockStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.closed = False

        def flush(self):
            raise StoreUnavailable("child flush failed at shutdown")

        def close(self):
            self.closed = True
            super().close()

    def test_close_releases_fd_and_child_when_checkpoint_fails(
            self, tmp_path):
        child = self._FlushBoom(BLOCKS, BS)
        journal = JournalBlockStore(child, str(tmp_path / "boom.journal"))
        journal.write(0, b"payload")
        with pytest.raises(StoreUnavailable):
            journal.close()  # checkpoint's child.flush raises
        assert journal._fd == -1, "journal fd leaked past close()"
        assert child.closed, "child store was never closed"
        # The log kept its records (checkpoint never truncated), so the
        # write is still recoverable by a reopen.
        recovered = MemoryBlockStore(BLOCKS, BS)
        reopened = JournalBlockStore(recovered,
                                     str(tmp_path / "boom.journal"))
        try:
            assert reopened.read(0).startswith(b"payload")
        finally:
            reopened.close()

    def test_close_is_idempotent_after_failed_close(self, tmp_path):
        child = self._FlushBoom(BLOCKS, BS)
        journal = JournalBlockStore(child, str(tmp_path / "idem2.journal"))
        journal.write(1, b"x")
        with pytest.raises(StoreUnavailable):
            journal.close()
        journal.close()  # fd already released: no EBADF, no re-raise
