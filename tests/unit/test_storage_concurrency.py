"""Concurrency regression suite for the fan-out storage stack.

The concurrent paths (shard fan-out, replica quorum-W writes and racing
reads, pipelined RPC) must be *behaviourally invisible*: the same
answers as the sequential paths, just sooner.  This suite pins that
down:

* seeded random workloads produce identical results through sequential
  and concurrent mounts of the same composite;
* quorum-W writes return at the 2nd-fastest replica while the straggler
  completes on its background lane (and ``drain``/``flush`` wait);
* one pipelined connection serves a mount — sequential and concurrent
  calls alike — re-dials only after it broke, and a closed connection
  really closes (its reader, the server's thread and the socket end);
* one dead/slow node fails its own operations without starving its
  siblings;
* a shard child that fails ``flush``/``close`` no longer prevents its
  siblings from flushing/closing (the first error still propagates).
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from held_store import HeldBlockStore  # tests/held_store.py
from repro.errors import QuorumError, StoreUnavailable, TransportError
from repro.rpc.client import RPCClient
from repro.rpc.transport import PipelinedTCPTransport
from repro.storage import (
    BlockStore,
    DelayedBlockStore,
    FailingBlockStore,
    MemoryBlockStore,
    RemoteBlockStore,
    ReplicatedBlockStore,
    ShardedBlockStore,
    open_store,
    serve_store,
)
from repro.storage.net import BLOCKSTORE_PROGRAM, BLOCKSTORE_VERSION, READ

BLOCKS = 256
BS = 512

pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")


def _seeded_workload(seed: int, ops: int = 40):
    """A deterministic mixed batch workload: (kind, payload) steps."""
    rng = random.Random(seed)
    steps = []
    for _step in range(ops):
        if rng.random() < 0.55:
            count = rng.randint(1, 24)
            steps.append((
                "write",
                [(rng.randrange(BLOCKS),
                  bytes([rng.randrange(256)]) * BS)
                 for _ in range(count)],
            ))
        else:
            count = rng.randint(1, 32)
            steps.append((
                "read",
                [rng.randrange(BLOCKS) for _ in range(count)],
            ))
    return steps


def _apply(store: BlockStore, steps) -> list:
    results = []
    for kind, arg in steps:
        if kind == "write":
            store.write_many(arg)
        else:
            results.append(store.read_many(arg))
    return results


class TestParallelMatchesSequential:
    """Fan-out must never change answers, only latency."""

    @pytest.mark.parametrize("seed", [7, 23, 99])
    def test_shard_fanout_equals_sequential(self, seed):
        sequential = ShardedBlockStore(
            [MemoryBlockStore(BLOCKS, BS) for _ in range(4)], fanout=1)
        concurrent = ShardedBlockStore(
            [MemoryBlockStore(BLOCKS, BS) for _ in range(4)], fanout=4)
        steps = _seeded_workload(seed)
        assert _apply(sequential, steps) == _apply(concurrent, steps)
        # Placement is the same ring: per-child contents must match too.
        for seq_child, conc_child in zip(sequential.children,
                                         concurrent.children):
            assert seq_child.used_blocks() == conc_child.used_blocks()
        sequential.close()
        concurrent.close()

    @pytest.mark.parametrize("seed", [5, 41])
    def test_replica_fanout_equals_sequential(self, seed):
        sequential = ReplicatedBlockStore(
            [MemoryBlockStore(BLOCKS, BS) for _ in range(3)],
            write_quorum=2, read_quorum=2, fanout=1)
        concurrent = ReplicatedBlockStore(
            [MemoryBlockStore(BLOCKS, BS) for _ in range(3)],
            write_quorum=2, read_quorum=2)
        steps = _seeded_workload(seed)
        assert _apply(sequential, steps) == _apply(concurrent, steps)
        concurrent.drain()
        # Every replica converges to identical contents once drained.
        for block_no in range(BLOCKS):
            copies = {
                child._get(block_no) for child in concurrent.children
            }
            assert len(copies) == 1, block_no
        sequential.close()
        concurrent.close()

    def test_shard_of_slow_children_still_correct(self):
        store = ShardedBlockStore(
            [DelayedBlockStore(MemoryBlockStore(BLOCKS, BS), delay_ms=1)
             for _ in range(4)],
            fanout=4,
        )
        payload = b"s" * BS
        store.write_many([(b, payload) for b in range(32)])
        assert store.read_many(list(range(32))) == [payload] * 32
        store.close()


class TestPoolLifetime:
    """Fan-out pools are built with their store, start threads only when
    work is first submitted, and are shut down by ``close()``."""

    def test_sequential_replica_starts_no_lane_thread(self):
        before = set(threading.enumerate())
        store = ReplicatedBlockStore(
            [MemoryBlockStore(64, BS) for _ in range(3)],
            write_quorum=2, read_quorum=2, fanout=1)
        store.write_many([(b, b"q" * BS) for b in range(8)])
        assert store.read_many(list(range(8))) == [b"q" * BS] * 8
        assert set(threading.enumerate()) <= before
        store.close()

    def test_sequential_shard_starts_no_pool_thread(self):
        before = set(threading.enumerate())
        store = ShardedBlockStore(
            [MemoryBlockStore(64, BS) for _ in range(4)], fanout=1)
        store.write_many([(b, b"q" * BS) for b in range(32)])
        assert store.read_many(list(range(32))) == [b"q" * BS] * 32
        assert set(threading.enumerate()) <= before
        store.close()

    def test_replica_close_shuts_down_every_lane(self):
        store = ReplicatedBlockStore(
            [MemoryBlockStore(64, BS) for _ in range(3)],
            write_quorum=2, read_quorum=2)
        store.write_many([(b, b"q" * BS) for b in range(8)])
        store.close()
        for lane in store._lanes:
            with pytest.raises(RuntimeError):
                lane.submit(lambda: None)

    def test_shard_close_shuts_down_the_pool(self):
        store = ShardedBlockStore(
            [MemoryBlockStore(64, BS) for _ in range(4)], fanout=4)
        store.write_many([(b, b"q" * BS) for b in range(32)])
        store.close()
        with pytest.raises(RuntimeError):
            store._executor.submit(lambda: None)


def _held_replica():
    """Two prompt replicas and one held on the test's say-so."""
    held = HeldBlockStore(MemoryBlockStore(64, BS))
    store = ReplicatedBlockStore(
        [MemoryBlockStore(64, BS), MemoryBlockStore(64, BS), held],
        write_quorum=2, read_quorum=2,
    )
    return store, held


class TestQuorumReturn:
    """W-of-n writes return at the W-th fastest replica."""

    def _straggler_store(self, delay_ms: float = 150.0):
        slow = DelayedBlockStore(MemoryBlockStore(64, BS),
                                 delay_ms=delay_ms)
        store = ReplicatedBlockStore(
            [MemoryBlockStore(64, BS), MemoryBlockStore(64, BS), slow],
            write_quorum=2, read_quorum=2,
        )
        return store, slow

    def test_write_returns_before_straggler(self):
        store, held = _held_replica()
        held.hold()
        try:
            store.write_many([(b, b"w" * BS) for b in range(8)])
            # Returned while the third write cannot have landed.
            assert held.child._get(0) is None
            assert store.replica_stats.background_writes == 1
        finally:
            held.release()
        store.drain()
        assert held.child._get(0) == b"w" * BS
        store.close()

    def test_flush_waits_for_straggler(self):
        store, slow = self._straggler_store(delay_ms=60.0)
        store.write_many([(b, b"f" * BS) for b in range(4)])
        store.flush()  # must block until the background write landed
        assert slow.child._get(3) == b"f" * BS
        store.close()

    def test_straggler_order_preserved_per_child(self):
        """Two back-to-back writes to the same block must land in order
        on every replica, even the one that lags both writes."""
        store, slow = self._straggler_store(delay_ms=20.0)
        for round_no in range(5):
            payload = bytes([round_no]) * BS
            store.write_many([(0, payload)])
        store.drain()
        assert slow.child._get(0) == bytes([4]) * BS
        assert store.read(0) == bytes([4]) * BS
        store.close()

    def test_quorum_failure_still_raises(self):
        children = [FailingBlockStore(MemoryBlockStore(64, BS))
                    for _ in range(3)]
        children[0].fail()
        children[1].fail()
        store = ReplicatedBlockStore(children, write_quorum=2,
                                     read_quorum=2)
        with pytest.raises(QuorumError):
            store.write_many([(0, b"x" * BS)])
        store.drain()
        store.close()

    def test_one_node_down_write_succeeds_concurrently(self):
        children = [FailingBlockStore(MemoryBlockStore(64, BS))
                    for _ in range(3)]
        children[2].fail()
        store = ReplicatedBlockStore(children, write_quorum=2,
                                     read_quorum=2)
        store.write_many([(b, b"d" * BS) for b in range(8)])
        assert store.read_many(list(range(8))) == [b"d" * BS] * 8
        assert store.replica_stats.degraded_writes >= 1
        store.close()


def _wait_for_threads_to_end(before: set, timeout: float = 2.0) -> set:
    """Threads started since ``before`` still alive after ``timeout``."""
    deadline = time.perf_counter() + timeout
    while True:
        alive = {t for t in threading.enumerate() if t not in before}
        if not alive or time.perf_counter() > deadline:
            return alive
        time.sleep(0.02)


class TestOneConnection:
    """One pipelined connection per mount: reuse, re-dial after
    breakage, remount, and a close that actually closes."""

    @pytest.fixture
    def server(self):
        server = serve_store(MemoryBlockStore(BLOCKS, BS), workers=4)
        yield server
        server.close()

    def _client(self, server):
        transport = PipelinedTCPTransport(*server.address, timeout=5.0)
        return transport, RPCClient(transport, BLOCKSTORE_PROGRAM,
                                    BLOCKSTORE_VERSION)

    def test_one_dial_serves_sequential_and_concurrent_calls(self, server):
        transport, client = self._client(server)
        for _round in range(50):
            client.ping()
        futs = [client.call_async(0) for _ in range(30)]
        for fut in futs:
            fut.result(timeout=5.0).done()
        assert transport.dials == 1
        assert transport.pending_calls == 0
        client.close()

    def test_broken_connection_is_redialed(self, server):
        transport, client = self._client(server)
        client.ping()
        transport._fail(TransportError("injected breakage"))
        assert transport.broken is not None
        client.ping()  # the next submit dials a fresh socket and reader
        assert transport.dials == 2
        assert transport.broken is None
        client.close()

    def test_abandon_fails_every_call_in_flight(self):
        server = serve_store(DelayedBlockStore(MemoryBlockStore(BLOCKS, BS),
                                               delay_ms=500.0), workers=4)
        transport, client = self._client(server)
        store = RemoteBlockStore(transport, workers=2, timeout=5.0)
        futs = [store._submit(READ, b) for b in range(4)]
        transport.abandon("gave up")
        for _proc, fut, _trace in futs:
            with pytest.raises(TransportError, match="gave up"):
                fut.result(timeout=1.0)
        assert transport.pending_calls == 0
        store.close()
        server.close()

    def test_remount_dials_a_fresh_connection(self, server):
        host, port = server.address
        store = RemoteBlockStore.connect(host, port, workers=2)
        store.write_many([(b, b"r" * BS) for b in range(64)])
        store.close()
        remounted = RemoteBlockStore.connect(host, port, workers=2)
        assert remounted.read_many(list(range(64))) == [b"r" * BS] * 64
        transport = remounted._client.transport
        assert isinstance(transport, PipelinedTCPTransport)
        assert transport.dials == 1
        remounted.close()

    def test_reader_exits_on_close(self, server):
        transport, client = self._client(server)
        client.ping()
        reader = transport._reader
        client.close()
        reader.join(timeout=1.0)
        assert not reader.is_alive()

    def test_mount_close_cycles_leave_no_threads(self, server):
        host, port = server.address
        start = threading.active_count()
        for cycle in range(300):
            store = open_store(f"remote://{host}:{port}?workers=2")
            store.write_many([(b, bytes([cycle & 0xFF]) * BS)
                              for b in range(8)])
            store.close()
        deadline = time.perf_counter() + 2.0
        while (threading.active_count() > start + 5
               and time.perf_counter() < deadline):
            time.sleep(0.02)
        assert threading.active_count() <= start + 5

    @pytest.mark.parametrize("workers", [0, 4])
    def test_server_close_drops_open_mounts(self, workers):
        before = set(threading.enumerate())
        server = serve_store(MemoryBlockStore(BLOCKS, BS), workers=workers)
        host, port = server.address
        mounts = [open_store(f"remote://{host}:{port}{query}")
                  for query in ("", "?workers=2")]
        for store in mounts:
            store.write(1, b"o" * BS)
        server.close()
        for store in mounts:
            with pytest.raises(StoreUnavailable):
                store.read(1)
            store.close()
        assert not _wait_for_threads_to_end(before)


class TestFailureIsolation:
    """One bad node must not starve or corrupt its siblings."""

    def test_shard_child_failure_does_not_block_others(self):
        children = [FailingBlockStore(MemoryBlockStore(BLOCKS, BS))
                    for _ in range(4)]
        store = ShardedBlockStore(children, fanout=4)
        payload = b"i" * BS
        store.write_many([(b, payload) for b in range(64)])
        children[1].fail()
        with pytest.raises(StoreUnavailable):
            store.read_many(list(range(64)))
        # Healthy children still answered their shares (fan-out ran them
        # all); and with the node healed everything is intact.
        children[1].heal()
        assert store.read_many(list(range(64))) == [payload] * 64
        store.close()

    def test_dead_node_timeout_does_not_starve_replica_reads(self):
        """A node stuck mid-request occupies only its own lane: reads
        racing the healthy replicas return while it is still stuck."""
        store, held = _held_replica()
        held.hold()
        try:
            store.write_many([(b, b"t" * BS) for b in range(4)])
            assert store.read_many([0, 1, 2, 3]) == [b"t" * BS] * 4
            assert held.child._get(0) is None  # still stuck
        finally:
            held.release()
        store.drain()
        store.close()

    def test_sequential_shard_runs_every_child_before_raising(self):
        """``fanout=1`` keeps the fan-out contract: a failing child does
        not stop its siblings' portions, and its error still surfaces."""
        mem = MemoryBlockStore(BLOCKS, BS)
        store = ShardedBlockStore(
            [FailingBlockStore(MemoryBlockStore(BLOCKS, BS), failing=True),
             mem], fanout=1)
        items = [(b, bytes([b]) * BS) for b in range(32)]
        assert store.shard_for(items[0][0]) == 0  # the failing group first
        with pytest.raises(StoreUnavailable):
            store.write_many(items)
        assert mem.used_block_numbers() == sorted(
            b for b, _data in items if store.shard_for(b) == 1)
        store.close()

    def test_remote_timeout_surfaces_as_store_unavailable(self):
        """A server that never answers trips the client timeout instead
        of hanging the batch forever."""
        backing = DelayedBlockStore(MemoryBlockStore(BLOCKS, BS),
                                    delay_ms=2000.0)
        server = serve_store(backing, workers=2)
        host, port = server.address
        store = RemoteBlockStore.connect(host, port, timeout=0.3, workers=2)
        payload = b"z" * BS
        with pytest.raises(StoreUnavailable):
            store.write_many([(b, payload) for b in range(BLOCKS)])
        # The wedged connection was torn down — a server that never
        # answers must not pin in-flight state.
        assert store._client.transport.pending_calls == 0
        store.close()
        server.close()


class TestShardFlushCloseErrorPropagation:
    """The satellite fix: a raising child no longer truncates the loop."""

    class _TrackingStore(MemoryBlockStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.flushed = 0
            self.closed = 0

        def flush(self):
            self.flushed += 1

        def close(self):
            self.closed += 1
            super().close()

    def test_flush_attempts_every_child_and_raises_first_error(self):
        children = [
            FailingBlockStore(self._TrackingStore(BLOCKS, BS))
            for _ in range(4)
        ]
        store = ShardedBlockStore(children, fanout=4)
        children[1].fail()
        with pytest.raises(StoreUnavailable):
            store.flush()
        # Children after the failing one were still flushed.
        assert children[2].child.flushed == 1
        assert children[3].child.flushed == 1

    def test_close_attempts_every_child_and_raises_first_error(self):
        class _ExplodingClose(MemoryBlockStore):
            def close(self):
                raise StoreUnavailable("close failed")

        tracked = [self._TrackingStore(BLOCKS, BS) for _ in range(3)]
        children = [_ExplodingClose(BLOCKS, BS), *tracked]
        store = ShardedBlockStore(children, fanout=2)
        with pytest.raises(StoreUnavailable):
            store.close()
        assert all(t.closed == 1 for t in tracked)

    def test_uri_failing_children_flush(self):
        from repro.storage import open_store

        store = open_store(
            "shard://failing://mem://;failing://mem://;failing://mem://")
        store.children[0].fail()
        with pytest.raises(StoreUnavailable):
            store.flush()
        store.children[0].heal()
        store.flush()
        store.close()


class TestPipelinedTransport:
    """xid matching, out-of-order replies, and timeout cleanup."""

    @pytest.fixture
    def server(self):
        server = serve_store(MemoryBlockStore(BLOCKS, BS), workers=4)
        yield server
        server.close()

    def test_interleaved_reads_on_one_connection(self, server):
        host, port = server.address
        transport = PipelinedTCPTransport(host, port, timeout=5.0)
        store = RemoteBlockStore(transport, timeout=5.0)
        for b in range(16):
            store.write(b, bytes([b]) * BS)
        results = {}
        errors = []

        def reader(block_no: int) -> None:
            try:
                results[block_no] = store.read(block_no)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(b,))
                   for b in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == {b: bytes([b]) * BS for b in range(16)}
        assert transport.pending_calls == 0
        store.close()

    def test_worker_server_serializes_unsafe_backends(self):
        """cached:// mutates its LRU even on reads, so a workers>0
        server must wrap it; mem:// declares thread_safe and is served
        unwrapped (operations still overlap)."""
        from repro.storage import CachedBlockStore, open_store
        from repro.storage.net import SerializedBlockStore

        cached = CachedBlockStore(MemoryBlockStore(BLOCKS, BS), capacity=8)
        server = serve_store(cached, workers=4)
        try:
            assert isinstance(server.program.store, SerializedBlockStore)
            host, port = server.address
            store = open_store(f"remote://{host}:{port}?workers=2")
            errors = []

            def hammer(base: int) -> None:
                try:
                    for i in range(20):
                        store.write(base + i, bytes([base & 0xFF]) * BS)
                        assert store.read(base + i) == bytes([base & 0xFF]) * BS
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(i * 40,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            store.close()
        finally:
            server.close()
        mem_server = serve_store(MemoryBlockStore(BLOCKS, BS), workers=4)
        try:
            assert not isinstance(mem_server.program.store,
                                  SerializedBlockStore)
        finally:
            mem_server.close()

    def test_put_many_duplicate_blocks_keep_last_write(self, server,
                                                       monkeypatch):
        """A batch carrying the same block twice must end with the later
        payload even when windows run concurrently out of order."""
        import repro.storage.net as net_mod

        # Shrink the window so the batch spans several in-flight RPCs.
        monkeypatch.setattr(net_mod, "MAX_BATCH_BLOCKS", 16)
        host, port = server.address
        store = RemoteBlockStore.connect(host, port, workers=2)
        items = [(7, b"old" + b"\x00" * (BS - 3))]
        items += [(b, b"x" * BS) for b in range(64)]
        items += [(7, b"new" + b"\x00" * (BS - 3))]
        assert store._batch_window == 16
        store._put_many(items)
        assert store.read(7).startswith(b"new")
        store.close()

    def test_concurrent_mixed_traffic_through_worker_server(self, server):
        """Many threads hammer one remote mount (one pipelined
        connection) and every byte comes back intact."""
        host, port = server.address
        store = RemoteBlockStore.connect(host, port, workers=3)
        errors = []

        def worker(worker_id: int) -> None:
            rng = random.Random(worker_id)
            base = worker_id * 32
            try:
                for _round in range(5):
                    items = [(base + i, bytes([worker_id]) * BS)
                             for i in range(rng.randint(4, 16))]
                    store.write_many(items)
                    got = store.read_many([b for b, _ in items])
                    assert got == [d for _, d in items]
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        store.close()


class TestHedgedReads:
    """``#hedge_ms=N``: a slow-but-alive child inside the chosen R no
    longer bounds the read — after N ms one extra child is recruited.
    (A *dead* child was already covered by failure recruitment; hedging
    is specifically for the alive straggler.)"""

    def _mount(self, slow_ms, hedge_ms):
        uri = (f"slow://mem://#ms={slow_ms};mem://;mem://"
               f"#w=2&r=1&hedge_ms={hedge_ms}")
        return open_store(f"replica://{uri}", num_blocks=BLOCKS,
                          block_size=BS)

    def test_hedge_recruits_one_extra_past_the_straggler(self):
        store = self._mount(slow_ms=250, hedge_ms=5)
        try:
            store.write(7, b"hedged payload")
            store.drain()  # straggler lane settles before the read race
            assert store.read(7).startswith(b"hedged payload")
            assert store.replica_stats.hedged_reads == 1
        finally:
            store.close()

    def test_no_hedge_when_children_answer_in_budget(self):
        store = self._mount(slow_ms=0, hedge_ms=500)
        try:
            store.write(3, b"fast enough")
            store.drain()
            for _ in range(4):
                assert store.read(3).startswith(b"fast enough")
            assert store.replica_stats.hedged_reads == 0
        finally:
            store.close()

    def test_hedge_disabled_by_default(self):
        store = open_store(
            "replica://slow://mem://#ms=40;mem://;mem://#w=2&r=1",
            num_blocks=BLOCKS, block_size=BS,
        )
        try:
            store.write(1, b"no hedge configured")
            store.drain()
            t0 = time.perf_counter()
            assert store.read(1).startswith(b"no hedge")
            elapsed = time.perf_counter() - t0
            # the r=1 read is pinned behind the 40 ms straggler
            assert elapsed >= 0.035
            assert store.replica_stats.hedged_reads == 0
        finally:
            store.close()

    def test_hedge_caps_the_tail(self):
        """The read returns while the raced child is still held: the
        hedge, not the straggler, answered it."""
        held = HeldBlockStore(MemoryBlockStore(BLOCKS, BS),
                              ops=("read", "read_many"))
        store = ReplicatedBlockStore(
            [held, MemoryBlockStore(BLOCKS, BS), MemoryBlockStore(BLOCKS, BS)],
            write_quorum=2, read_quorum=1, hedge_ms=5)
        try:
            store.write(9, b"tail capped")
            store.drain()
            held.hold()
            assert store.read(9).startswith(b"tail capped")
            assert store.replica_stats.hedged_reads == 1
        finally:
            held.release()
            store.close()


class TestAtomicStatsCounters:
    """The live per-store counters (``BlockDeviceStats``) are hit from
    replica straggler lanes, shard fan-out pools and pipelined RPC
    windows at once; a plain ``x += 1`` there is a read-modify-write
    race that silently loses updates.  The counters are lock-guarded
    now — these are the exact-count regressions proving no update is
    lost under real thread contention."""

    THREADS = 8
    OPS = 2500

    def test_no_lost_updates_under_contention(self):
        from repro.storage.base import BlockDeviceStats

        stats = BlockDeviceStats()

        def hammer():
            for i in range(self.OPS):
                stats.record_read(i, 17)
                stats.record_write(i, 23)
                stats.record_fsync()

        threads = [threading.Thread(target=hammer)
                   for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        total = self.THREADS * self.OPS
        assert stats.reads == total
        assert stats.writes == total
        assert stats.fsyncs == total
        assert stats.bytes_read == total * 17
        assert stats.bytes_written == total * 23

    def test_shared_store_counts_exactly_across_workers(self):
        """End to end: one thread-safe store hammered by a pool; the
        stats snapshot must account for every operation exactly."""
        store = MemoryBlockStore(BLOCKS, BS)
        payload = b"c" * BS

        def worker(base: int):
            for i in range(200):
                store.write((base + i) % BLOCKS, payload)
                store.read((base + i) % BLOCKS)

        threads = [threading.Thread(target=worker, args=(n * 31,))
                   for n in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        snap = store.snapshot()
        assert snap.writes == self.THREADS * 200
        assert snap.reads == self.THREADS * 200
        store.close()
