"""Ablation: sequential vs concurrent cross-node fan-out.

The distributed stores pay one round trip per child; whether those
round trips happen one after another or all at once is the difference
between single-node and fleet-scale throughput.  Every node here is an
in-process ``store-serve`` on its own loopback port whose store charges
a fixed per-operation service latency (``slow://``), so the timings
model what a real ring of loaded nodes costs without needing real
remote hosts.

``test_fanout_comparison_table`` routes the sweep through the report
harness (``repro.bench.report.ABLATIONS["fanout"]``; run with ``-s``
to see the tables, or ``python -m repro.bench.report --ablation fanout``
standalone) and asserts the two acceptance claims:

* concurrent ``read_many``/``write_many`` on a 4-node
  ``shard://remote://...`` ring is at least 2x the sequential mount;
* ``replica://...#w=2`` write latency tracks the **2nd-fastest**
  replica, not the straggler (which completes on the background lane).
"""

import time

import pytest

from repro.bench.report import ABLATIONS, print_table
from repro.storage import (
    DelayedBlockStore,
    MemoryBlockStore,
    open_store,
    serve_store,
)

#: Per-operation emulated node latency (ms) and the straggler's latency.
NODE_MS = 3.0
SLOW_MS = 25.0
BLOCKS = 96
BLOCK_SIZE = 4096


@pytest.fixture
def ring():
    """Four in-process TCP nodes, each ``NODE_MS`` slow per operation."""
    servers = [
        serve_store(
            DelayedBlockStore(MemoryBlockStore(BLOCKS * 4, BLOCK_SIZE),
                              delay_ms=NODE_MS),
            workers=4,
        )
        for _ in range(4)
    ]
    children = ";".join(f"remote://{h}:{p}?workers=2"
                        for h, p in (s.address for s in servers))
    yield children
    for server in servers:
        server.close()


def _mount(children: str, fanout: int):
    return open_store(f"shard://{children}#fanout={fanout}",
                      num_blocks=BLOCKS * 4, block_size=BLOCK_SIZE)


@pytest.mark.benchmark(group="ablation-fanout-write")
@pytest.mark.parametrize("fanout", [1, 4], ids=["sequential", "concurrent"])
def test_write_many_by_fanout(benchmark, ring, fanout):
    payload = b"F" * BLOCK_SIZE
    items = [(b, payload) for b in range(BLOCKS)]
    store = _mount(ring, fanout)
    try:
        benchmark(store.write_many, items)
    finally:
        store.close()
    benchmark.extra_info["fanout"] = fanout


@pytest.mark.benchmark(group="ablation-fanout-read")
@pytest.mark.parametrize("fanout", [1, 4], ids=["sequential", "concurrent"])
def test_read_many_by_fanout(benchmark, ring, fanout):
    payload = b"F" * BLOCK_SIZE
    seed = _mount(ring, 4)
    try:
        seed.write_many([(b, payload) for b in range(BLOCKS)])
    finally:
        seed.close()
    store = _mount(ring, fanout)
    try:
        result = benchmark(store.read_many, list(range(BLOCKS)))
        assert all(d == payload for d in result)
    finally:
        store.close()
    benchmark.extra_info["fanout"] = fanout


@pytest.mark.flaky
def test_fanout_comparison_table(capsys):
    """Full sweep through the report harness, with the acceptance
    assertions (wall-clock based, hence the flaky marker — the margins
    are generous: the sleeps dominate any scheduler noise)."""
    params = dict(node_counts=(1, 2, 4), rounds=8, blocks=BLOCKS,
                  delay_ms=NODE_MS, slow_ms=SLOW_MS)
    rows = ABLATIONS["fanout"].run(**params)
    with capsys.disabled():
        print_table("fanout", rows, **params)
    results = {row["label"]: row for row in rows}

    four = results["4 nodes"]
    assert four["write_speedup"] >= 2.0, four
    assert four["read_speedup"] >= 2.0, four

    # w=2 returns at the 2nd-fastest replica: concurrent write latency
    # must come in clearly under the straggler's per-op delay, while the
    # sequential mount cannot help paying it on every round.
    concurrent = results["w=2 concurrent"]
    sequential = results["w=2 sequential"]
    assert concurrent["write_ms_per_round"] < SLOW_MS, (concurrent, sequential)
    assert sequential["write_ms_per_round"] >= SLOW_MS, (concurrent, sequential)
    assert concurrent["background_writes"] > 0


@pytest.mark.flaky
def test_quorum_return_does_not_outrun_drain():
    """The quorum-W fast path is not allowed to lie about durability:
    drain() (and therefore flush()) must wait for the straggler."""
    slow_child = DelayedBlockStore(MemoryBlockStore(64, 512), delay_ms=80.0)
    from repro.storage import ReplicatedBlockStore

    store = ReplicatedBlockStore(
        [MemoryBlockStore(64, 512), MemoryBlockStore(64, 512), slow_child],
        write_quorum=2, read_quorum=2,
    )
    try:
        t0 = time.perf_counter()
        store.write_many([(b, b"q" * 512) for b in range(4)])
        returned_ms = (time.perf_counter() - t0) * 1000
        store.drain()
        assert returned_ms < 60.0, returned_ms
        assert slow_child.child._get(0) == b"q" * 512
    finally:
        store.close()
