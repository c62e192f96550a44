"""Ablation: sequential vs concurrent cross-node fan-out.

``replica://`` pays one round trip per child; whether those round
trips happen one after another or all at once decides whether a write
waits for the slowest replica.  Every node here is an in-process
``store-serve`` on its own loopback port whose store charges a fixed
per-operation service latency (``slow://``), so the timings model what
loaded nodes cost without needing real remote hosts.

``test_fanout_comparison_table`` routes the sweep through the report
harness (``repro.bench.report.ABLATIONS["fanout"]``; run with ``-s``
to see the table, or ``python -m repro.bench.report --ablation fanout``
standalone) and asserts the acceptance claim: ``replica://...#w=2``
write latency tracks the **2nd-fastest** replica, not the straggler
(which completes on the background lane).
"""

import threading

import pytest

from repro.bench.report import ABLATIONS, print_table
from repro.storage import MemoryBlockStore, ReplicatedBlockStore
from repro.storage.base import WrapperBlockStore

#: Per-operation emulated node latency (ms) and the straggler's latency.
NODE_MS = 3.0
SLOW_MS = 25.0
BLOCKS = 96
#: Sweeps per comparison; every compared cell is the fastest of them.
REPEATS = 3
#: The timed cell the acceptance assertions compare.
TIMED = ("write_ms_per_round",)


@pytest.mark.flaky
def test_fanout_comparison_table(capsys):
    """Full sweeps through the report harness, with the acceptance
    assertions (wall-clock based, hence the flaky marker — the margins
    are generous: the sleeps dominate any scheduler noise).  The sweeps
    interleave, so a slow spell on the host lands on all rows alike, and
    each compared cell is the fastest of ``REPEATS``."""
    params = dict(rounds=8, blocks=BLOCKS, delay_ms=NODE_MS, slow_ms=SLOW_MS)
    results: dict[str, dict] = {}
    for _rep in range(REPEATS):
        rows = ABLATIONS["fanout"].run(**params)
        for row in rows:
            best = results.setdefault(row["label"], dict(row))
            for key in TIMED:
                if key in row:
                    best[key] = min(best[key], row[key])
            if "background_writes" in row:
                best["background_writes"] = max(best["background_writes"],
                                                row["background_writes"])
    with capsys.disabled():
        print_table("fanout", rows, **params)

    # w=2 returns at the 2nd-fastest replica: concurrent write latency
    # must come in clearly under the straggler's per-op delay, while the
    # sequential mount cannot help paying it on every round.
    concurrent = results["w=2 concurrent"]
    sequential = results["w=2 sequential"]
    assert concurrent["write_ms_per_round"] < SLOW_MS, (concurrent, sequential)
    assert sequential["write_ms_per_round"] >= SLOW_MS, (concurrent, sequential)
    assert concurrent["background_writes"] > 0


class HeldStore(WrapperBlockStore):
    """A replica whose writes wait until the test lets them through."""

    def __init__(self, child):
        super().__init__(child)
        self.release = threading.Event()

    def around(self, op, fn):
        if op in ("write", "write_many"):
            self.release.wait()
        return fn()


def test_quorum_return_does_not_outrun_drain():
    """The quorum-W fast path is not allowed to lie about durability:
    write_many returns while the third replica is still held, and
    drain() (and therefore flush()) waits until it lands."""
    held = HeldStore(MemoryBlockStore(64, 512))
    store = ReplicatedBlockStore(
        [MemoryBlockStore(64, 512), MemoryBlockStore(64, 512), held],
        write_quorum=2, read_quorum=2,
    )
    try:
        store.write_many([(b, b"q" * 512) for b in range(4)])
        assert held.child._get(0) is None  # returned at w=2, third held
        drainer = threading.Thread(target=store.drain)
        drainer.start()
        drainer.join(timeout=0.05)
        assert drainer.is_alive()  # drain waits on the held replica
        held.release.set()
        drainer.join(timeout=10)
        assert not drainer.is_alive()
        assert held.child._get(0) == b"q" * 512
    finally:
        held.release.set()
        store.close()
