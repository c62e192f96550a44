"""Ablation: live resharding on the consistent-hash ring.

The whole point of consistent hashing (``shard://``'s vnode ring) is
that topology changes are *cheap*: growing a 3-node ring to 4 should
relocate ~1/4 of the keyspace, not reshuffle everything the way modulo
placement would.  The control plane's :func:`repro.storage.control.reshard`
turns that property into an online operation — diff the two rings, move
only the owner-changed blocks (vectored, concurrent per child pair),
verify, swap atomically — and this ablation measures it on real
``remote://`` TCP nodes.

``test_reshard_comparison_table`` routes through the report harness
(``repro.bench.report.ABLATIONS["reshard"]``; run with ``-s`` for the
table, or ``python -m repro.bench.report --ablation reshard``
standalone) and asserts the acceptance claim: a 3→4 migration moves ≈1/4 of the blocks
— asserted well under 50% — with every payload intact and served from
the new ring.
"""

import pytest

from repro.bench.report import ABLATIONS, print_table
from repro.storage import MemoryBlockStore, open_store, reshard, serve_store
from repro.storage import spec as specs
from repro.storage.shard import build_ring, ring_owner

BLOCKS = 1024
BLOCK_SIZE = 4096


def test_reshard_comparison_table(capsys):
    """Full sweep through the report harness + acceptance assertions."""
    rows = ABLATIONS["reshard"].run(blocks=BLOCKS, block_size=BLOCK_SIZE)
    with capsys.disabled():
        print_table("reshard", rows, blocks=BLOCKS, block_size=BLOCK_SIZE)

    grow = rows[0]
    assert grow["label"] == "3->4"
    assert grow["total_blocks"] == BLOCKS
    # ≈1/4 of the keyspace moves on 3→4; consistent hashing keeps it
    # WELL under the 50% ceiling (modulo placement would move ~75%).
    assert 0 < grow["moved_blocks"] < 0.5 * grow["total_blocks"]
    assert 0.10 < grow["moved_fraction"] < 0.45
    assert grow["verified"] and grow["intact"]

    shrink = rows[1]
    assert shrink["label"] == "4->3"
    assert shrink["moved_blocks"] < 0.5 * shrink["total_blocks"]
    assert shrink["intact"]


def test_moved_fraction_tracks_ring_math():
    """The measured move set is exactly the ring diff — the migration
    never moves a block whose owner did not change."""
    old_ring = build_ring(3)
    new_ring = build_ring(4)
    predicted = sum(
        1 for block_no in range(BLOCKS)
        if ring_owner(*old_ring, block_no) != ring_owner(*new_ring, block_no)
    )

    servers = [serve_store(MemoryBlockStore(BLOCKS * 2, BLOCK_SIZE))
               for _ in range(4)]
    try:
        def ring(n):
            return specs.shard(*(
                specs.remote("%s:%d" % s.address) for s in servers[:n]
            ))

        store = open_store(ring(3), num_blocks=BLOCKS * 2,
                           block_size=BLOCK_SIZE)
        try:
            store.write_many([
                (b, b"ring-math" + bytes([b % 256]))
                for b in range(BLOCKS)
            ])
            report = reshard(store, ring(3), ring(4))
            assert report.moved_blocks == predicted
            assert report.total_blocks == BLOCKS
        finally:
            store.close()
    finally:
        for server in servers:
            server.close()


@pytest.mark.benchmark(group="ablation-reshard")
def test_reshard_wall_clock(benchmark):
    """Timed 3→4 migration of a seeded in-memory ring (pytest-benchmark
    row; the TCP version's wall-clock is in the comparison table)."""
    payload = b"R" * BLOCK_SIZE

    def grow_once():
        store = open_store("shard://3", num_blocks=BLOCKS * 2,
                           block_size=BLOCK_SIZE)
        try:
            store.write_many([(b, payload) for b in range(BLOCKS)])
            return reshard(store, "shard://3", "shard://4").moved_blocks
        finally:
            store.close()

    moved = benchmark(grow_once)
    assert 0 < moved < 0.5 * BLOCKS
    benchmark.extra_info["moved_blocks"] = moved
