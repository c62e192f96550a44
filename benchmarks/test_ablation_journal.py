"""Ablation: write-ahead journaling on/off over the durable backends.

Crash recovery is bought with fsyncs: ``journal://`` logs and syncs
each batch's isolated blocks before they reach the child, and flushes
the child after writing a batch's runs in place, so the interesting
numbers are (a) what that does to Bonnie throughput on a ``file://``
child, (b) how group commit keeps the fsync count
proportional to *batches* rather than blocks, and (c) how long
replaying a crashed journal takes.

``test_journal_comparison_table`` routes the sweep through the report
harness (``repro.bench.report.ABLATIONS["journal"]``; run with ``-s``
to see the table, or ``python -m repro.bench.report --ablation journal``
standalone) and asserts the headline relationships.
"""

import pytest

from repro.bench.bonnie import PHASES, phase_output_block
from repro.bench.harness import make_target
from repro.bench.report import ABLATIONS, REPLAY_BLOCKS, print_table
from repro.storage import open_store

from conftest import BONNIE_PATH, FILE_SIZE

#: config-id -> backend URI template ({d} = per-test tmp dir).
JOURNAL_SWEEP = {
    "file": "file://{d}/bench.img",
    "journal-file": "journal://file://{d}/bench.img",
}


@pytest.fixture(params=list(JOURNAL_SWEEP), ids=list(JOURNAL_SWEEP))
def journal_built(request, tmp_path):
    uri = JOURNAL_SWEEP[request.param].format(d=tmp_path)
    built = make_target("FFS", backend=uri)
    yield request.param, built
    built.fs.device.close()


@pytest.mark.benchmark(group="ablation-journal-write")
def test_output_block_by_journaling(benchmark, journal_built):
    """Sequential block writes with/without the write-ahead log."""
    name, built = journal_built
    result = benchmark(phase_output_block, built.target, BONNIE_PATH,
                       FILE_SIZE)
    assert result.nbytes == FILE_SIZE
    benchmark.extra_info["config"] = name
    benchmark.extra_info["kps"] = round(result.kps)


@pytest.mark.benchmark(group="ablation-journal-replay")
def test_crash_replay_time(benchmark, tmp_path):
    """Reopen-after-crash: replaying 512 journaled blocks into the
    child.  Each round journals a fresh batch, abandons the store (the
    crash), and the measured section is the reopen that replays it.
    The blocks are stride 2, so none has a neighbour in its batch and
    every one is logged rather than written in place."""
    uri = f"journal://file://{tmp_path}/replay.img#cap=4096"
    blocks = 512

    def crash_then_reopen():
        store = open_store(uri, num_blocks=4096)
        payload = b"R" * store.block_size
        for start in range(0, blocks, 64):
            store.write_many(
                [(2 * b, payload) for b in range(start, start + 64)]
            )
        store.abandon()
        reopened = open_store(uri, num_blocks=4096)
        replayed = reopened.journal_stats.replayed_blocks
        reopened.close()
        return replayed

    replayed = benchmark(crash_then_reopen)
    assert replayed == blocks


def test_journal_comparison_table(capsys, tmp_path):
    """Full sweep through the report harness, with the acceptance
    assertions: journaling costs a barrier or two per batch (not per
    block), the unjournaled configs issue almost none, and the crash
    replay recovers every committed block."""
    rows = ABLATIONS["journal"].run(
        file_size=FILE_SIZE, char_size=32 * 1024, workdir=str(tmp_path)
    )
    with capsys.disabled():
        print_table("journal", rows, file_size=FILE_SIZE)
    results = {row["label"]: row for row in rows}
    replay = results.pop("crash replay")

    for label, bonnie in results.items():
        assert all(bonnie[p] > 0 for p in PHASES), label

    for label, dev in results.items():
        if label.startswith("journal"):
            # Barriers per batch, log fsyncs plus child fsyncs: one log
            # fsync per logged transaction, one child flush per batch
            # whose runs went in place (a run is two blocks or more),
            # plus the handful of checkpoint flushes.  A barrier that
            # moved from the log to the child is counted, not hidden.
            assert dev["journal_txns"] + dev["in_place"] > 0, label
            assert dev["fsyncs"] >= dev["journal_txns"], label
            assert dev["fsyncs"] <= (dev["journal_txns"]
                                     + dev["in_place"] // 2 + 16), label
            assert dev["journal_blocks"] >= dev["journal_txns"], label
        else:
            assert dev["journal_txns"] == dev["in_place"] == 0, label
            assert dev["fsyncs"] <= 16, label

    assert replay["replayed_blocks"] == REPLAY_BLOCKS
    # Group commit on the batched path: far fewer durable transactions
    # (and thus fsyncs) than blocks made crash-safe.
    assert replay["replayed_txns"] * 16 <= replay["replayed_blocks"]
    assert replay["replay_ms"] >= 0.0
