"""Smoke test of the end-to-end benchmark: every metric, every workload.

Runs each workload once at ``--smoke`` size, untraced and traced, in this
process; drives the command line once the way the benchmark driver does.
"""

import json
import shutil
import subprocess
import sys

import pytest

from . import run
from .layers import PER_LAYER
from .workloads import (BLOCK, RUN_SECONDS, SCALED, SIZES, WORKLOADS,
                        journal_log_bytes, sizes_for)

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.fixture(scope="module")
def sweep():
    """name -> (untraced result, the same seed again, traced result)."""
    return {name: (run.measure(name, 7, smoke=True)[0],
                   run.measure(name, 7, smoke=True)[0],
                   run.measure(name, 7, trace=True, smoke=True)[0])
            for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit_and_nothing_fails(sweep, name):
    untraced, _again, traced = sweep[name]
    assert {n: m["unit"] for n, m in untraced["metrics"].items()} == \
        {n: unit for n, unit, _better, _bound in run.END_TO_END}
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == \
        {n: unit for n, unit, _better in PER_LAYER}
    for result in (untraced, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly_with_one_seed(sweep, name):
    first, second, _traced = sweep[name]
    assert first["attempted"] == second["attempted"]
    assert first["metrics"]["store_bytes_per_user_byte"] == \
        second["metrics"]["store_bytes_per_user_byte"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_another_seed_gives_another_schedule(name):
    size = sizes_for(name, "smoke")
    one, same, other = (WORKLOADS[name](seed, size) for seed in (7, 7, 8))
    assert one.pool == same.pool != other.pool
    if name != "secure-share":  # its every cycle is a share cycle
        assert one._share_positions(10_000) == same._share_positions(10_000) \
            != other._share_positions(10_000)
    if name == "replica-remote":
        assert one.schedule == same.schedule != other.schedule
    if name == "policy-search":
        assert one.manifest == same.manifest != other.manifest


def test_seconds_scales_the_round_and_nothing_else():
    for name in WORKLOADS:
        full = sizes_for(name, "full")
        assert full == SIZES[name]["full"] == sizes_for(name, "full",
                                                        RUN_SECONDS)
        half = sizes_for(name, "full", RUN_SECONDS / 2)
        scaled, _multiple = SCALED[name]
        assert half[scaled] < full[scaled]
        assert {k: v for k, v in half.items() if k != scaled} == \
            {k: v for k, v in full.items() if k != scaled}
        assert sizes_for(name, "smoke", 1) == SIZES[name]["smoke"]


def test_journal_log_bytes_is_the_size_of_the_log(tmp_path):
    from repro.storage import open_store
    from repro.storage.spec import file, journal

    store = open_store(journal(file(str(tmp_path / "j.img"), blocks=64)),
                       num_blocks=64)
    try:
        store.write(3, b"a" * BLOCK)
        store.write_many([(4, b"b" * BLOCK), (9, b"c" * BLOCK)])
        store.write(3, b"d" * BLOCK)
        assert journal_log_bytes(store) == \
            (tmp_path / "j.img.journal").stat().st_size
        store.flush()  # a checkpoint resets the log to its header
        assert journal_log_bytes(store) == 3 * 38 + 4 * (4 + BLOCK) + 2 * 16
    finally:
        store.close()


def test_traced_run_leaves_no_wrapper_behind(sweep):
    import repro.core.server
    from repro.core.cache import PolicyCache
    from repro.nfs.client import NFSClient
    from repro.storage.base import BlockStore
    from repro.storage.journal import JournalBlockStore

    for fn in (NFSClient.read, BlockStore.read, PolicyCache.get,
               JournalBlockStore.flush, repro.core.server.parse_assertion):
        assert not hasattr(fn, "__wrapped__")


def test_benchmark_json_names_exactly_what_the_runner_prints():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in CONTRACT["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in CONTRACT["per_layer"]] == PER_LAYER
    assert CONTRACT["paths"] == [str(run.HERE.relative_to(run.ROOT))]
    assert (run.ROOT / CONTRACT["command"][1]).is_file()


def _drive(cwd, *extra):
    return subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload",
         "policy-search", "--seed", "2", "--seconds", "1", "--trace", "0",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_command_line_prints_the_result_as_its_last_line():
    done = _drive(run.ROOT, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and set(result["metrics"]) == \
        {name for name, _unit, _better, _bound in run.END_TO_END}
    assert not (run.HERE / ".work").exists()


def test_command_line_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / CONTRACT["paths"][0],
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work"))
    done = _drive(tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
