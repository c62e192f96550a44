"""Ablation: storage backend under the Bonnie workloads.

Caching and multiple backends make the block layer an axis of the
evaluation rather than a hard-coded constant.  This bench runs the
Bonnie block phases on the *same* filesystem stack over every leaf
backend family — memory and host file — and a write-back cache overlay,
so backend choice is a measured trade-off.

``test_backend_comparison_table`` additionally routes the full sweep
through the report harness (``repro.bench.report``), emitting the same
style of per-backend table the figure reports use (run with ``-s`` to see
it; ``python -m repro.bench.report --ablation backends`` prints it
standalone).
"""

import pytest

from repro.bench.bonnie import PHASES, phase_input_block, phase_output_block
from repro.bench.harness import make_target
from repro.bench.report import ABLATIONS, print_table

from conftest import BONNIE_PATH, FILE_SIZE, prepare_file

#: backend-id -> URI template ({tmp} = per-test temporary directory).
BACKENDS = {
    "mem": "mem://",
    "file": "file://{tmp}/bonnie.img",
    "cached-file": "cached://file://{tmp}/bonnie-cached.img#capacity=256",
}


@pytest.fixture(params=list(BACKENDS), ids=list(BACKENDS))
def backend_built(request, tmp_path):
    uri = BACKENDS[request.param].format(tmp=tmp_path)
    built = make_target("FFS", backend=uri)
    yield request.param, uri, built
    built.fs.device.close()


@pytest.mark.benchmark(group="ablation-storage-backend-write")
def test_output_block_by_backend(benchmark, backend_built):
    name, uri, built = backend_built
    result = benchmark(phase_output_block, built.target, BONNIE_PATH, FILE_SIZE)
    assert result.nbytes == FILE_SIZE
    benchmark.extra_info["backend"] = uri
    benchmark.extra_info["kps"] = round(result.kps)


@pytest.mark.benchmark(group="ablation-storage-backend-read")
def test_input_block_by_backend(benchmark, backend_built):
    name, uri, built = backend_built
    prepare_file(built.target, BONNIE_PATH, FILE_SIZE)
    result = benchmark(phase_input_block, built.target, BONNIE_PATH, FILE_SIZE)
    assert result.nbytes == FILE_SIZE
    benchmark.extra_info["backend"] = uri
    benchmark.extra_info["kps"] = round(result.kps)


def test_backend_comparison_table(tmp_path, capsys):
    """Full Bonnie sweep per backend, printed via the report harness."""
    backends = tuple(t.format(tmp=tmp_path) for t in BACKENDS.values())
    rows = ABLATIONS["backends"].run(
        backends, file_size=FILE_SIZE, char_size=32 * 1024
    )
    with capsys.disabled():
        print_table("backends", rows, file_size=FILE_SIZE)
    results = {row["label"]: row for row in rows}

    # Every backend completed every phase with sane throughput numbers.
    for uri in backends:
        assert all(results[uri][p] > 0 for p in PHASES)
        assert results[uri]["writes"] > 0
    # The write-back cache must absorb physical I/O relative to logical.
    cached_uri = BACKENDS["cached-file"].format(tmp=tmp_path)
    cached_dev = results[cached_uri]
    assert cached_dev["physical_reads"] < cached_dev["reads"]
