"""Ablation: size-stability of the cross-system comparison.

The paper ran Bonnie on a 100 MB file; our default benches use ~0.5 MB.
This test runs the block-output phase at three sizes and asserts the
DisCFS/CFS-NE throughput ratio stays within a constant band — the
evidence that the scaled-down figures carry the same comparison the
paper's full-size runs did.
"""

import pytest

from repro.bench.bonnie import phase_output_block
from repro.bench.harness import make_target

SIZES = (128 * 1024, 512 * 1024, 2 * 1024 * 1024)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.benchmark(group="ablation-scaling")
def test_output_block_across_sizes(benchmark, size):
    built = make_target("DisCFS")
    result = benchmark(phase_output_block, built.target, "/s.dat", size)
    assert result.nbytes == size
    benchmark.extra_info["size"] = size
    benchmark.extra_info["kps"] = round(result.kps)


#: Timings per (size, system) cell; a cell's throughput is the fastest
#: of them (the end-to-end runner's fastest-of-k estimator).
REPEATS = 3


def _measure_ratios() -> list[float]:
    """DisCFS / CFS-NE throughput per size.  The repetitions interleave —
    each one times every cell — so a slow spell on the host lands on
    all cells alike instead of skewing one ratio."""
    best: dict = {}
    for _rep in range(REPEATS):
        for size in SIZES:
            for system in ("CFS-NE", "DisCFS"):
                built = make_target(system)
                kps = phase_output_block(built.target, "/r.dat", size).kps
                best[size, system] = max(best.get((size, system), 0.0), kps)
    return [best[size, "DisCFS"] / best[size, "CFS-NE"] for size in SIZES]


@pytest.mark.flaky
def test_ratio_stability_across_sizes():
    """DisCFS : CFS-NE throughput ratio is size-stable (within 3x band).

    Wall-clock ratios wobble under machine load (ROADMAP flake triage),
    so the band is generous and every cell is the fastest of
    ``REPEATS`` interleaved timings.
    """
    ratios = _measure_ratios()
    assert max(ratios) / min(ratios) < 3.0, ratios
    # And the central claim at every size: DisCFS is within a small
    # factor of CFS-NE (the paper shows them virtually identical).
    assert all(r > 0.4 for r in ratios), ratios
