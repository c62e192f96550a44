"""Paper-scale modeled reporting.

Wall-clock numbers from the pure-Python stack compare the systems fairly
but bear no resemblance to the paper's 2001 testbed, whose Bonnie phases
were bounded by a ~15 MB/s disk and 100 Mbps Ethernet, not by protocol
CPU.  This module reconstructs testbed-scale figures by charging, for
each Bonnie phase:

* **disk time** from the block-device counters under the
  Quantum-Fireball model (:mod:`repro.bench.timing`),
* **network time** from the client transport's RPC byte/round-trip
  counters under the 100 Mbps :class:`~repro.bench.timing.LatencyModel`
  (zero for FFS, which has no transport),

and taking the phase time as ``max(disk, network)`` — the testbed's
bottleneck resource; Python CPU time is excluded since a 2001 C daemon's
CPU was not the binding constraint.  Absolute accuracy is not claimed;
the point is that the *modeled* numbers land in the paper's regime
(single-digit MB/s, FFS disk-bound, network systems wire-bound) with the
same ordering as the wall-clock comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench.bonnie import PHASES, run_phase
from repro.bench.harness import PAPER_SYSTEMS, make_target
from repro.bench.timing import QUANTUM_FIREBALL_CT10, DiskModel, LatencyModel
from repro.rpc.transport import TransportStats


@dataclass
class ModeledPhase:
    phase: str
    nbytes: int
    disk_seconds: float
    network_seconds: float

    @property
    def seconds(self) -> float:
        """Bottleneck-resource time (disk and NIC overlap via readahead /
        write-behind on the testbed, so the slower one dominates)."""
        return max(self.disk_seconds, self.network_seconds, 1e-9)

    @property
    def kps(self) -> float:
        return (self.nbytes / 1024.0) / self.seconds


def run_modeled_bonnie(
    system: str,
    file_size: int = 1 << 22,
    disk_model: DiskModel = QUANTUM_FIREBALL_CT10,
) -> dict[str, ModeledPhase]:
    """Bonnie with virtual-time accounting on a named system.

    The per-char phases are modeled from the block phases' I/O pattern
    (identical once the stdio buffer aggregates them) — running millions
    of Python putc calls adds nothing to a virtual-time estimate.
    """
    network = LatencyModel()  # 100 Mbps Ethernet defaults
    built = make_target(system)
    device_stats = built.fs.device.stats
    rpc_stats = built.transport.stats if built.transport else TransportStats()

    results: dict[str, ModeledPhase] = {}
    for phase in ("output_block", "rewrite", "input_block"):
        device_stats.reset()
        rpc_stats.reset()
        measured = run_phase(built.target, phase, "/modeled.dat", file_size)
        results[phase] = ModeledPhase(
            phase=phase,
            nbytes=measured.nbytes,
            disk_seconds=disk_model.time_for(device_stats),
            network_seconds=network.time_for(rpc_stats),
        )
    # Char phases: same I/O volume and pattern as the block phases (the
    # paper-era stdio per-byte CPU cost, ~0.1 us/byte, is dominated by
    # disk/net anyway).
    for char, block in (("output_char", "output_block"),
                        ("input_char", "input_block")):
        results[char] = replace(results[block], phase=char)
    return results


def print_modeled_report(file_size: int = 1 << 22) -> dict:
    """Print the paper-scale table for the three measured systems."""
    all_results = {
        system: run_modeled_bonnie(system, file_size)
        for system in PAPER_SYSTEMS
    }
    print(f"\nModeled (testbed-scale) Bonnie throughput, {file_size >> 20} MiB file")
    print("(Quantum Fireball CT10 disk model + 100 Mbps Ethernet model)")
    print(f"  {'phase':<14}" + "".join(f"{s:>12}" for s in PAPER_SYSTEMS)
          + "   (K/sec)")
    for phase in PHASES:
        print(f"  {phase:<14}" + "".join(
            f"{all_results[system][phase].kps:>12.0f}"
            for system in PAPER_SYSTEMS))
    return all_results


if __name__ == "__main__":  # pragma: no cover
    print_modeled_report()
