"""Cost models for virtual-time reporting.

Wall-clock measurements of a pure-Python stack compare the three systems
fairly against each other, but their absolute numbers are nothing like the
paper's 2001 testbed.  For paper-scale reporting, :mod:`repro.bench.modeled`
charges two models, each reading counters the stack already keeps:

* a **disk model** charging seek + transfer time for the block I/O the
  workload actually performed (read off the device's counters), modeled
  after the testbed's Quantum Fireball CT10 (5400 rpm, ~9 ms seek,
  ~15 MB/s media rate),
* a **network model** charging round-trip + wire time for the RPC
  traffic the workload actually sent (read off the transport's
  counters), modeled after the testbed's 100 Mbps Ethernet.

EXPERIMENTS.md reports both wall-clock and modeled numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.blockdev import BlockDeviceStats
from repro.rpc.transport import TransportStats


@dataclass
class DiskModel:
    """Seek/rotate/transfer model of a single spindle."""

    average_seek_seconds: float = 0.0088
    rotational_latency_seconds: float = 0.0055  # half a rev at 5400 rpm
    media_rate_bytes_per_second: float = 15_000_000.0

    def time_for(self, stats: BlockDeviceStats) -> float:
        """Modeled disk time for the I/O recorded in ``stats``.

        Non-sequential accesses (the device counts them as ``seeks``) pay
        seek + rotational latency; every byte pays transfer time.
        """
        positioning = stats.seeks * (
            self.average_seek_seconds + self.rotational_latency_seconds
        )
        transfer = (stats.bytes_read + stats.bytes_written) / self.media_rate_bytes_per_second
        return positioning + transfer


#: The paper's server disk (Quantum Fireball CT10, 9.6 GB).
QUANTUM_FIREBALL_CT10 = DiskModel()


@dataclass
class LatencyModel:
    """Round-trip + wire model of the client/server network.

    Defaults approximate the paper's testbed: 100 Mbps Ethernet between
    two hosts on the same segment (~0.2 ms RTT for small frames,
    12.5 MB/s line rate).
    """

    rtt_seconds: float = 0.0002
    bandwidth_bytes_per_second: float = 12_500_000.0

    def time_for(self, stats: TransportStats) -> float:
        """Modeled network time for the RPC traffic recorded in ``stats``:
        every call pays a round trip, every byte either way wire time."""
        wire = stats.bytes_sent + stats.bytes_received
        return stats.calls * self.rtt_seconds + wire / self.bandwidth_bytes_per_second
