"""A reimplementation of the Bonnie filesystem benchmark (Tim Bray, 1990).

The paper uses Bonnie on a 100 MB file to produce Figures 7-11.  The five
sequential phases, faithful to bonnie.c's access patterns:

1. **Sequential output, per-character** — putc() every byte through the
   stdio buffer (Figure 7),
2. **Sequential output, block** — write() full blocks (Figure 8),
3. **Sequential output, rewrite** — read a block, dirty one byte, seek
   back, rewrite it (Figure 9),
4. **Sequential input, per-character** — getc() every byte (Figure 10),
5. **Sequential input, block** — read() full blocks (Figure 11).

Bonnie reports each phase as throughput in K/sec.  File sizes are
parameters: pure-Python per-byte loops make the paper's 100 MB
impractical, but the phases' *relative* behaviour across systems — the
quantity the figures compare — is size-stable (verified by the
``--scale`` sweep in ``benchmarks/test_ablation_scaling.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.targets import FilesystemTarget

CHUNK = 8192  # Bonnie's I/O unit (matches NFSv2 max transfer size)


@dataclass
class PhaseResult:
    """One Bonnie phase: bytes moved and time taken."""

    name: str
    nbytes: int
    seconds: float

    @property
    def kps(self) -> float:
        """Throughput in Bonnie's unit (1024 bytes per second)."""
        return (self.nbytes / 1024.0) / self.seconds if self.seconds > 0 else float("inf")


@dataclass
class BonnieResult:
    """All five phases for one system."""

    system: str
    file_size: int
    phases: dict[str, PhaseResult] = field(default_factory=dict)

    def kps(self, phase: str) -> float:
        return self.phases[phase].kps


PHASES = ("output_char", "output_block", "rewrite", "input_char", "input_block")


def phase_output_char(target: FilesystemTarget, path: str, size: int) -> PhaseResult:
    """Figure 7: per-character sequential output."""
    f = target.create_file(path)
    start = time.perf_counter()
    for i in range(size):
        f.putc(i & 0x7F)
    f.flush()
    return PhaseResult("output_char", size, time.perf_counter() - start)


def phase_output_block(target: FilesystemTarget, path: str, size: int) -> PhaseResult:
    """Figure 8: block sequential output (rewrites the file in place)."""
    f = target.create_file(path)
    block = bytes(i & 0xFF for i in range(CHUNK))
    start = time.perf_counter()
    written = 0
    while written < size:
        n = min(CHUNK, size - written)
        f.write(block[:n])
        written += n
    f.flush()
    return PhaseResult("output_block", size, time.perf_counter() - start)


def phase_rewrite(target: FilesystemTarget, path: str, size: int) -> PhaseResult:
    """Figure 9: read each block, dirty it, seek back, write it again."""
    f = target.open_file(path)
    start = time.perf_counter()
    offset = 0
    while offset < size:
        f.seek(offset)
        block = f.read(min(CHUNK, size - offset))
        if not block:
            break
        dirtied = bytes((block[0] ^ 0xFF,)) + block[1:]
        f.seek(offset)
        f.write(dirtied)
        offset += len(block)
    f.flush()
    return PhaseResult("rewrite", size, time.perf_counter() - start)


def phase_input_char(target: FilesystemTarget, path: str, size: int) -> PhaseResult:
    """Figure 10: per-character sequential input."""
    f = target.open_file(path)
    start = time.perf_counter()
    count = 0
    while count < size:
        if f.getc() is None:
            break
        count += 1
    return PhaseResult("input_char", count, time.perf_counter() - start)


def phase_input_block(target: FilesystemTarget, path: str, size: int) -> PhaseResult:
    """Figure 11: block sequential input."""
    f = target.open_file(path)
    start = time.perf_counter()
    total = 0
    while total < size:
        data = f.read(min(CHUNK, size - total))
        if not data:
            break
        total += len(data)
    return PhaseResult("input_block", total, time.perf_counter() - start)


_PHASE_FUNCS = {
    "output_char": phase_output_char,
    "output_block": phase_output_block,
    "rewrite": phase_rewrite,
    "input_char": phase_input_char,
    "input_block": phase_input_block,
}


def run_phase(target: FilesystemTarget, phase: str, path: str, size: int) -> PhaseResult:
    """Run a single phase by name (benchmark entry point)."""
    return _PHASE_FUNCS[phase](target, path, size)


def run_bonnie(
    target: FilesystemTarget,
    file_size: int = 1 << 20,
    char_size: int | None = None,
    path: str = "/bonnie.dat",
) -> BonnieResult:
    """Run all five phases in Bonnie's order.

    ``char_size`` lets the expensive per-character phases run on a smaller
    file (Bonnie itself has no such knob; throughput is size-normalized so
    the comparison across systems is unaffected).
    """
    if char_size is None:
        char_size = file_size
    result = BonnieResult(system=target.name, file_size=file_size)
    for phase in PHASES:
        size = char_size if phase.endswith("_char") else file_size
        result.phases[phase] = run_phase(target, phase, path, size)
    target.remove_file(path)
    return result
