"""Ablation: libcrypto's ChaCha20 against the per-block Python keystream.

``StreamCipher`` runs libcrypto's ``EVP_chacha20`` through
``repro.crypto.libcrypto``; the per-block Python code is kept as
``tests/chacha_reference.py``.  Both are timed here in the same process,
so the assertion is a ratio and does not depend on the machine: at 4 KiB
(an NFS read or write on the secure channel) libcrypto must be at least
5x the reference, and at 64 B (one block, where the cost of a ``ctypes``
call dominates) it must not be slower.  Equality of the bytes is asserted
first.
"""

import sys
from pathlib import Path
from time import perf_counter

import pytest

from repro.crypto.cipher import StreamCipher

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from chacha_reference import reference_keystream  # noqa: E402

KEY = bytes(range(32))
NONCE = bytes(range(100, 112))


def best_of(fn, *args, repeats: int = 7, loops: int = 5) -> float:
    """Seconds per call: the fastest of ``repeats`` timings of ``loops`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(loops):
            fn(*args)
        best = min(best, (perf_counter() - start) / loops)
    return best


@pytest.mark.parametrize("length,at_least", [(4096, 5.0), (64, 1.0)],
                         ids=["4KiB", "64B"])
def test_batched_keystream_speedup(length, at_least):
    cipher = StreamCipher(KEY, NONCE)
    offset = 3 * 64  # block-aligned: both sides compute exactly length / 64 blocks
    assert cipher.keystream(offset, length) == \
        reference_keystream(KEY, NONCE, offset, length)
    batched = best_of(cipher.keystream, offset, length)
    reference = best_of(reference_keystream, KEY, NONCE, offset, length)
    ratio = reference / batched
    print(f"\nkeystream {length} B: libcrypto {batched * 1e6:.1f} us, "
          f"per-block {reference * 1e6:.1f} us, {ratio:.1f}x")
    assert ratio >= at_least


@pytest.mark.benchmark(group="ablation-cipher")
@pytest.mark.parametrize("length", [64, 1024, 4096, 65536])
def test_process_throughput(benchmark, length):
    cipher = StreamCipher(KEY, NONCE)
    data = bytes(length)
    out = benchmark(cipher.process, data)
    assert len(out) == length
