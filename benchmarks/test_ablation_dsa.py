"""Ablation: the libcrypto DSA against the pow-based one.

Every power in a sign (``g^k``), a verify (``g^u1`` and ``y^u2``) and key
generation or IKE (``g^x``) is libcrypto's ``BN_mod_exp``
(``repro.crypto.libcrypto.modexp``); the pure-Python code, one ``pow`` per
exponentiation, is kept as ``tests/dsa_reference.py``.  Both are timed
here in the same process, so the assertions are ratios and do not depend
on the machine: sign and ``g^x`` must be at least 3x the reference, and
verify at least 1.3x.  Equality of the signature bytes is asserted first.
"""

import sys
from pathlib import Path
from time import perf_counter

import pytest

from repro.crypto.dsa import DEFAULT_PARAMETERS, generate_dsa_keypair
from repro.crypto.keycodec import encode_signature
from repro.crypto.numbers import seeded_random_bits

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from dsa_reference import reference_sign, reference_verify  # noqa: E402

KEY = generate_dsa_keypair(rand=seeded_random_bits(b"ablation-dsa"))
MESSAGE = b"Authorizer: ...\nLicensees: ...\nConditions: HANDLE == \"42\" -> \"RWX\";\n"
SIGNATURE = reference_sign(KEY, MESSAGE)
EXPONENT = KEY.x
G, P = DEFAULT_PARAMETERS.g, DEFAULT_PARAMETERS.p


def best_of(fn, *args, repeats: int = 7, loops: int = 20) -> float:
    """Seconds per call: the fastest of ``repeats`` timings of ``loops`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(loops):
            fn(*args)
        best = min(best, (perf_counter() - start) / loops)
    return best


def test_signatures_are_the_reference_bytes():
    for i in range(8):
        message = MESSAGE + bytes([i])
        assert encode_signature("dsa", "sha1", KEY.sign(message)) == \
            encode_signature("dsa", "sha1", reference_sign(KEY, message))


#: operation -> (libcrypto call, pow-based reference call, least ratio)
CASES = {
    "sign": (lambda: KEY.sign(MESSAGE), lambda: reference_sign(KEY, MESSAGE), 3.0),
    "verify": (lambda: KEY.public.verify(MESSAGE, SIGNATURE),
               lambda: reference_verify(KEY.public, MESSAGE, SIGNATURE), 1.3),
    "g^x": (lambda: DEFAULT_PARAMETERS.gpow(EXPONENT),
            lambda: pow(G, EXPONENT, P), 3.0),
}


@pytest.mark.parametrize("operation", CASES)
def test_table_speedup(operation):
    fast, reference, at_least = CASES[operation]
    fast()  # warm up
    new = best_of(fast)
    old = best_of(reference)
    ratio = old / new
    print(f"\n{operation}: libcrypto {new * 1e6:.0f} us, "
          f"pow {old * 1e6:.0f} us, {ratio:.1f}x")
    assert ratio >= at_least


@pytest.mark.benchmark(group="ablation-dsa")
@pytest.mark.parametrize("operation", CASES)
def test_dsa_throughput(benchmark, operation):
    benchmark(CASES[operation][0])
