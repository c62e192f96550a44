"""Ablation: the one-pass KeyNote parser against the one it replaced.

A credential is parsed at every step of a share: when it is signed, when
it is delegated and when it is submitted.  The parser reads a string
literal as one slice, lexes the code between literals with one compiled
regular expression, and parses Conditions by precedence climbing that
tracks each tree's height as it builds it; the parser it replaced — a
character loop, a frozen dataclass per token, an eleven-level descent
that backtracked on ``(`` and walked each tree again for its height — is
kept as ``tests/keynote_parse_reference.py``.  Both are timed here in the
same process, interleaved, so the assertion is a ratio and does not
depend on the machine: on each of three credential shapes DisCFS issues
the parser must be at least 3x the reference.  Equality of the two
parses is asserted first.
"""

import sys
from pathlib import Path
from time import perf_counter

import pytest

from repro.core.credentials import CredentialSpec, issued_credential
from repro.core.permissions import Permission
from repro.crypto.dsa import generate_dsa_keypair
from repro.crypto.keycodec import encode_public_key
from repro.crypto.numbers import seeded_random_bits
from repro.keynote.parser import parse_assertion

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
import keynote_parse_reference as reference  # noqa: E402

SERVER, OWNER, FRIEND = (
    generate_dsa_keypair(rand=seeded_random_bits(f"ablation-parse-{who}".encode()))
    for who in ("server", "owner", "friend"))

#: shape -> credential text
SHAPES = {
    "creator": issued_credential(
        SERVER, encode_public_key(OWNER), CredentialSpec("4242.1", Permission.all()),
        comment="creator credential for inode 4242").source_text,
    "subtree root grant": issued_credential(
        SERVER, encode_public_key(OWNER),
        CredentialSpec("1.1", Permission.all(), subtree=True)).source_text,
    "delegation": issued_credential(
        OWNER, encode_public_key(FRIEND),
        CredentialSpec("4242.1", Permission.from_string("RX"))).source_text,
}


def best_pair(new, old, text: str, repeats: int = 9, loops: int = 40) -> tuple[float, float]:
    """Seconds per parse on each side: the fastest of ``repeats`` timings
    of ``loops`` parses, the two sides taking turns."""
    best = {new: float("inf"), old: float("inf")}
    for _ in range(repeats):
        for parse in (new, old):
            start = perf_counter()
            for _ in range(loops):
                parse(text)
            best[parse] = min(best[parse], (perf_counter() - start) / loops)
    return best[new], best[old]


@pytest.mark.parametrize("shape", SHAPES)
def test_parses_are_the_reference_trees(shape):
    text = SHAPES[shape]
    assert parse_assertion(text) == reference.parse_assertion(text)


@pytest.mark.parametrize("shape", SHAPES)
def test_parse_speedup(shape):
    new, old = best_pair(parse_assertion, reference.parse_assertion, SHAPES[shape])
    ratio = old / new
    print(f"\n{shape}: parser {new * 1e6:.0f} us, reference {old * 1e6:.0f} us, {ratio:.1f}x")
    assert ratio >= 3.0


@pytest.mark.benchmark(group="ablation-keynote-parse")
@pytest.mark.parametrize("shape", SHAPES)
def test_parse_throughput(benchmark, shape):
    benchmark(parse_assertion, SHAPES[shape])
