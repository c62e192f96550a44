"""Property tests: the libcrypto DSA against the pow-based reference.

Every power in sign, verify, key generation and IKE is libcrypto's
``BN_mod_exp`` (``repro.crypto.libcrypto.modexp``);
``tests/dsa_reference.py`` is the pure-Python code, one ``pow`` per
exponentiation.  Powers, signatures (bit for bit), verify verdicts and
IKE's DH public values must all agree, and ``modexp`` must be ``pow``.
"""

from unittest import mock

from dsa_reference import (  # tests/dsa_reference.py
    reference_keypair,
    reference_sign,
    reference_verify,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.dsa import DEFAULT_PARAMETERS, DSAKeyPair, generate_dsa_keypair
from repro.crypto.libcrypto import modexp
from repro.crypto.numbers import seeded_random_bits
from repro.errors import InvalidSignature
from repro.ipsec import ike

P, Q, G = DEFAULT_PARAMETERS.p, DEFAULT_PARAMETERS.q, DEFAULT_PARAMETERS.g

#: Bits per digit of the fixed-base comb the library once used: its row
#: boundaries stay as edge exponents.
W = 5

#: 0, 1, q - 1, q and one either side of every 5-bit digit boundary.
EDGES = sorted({0, 1, Q - 1, Q}
               | {e for k in range(Q.bit_length() // W + 2)
                  for e in ((1 << (W * k)) - 1, (1 << (W * k)) + 1)
                  if 0 <= e <= Q})
EXPONENT = st.one_of(st.sampled_from(EDGES), st.integers(min_value=0, max_value=Q))
PRIVATE = st.integers(min_value=1, max_value=Q - 1)
MESSAGE = st.binary(max_size=256)
HASH = st.sampled_from(["sha1", "sha256"])


#: Moduli of every shape: 1, 2, even, odd, a power of two, the group's p.
MODULUS = st.one_of(
    st.sampled_from([1, 2, 3, 1 << 64, (1 << 64) + 1, P, P - 1, Q]),
    st.integers(min_value=1, max_value=1 << 1100))
#: Bases below, at and far past the modulus, and negative ones.
BASE = st.one_of(st.sampled_from([0, 1, 2, -1, P - 1, P, P + 1, G]),
                 st.integers(min_value=-(1 << 1200), max_value=1 << 1200))
#: Exponents from the edges above up to well past q.
POWER = st.one_of(st.sampled_from(EDGES), st.integers(min_value=0, max_value=1 << 1100))


def keypair(x: int) -> DSAKeyPair:
    return DSAKeyPair(params=DEFAULT_PARAMETERS, x=x, y=pow(G, x, P))


def test_edges_reach_both_ends_of_the_table():
    assert EDGES[0] == 0 and EDGES[-1] == Q
    assert (1 << (W * (Q.bit_length() // W - 1))) + 1 in EDGES


@settings(max_examples=300, deadline=None)
@given(e=EXPONENT)
def test_gpow_equals_pow(e):
    assert DEFAULT_PARAMETERS.gpow(e) == pow(G, e, P)


@settings(max_examples=300, deadline=None)
@given(base=BASE, exp=POWER, mod=MODULUS)
def test_modexp_equals_pow(base, exp, mod):
    assert modexp(base, exp, mod) == pow(base, exp, mod)


@settings(max_examples=60, deadline=None)
@given(x=PRIVATE, message=MESSAGE, hash_name=HASH)
def test_sign_is_bit_for_bit_the_reference(x, message, hash_name):
    key = keypair(x)
    assert key.sign(message, hash_name) == reference_sign(key, message, hash_name)


def verdict(verify, *args) -> bool:
    try:
        verify(*args)
    except InvalidSignature:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(x=PRIVATE, message=MESSAGE, hash_name=HASH,
       mutation=st.sampled_from(["none", "r", "s", "message"]),
       delta=st.integers(min_value=1, max_value=Q))
def test_verify_agrees_with_the_reference(x, message, hash_name, mutation, delta):
    """Valid signatures, and ones with ``r``, ``s`` or the message changed
    (``r``/``s`` may be pushed out of range: both must refuse)."""
    key = keypair(x)
    r, s = reference_sign(key, message, hash_name)
    if mutation == "r":
        r = (r + delta) % (Q + 1)
    elif mutation == "s":
        s = (s + delta) % (Q + 1)
    elif mutation == "message":
        message += delta.to_bytes(21, "big")
    new = verdict(key.public.verify, message, (r, s), hash_name)
    old = verdict(reference_verify, key.public, message, (r, s), hash_name)
    assert new == old
    assert new == (mutation == "none")


@settings(max_examples=20, deadline=None)
@given(seed=st.binary(min_size=1, max_size=16))
def test_keygen_is_the_reference(seed):
    new = generate_dsa_keypair(rand=seeded_random_bits(seed))
    old = reference_keypair(rand=seeded_random_bits(seed))
    assert (new.x, new.y) == (old.x, old.y)


RESPONDER_KEY = generate_dsa_keypair(rand=seeded_random_bits(b"prop-dsa-responder"))


@settings(max_examples=40, deadline=None)
@given(x=st.integers(min_value=2, max_value=Q - 2))
def test_ike_dh_public_values_are_pow(x):
    """Both sides draw their exponent as ``2 + randbelow(q - 3)``; pinned to
    ``x``, INIT carries ``g^x`` and RESP carries ``g^y`` with ``y = x``."""
    with mock.patch.object(ike.secrets, "randbelow", lambda n: x - 2):
        init = ike.IKEInitiator(RESPONDER_KEY).initiate()
        resp = ike.IKEResponder(RESPONDER_KEY).handle_init(init)
    _, gx_raw, _ = ike._unpack_fields(init[1:], 3)
    _, _, gy_raw, _, _ = ike._unpack_fields(resp[1:], 5)
    assert int.from_bytes(gx_raw, "big") == pow(G, x, P)
    assert int.from_bytes(gy_raw, "big") == pow(G, x, P)
