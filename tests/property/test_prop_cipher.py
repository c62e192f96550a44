"""Property tests: cipher round-trips and structural invariants."""

from chacha_reference import reference_keystream  # tests/chacha_reference.py
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import BlockCipher, StreamCipher, derive_key

KEY = st.binary(min_size=32, max_size=32)
NONCE = st.binary(min_size=12, max_size=12)


_LAST = StreamCipher.MAX_BLOCKS * StreamCipher.BLOCK  # one past the last keystream byte


@settings(max_examples=60, deadline=None)
@given(key=KEY, nonce=NONCE,
       offset=st.one_of(
           st.integers(min_value=0, max_value=1 << 20),
           st.integers(min_value=_LAST - 40_000, max_value=_LAST)),
       length=st.one_of(
           st.integers(min_value=0, max_value=300),
           st.integers(min_value=0, max_value=20_000)))
def test_batched_keystream_equals_per_block_reference(key, nonce, offset, length):
    """Lengths reach 20 000 B (313 blocks); offsets are mostly unaligned and go up to the last block the 32-bit
    counter can name."""
    length = min(length, _LAST - offset)
    got = StreamCipher(key, nonce).keystream(offset, length)
    assert got == reference_keystream(key, nonce, offset, length)


@settings(max_examples=100)
@given(key=KEY, nonce=NONCE, data=st.binary(max_size=4096),
       offset=st.integers(min_value=0, max_value=1 << 20))
def test_stream_roundtrip_any_offset(key, nonce, data, offset):
    cipher = StreamCipher(key, nonce)
    assert cipher.process(cipher.process(data, offset), offset) == data


@settings(max_examples=100)
@given(key=KEY, nonce=NONCE, data=st.binary(min_size=10, max_size=2000),
       split=st.integers(min_value=1, max_value=9))
def test_stream_split_equals_whole(key, nonce, data, split):
    """Encrypting in two pieces equals encrypting at once (seekability)."""
    cipher = StreamCipher(key, nonce)
    split = min(split, len(data) - 1)
    whole = cipher.process(data, 0)
    parts = cipher.process(data[:split], 0) + cipher.process(data[split:], split)
    assert parts == whole


@settings(max_examples=100)
@given(key=st.binary(min_size=16, max_size=48), block=st.binary(min_size=16, max_size=16))
def test_block_cipher_bijective(key, block):
    cipher = BlockCipher(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=100)
@given(parts=st.lists(st.binary(max_size=32), min_size=1, max_size=4),
       length=st.integers(min_value=1, max_value=64))
def test_derive_key_deterministic_and_sized(parts, length):
    a = derive_key(*parts, length=length)
    b = derive_key(*parts, length=length)
    assert a == b
    assert len(a) == length
