"""Cryptographic substrate.

The DisCFS prototype relied on OpenBSD's libcrypto for DSA keys and
signatures (credentials carry ``dsa-hex:`` keys and ``sig-dsa-sha1-hex:``
signatures, see Figure 5 of the paper).  This package builds the required
primitives on :mod:`hashlib` and the libcrypto it links, with no
third-party package:

* :mod:`repro.crypto.libcrypto` — ChaCha20 and ``BN_mod_exp`` via ctypes,
* :mod:`repro.crypto.numbers` — modular arithmetic and prime generation,
* :mod:`repro.crypto.dsa` — DSA with deterministic (RFC-6979 style) nonces,
* :mod:`repro.crypto.rsa` — RSA with PKCS#1 v1.5 style signatures,
* :mod:`repro.crypto.keycodec` — the KeyNote ``ALGORITHM:hexdata`` codecs,
* :mod:`repro.crypto.cipher` — a stream cipher and a block cipher used
  by the CFS baseline and the IPsec-like channel.

These are *reproduction-grade* implementations: correct, deterministic and
well-tested, but not hardened against side channels; do not reuse them for
production security.
"""

from repro.crypto.dsa import DSAKeyPair, DSAPublicKey, generate_dsa_keypair
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, generate_rsa_keypair
from repro.crypto.keycodec import (
    decode_key,
    decode_signature,
    encode_private_key,
    encode_public_key,
    encode_signature,
)

__all__ = [
    "DSAKeyPair",
    "DSAPublicKey",
    "RSAKeyPair",
    "RSAPublicKey",
    "generate_dsa_keypair",
    "generate_rsa_keypair",
    "decode_key",
    "decode_signature",
    "encode_public_key",
    "encode_private_key",
    "encode_signature",
]
