"""ChaCha20 and modular exponentiation from the libcrypto hashlib links.

CPython's ``_hashlib`` extension is linked against OpenSSL's libcrypto, so
that library is already mapped into the process: a :mod:`ctypes` handle on
the extension's own file resolves its ``EVP_*`` and ``BN_*`` symbols, with
no second copy loaded and nothing installed.  Every call allocates its own
cipher context or ``BN_CTX`` and frees it before returning, so calls share
no state between threads.  A missing symbol is an :class:`ImportError`.
"""

from __future__ import annotations

import ctypes
from typing import Any

import _hashlib

from repro.errors import CryptoError

_lib = ctypes.CDLL(_hashlib.__file__)
_ptr, _int, _buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p


def _bind(name: str, restype: Any, *argtypes: Any) -> Any:
    try:
        fn = getattr(_lib, name)
    except AttributeError as exc:
        raise ImportError(f"libcrypto has no {name}") from exc
    fn.restype = restype
    fn.argtypes = argtypes
    return fn


_EVP_chacha20 = _bind("EVP_chacha20", _ptr)
_EVP_CIPHER_CTX_new = _bind("EVP_CIPHER_CTX_new", _ptr)
_EVP_CIPHER_CTX_free = _bind("EVP_CIPHER_CTX_free", None, _ptr)
_EVP_EncryptInit_ex = _bind("EVP_EncryptInit_ex", _int, _ptr, _ptr, _ptr, _buf, _buf)
_EVP_EncryptUpdate = _bind("EVP_EncryptUpdate", _int,
                           _ptr, _buf, ctypes.POINTER(_int), _buf, _int)
_BN_bin2bn = _bind("BN_bin2bn", _ptr, _buf, _int, _ptr)
_BN_bn2binpad = _bind("BN_bn2binpad", _int, _ptr, _buf, _int)
_BN_new = _bind("BN_new", _ptr)
_BN_free = _bind("BN_free", None, _ptr)
_BN_CTX_new = _bind("BN_CTX_new", _ptr)
_BN_CTX_free = _bind("BN_CTX_free", None, _ptr)
_BN_mod_exp = _bind("BN_mod_exp", _int, _ptr, _ptr, _ptr, _ptr, _ptr)

_CHACHA = _EVP_chacha20()
if not _CHACHA:
    raise ImportError("libcrypto has no ChaCha20 cipher")


def chacha20(key: bytes, nonce: bytes, counter: int, data: bytes) -> bytes:
    """``data`` XOR the RFC 8439 ChaCha20 keystream from block ``counter``.

    The keystream must end by block 2**32 - 1: OpenSSL would carry the
    counter into the first nonce word rather than stop, so a longer
    request is refused before the call.
    """
    if not data:
        return b""
    if len(key) != 32 or len(nonce) != 12:
        raise CryptoError("ChaCha20 takes a 32-byte key and a 12-byte nonce")
    if counter < 0 or counter + (len(data) + 63) // 64 > 1 << 32:
        raise CryptoError(f"ChaCha20 blocks from {counter} for {len(data)} B run "
                          f"past the 32-bit block counter")
    out = ctypes.create_string_buffer(len(data))
    written = _int()
    ctx = _EVP_CIPHER_CTX_new()
    try:
        if not ctx or _EVP_EncryptInit_ex(
                ctx, _CHACHA, None, key, counter.to_bytes(4, "little") + nonce) != 1 \
                or _EVP_EncryptUpdate(ctx, out, ctypes.byref(written), data, len(data)) != 1 \
                or written.value != len(data):
            raise CryptoError("libcrypto ChaCha20 failed")
    finally:
        _EVP_CIPHER_CTX_free(ctx)  # NULL is a no-op
    return out.raw


def modexp(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)`` over ``BN_mod_exp``, for exp >= 0 and mod >= 1."""
    if mod < 1 or exp < 0:
        raise CryptoError("modexp needs a modulus >= 1 and an exponent >= 0")
    size = (mod.bit_length() + 7) // 8
    bns: list[int | None] = []
    ctx = _BN_CTX_new()
    try:
        for value in (base % mod, exp, mod):
            raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
            bns.append(_BN_bin2bn(raw, len(raw), None))
        bns.append(_BN_new())
        out = ctypes.create_string_buffer(size)
        if not ctx or not all(bns) or _BN_mod_exp(bns[3], *bns[:3], ctx) != 1 \
                or _BN_bn2binpad(bns[3], out, size) != size:
            raise CryptoError("libcrypto BN_mod_exp failed")
        return int.from_bytes(out.raw, "big")
    finally:
        for bn in bns:
            _BN_free(bn)  # NULL is a no-op
        _BN_CTX_free(ctx)
