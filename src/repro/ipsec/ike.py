"""IKE-style authenticated key establishment.

Two round trips establish an SA and mutually authenticate public keys::

    Initiator                                Responder
    --------- INIT(nonce_i, g^x, id_i) ---------->
    <-- RESP(spi, nonce_r, g^y, id_r, sig_r) -----
    --------- CONFIRM(spi, sig_i) --------------->
    <---------------- DONE -----------------------

Both signatures cover the full handshake transcript (nonces, DH public
values, both identities), so neither side can be impersonated and the DH
exchange cannot be man-in-the-middled by an attacker without one of the
signature keys.  The DH group is the Schnorr subgroup of the library's
default DSA parameters (160-bit exponents, 1024-bit modulus), so each
side's ``g^x`` reads that group's comb table (``DSAParameters.gpow``).

The responder learns — and records on the SA — the *initiator's public
key*: the identity every subsequent request on the channel is attributed
to.  No account, username, or prior registration is involved; this is the
paper's "user authentication is handled through the creation of the IPsec
Security Associations".
"""

from __future__ import annotations

import secrets
import struct
import threading
from dataclasses import dataclass

from repro.crypto.dsa import DEFAULT_PARAMETERS, DSAKeyPair
from repro.crypto.keycodec import encode_public_key, encode_signature, verify_signature
from repro.crypto.numbers import int_to_bytes
from repro.crypto.rsa import RSAKeyPair
from repro.errors import HandshakeError, InvalidKey, InvalidSignature
from repro.ipsec.sa import SALifetime, SecurityAssociation

NONCE_LEN = 16
_GROUP = DEFAULT_PARAMETERS  # DH in the order-q subgroup mod p

MSG_INIT = 1
MSG_RESP = 2
MSG_CONFIRM = 3
MSG_DONE = 4

#: INITs a responder remembers while it waits for their CONFIRM.  An INIT
#: costs its sender nothing, so the table is bounded: the oldest goes.
MAX_HALF_OPEN = 1024

_U32 = struct.Struct(">I")


def _pack_fields(*fields: bytes) -> bytes:
    out = bytearray()
    for f in fields:
        out += _U32.pack(len(f))
        out += f
    return bytes(out)


def _unpack_fields(data: bytes, count: int) -> list[bytes]:
    fields = []
    pos = 0
    for _ in range(count):
        if pos + 4 > len(data):
            raise HandshakeError("truncated handshake message")
        length = _U32.unpack_from(data, pos)[0]
        pos += 4
        if pos + length > len(data):
            raise HandshakeError("truncated handshake message")
        fields.append(data[pos : pos + length])
        pos += length
    if pos != len(data):
        raise HandshakeError("trailing bytes in handshake message")
    return fields


def _transcript(nonce_i: bytes, nonce_r: bytes, gx: bytes, gy: bytes,
                id_i: str, id_r: str) -> bytes:
    return _pack_fields(nonce_i, nonce_r, gx, gy,
                        id_i.encode("utf-8"), id_r.encode("utf-8"))


def _identity(raw: bytes) -> str:
    """A peer's identity field, which must be UTF-8 text."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HandshakeError("peer identity is not UTF-8 text") from exc


def _sign(key: DSAKeyPair | RSAKeyPair, message: bytes) -> bytes:
    raw = key.sign(message, hash_name="sha1")
    return encode_signature(key.algorithm, "sha1", raw).encode("ascii")


def _verify(identity: str, message: bytes, signature: bytes) -> None:
    try:
        verify_signature(identity, message,
                         signature.decode("ascii", errors="replace"))
    except InvalidKey as exc:
        raise HandshakeError(f"peer identity is not a valid key: {exc}") from exc
    except InvalidSignature as exc:
        raise HandshakeError(f"handshake signature invalid: {exc}") from exc


@dataclass
class _HalfOpen:
    nonce_i: bytes
    nonce_r: bytes
    gx: bytes
    gy: bytes
    peer_identity: str
    shared_secret: bytes


class IKEInitiator:
    """Client side of the handshake."""

    def __init__(self, key: DSAKeyPair | RSAKeyPair):
        self.key = key
        self.identity = encode_public_key(key)
        self._x = 0
        self._gx = b""
        self._nonce_i = b""
        self._state: _HalfOpen | None = None

    def initiate(self) -> bytes:
        """Build the INIT message."""
        self._x = 2 + secrets.randbelow(_GROUP.q - 3)
        self._gx = int_to_bytes(_GROUP.gpow(self._x))
        self._nonce_i = secrets.token_bytes(NONCE_LEN)
        body = _pack_fields(
            self._nonce_i, self._gx, self.identity.encode("utf-8")
        )
        return bytes([MSG_INIT]) + body

    def handle_response(self, message: bytes) -> tuple[bytes, SecurityAssociation]:
        """Process RESP; returns (CONFIRM message, established SA)."""
        if not message or message[0] != MSG_RESP:
            raise HandshakeError("expected RESP message")
        spi_raw, nonce_r, gy_raw, id_r_raw, sig_r = _unpack_fields(message[1:], 5)
        spi = _U32.unpack(spi_raw)[0]
        gy = int.from_bytes(gy_raw, "big")
        if not 1 < gy < _GROUP.p - 1:
            raise HandshakeError("responder DH value out of range")
        id_r = _identity(id_r_raw)
        transcript = _transcript(self._nonce_i, nonce_r, self._gx, gy_raw,
                                 self.identity, id_r)
        _verify(id_r, transcript, sig_r)

        shared = int_to_bytes(pow(gy, self._x, _GROUP.p))
        sa = SecurityAssociation.derive(
            spi=spi,
            shared_secret=shared,
            nonce_i=self._nonce_i,
            nonce_r=nonce_r,
            peer_identity=id_r,
            local_identity=self.identity,
            is_initiator=True,
        )
        sig_i = _sign(self.key, transcript)
        confirm = bytes([MSG_CONFIRM]) + _pack_fields(spi_raw, sig_i)
        return confirm, sa


class IKEResponder:
    """Server side of the handshake; manages half-open exchanges by SPI."""

    def __init__(self, key: DSAKeyPair | RSAKeyPair,
                 lifetime: SALifetime | None = None):
        self.key = key
        self.identity = encode_public_key(key)
        self.lifetime = lifetime
        self._half_open: dict[int, _HalfOpen] = {}
        self._lock = threading.Lock()  # guards _half_open

    def handle_init(self, message: bytes) -> bytes:
        """Process INIT; returns the RESP message."""
        if not message or message[0] != MSG_INIT:
            raise HandshakeError("expected INIT message")
        nonce_i, gx_raw, id_i_raw = _unpack_fields(message[1:], 3)
        if len(nonce_i) != NONCE_LEN:
            raise HandshakeError("bad initiator nonce length")
        gx = int.from_bytes(gx_raw, "big")
        if not 1 < gx < _GROUP.p - 1:
            raise HandshakeError("initiator DH value out of range")
        id_i = _identity(id_i_raw)

        y = 2 + secrets.randbelow(_GROUP.q - 3)
        gy_raw = int_to_bytes(_GROUP.gpow(y))
        nonce_r = secrets.token_bytes(NONCE_LEN)
        half = _HalfOpen(
            nonce_i=nonce_i, nonce_r=nonce_r, gx=gx_raw, gy=gy_raw,
            peer_identity=id_i,
            shared_secret=int_to_bytes(pow(gx, y, _GROUP.p)),
        )
        with self._lock:
            spi = secrets.randbits(32) or 1
            while spi in self._half_open:
                spi = secrets.randbits(32) or 1
            if len(self._half_open) >= MAX_HALF_OPEN:
                del self._half_open[next(iter(self._half_open))]  # oldest first
            self._half_open[spi] = half

        transcript = _transcript(nonce_i, nonce_r, gx_raw, gy_raw, id_i, self.identity)
        sig_r = _sign(self.key, transcript)
        return bytes([MSG_RESP]) + _pack_fields(
            _U32.pack(spi), nonce_r, gy_raw, self.identity.encode("utf-8"), sig_r
        )

    def handle_confirm(self, message: bytes) -> tuple[bytes, SecurityAssociation]:
        """Process CONFIRM; returns (DONE message, established SA)."""
        if not message or message[0] != MSG_CONFIRM:
            raise HandshakeError("expected CONFIRM message")
        spi_raw, sig_i = _unpack_fields(message[1:], 2)
        spi = _U32.unpack(spi_raw)[0]
        with self._lock:
            half = self._half_open.pop(spi, None)
        if half is None:
            raise HandshakeError(f"no half-open exchange with SPI {spi:#x}")
        transcript = _transcript(half.nonce_i, half.nonce_r, half.gx, half.gy,
                                 half.peer_identity, self.identity)
        _verify(half.peer_identity, transcript, sig_i)
        sa = SecurityAssociation.derive(
            spi=spi,
            shared_secret=half.shared_secret,
            nonce_i=half.nonce_i,
            nonce_r=half.nonce_r,
            peer_identity=half.peer_identity,
            local_identity=self.identity,
            is_initiator=False,
            lifetime=self.lifetime,
        )
        return bytes([MSG_DONE]), sa
