"""ESP-like record layer over an RPC transport.

Record format (all integers big-endian)::

    type(1) | spi(4) | seq(8) | ciphertext | hmac-sha256(32)

The MAC covers type, SPI, sequence number and ciphertext
(encrypt-then-MAC), and is checked before anything is decrypted.  Each
direction of an SA has its own keys; a record's ChaCha20 nonce is
``spi(4) | seq(8)`` and its block counter starts at 0, so every record
has a keystream of its own.  Sequence numbers must strictly increase (a
replay window of one: RPC is one call at a time per SA).

:class:`SecureTransport` is a drop-in RPC transport: the first call runs
the IKE handshake transparently.  :class:`SecureChannelServer` wraps a
:class:`repro.rpc.server.RPCServer`, unwrapping records, looking up the SA
by SPI, and dispatching with ``peer_identity`` set to the key proven at
handshake time — from here on, the DisCFS server can treat "request
arrived on SA" as "request signed by key".
"""

from __future__ import annotations

import struct
import threading

from repro.crypto.cipher import StreamCipher
from repro.crypto.hashes import constant_time_equal, hmac_digest
from repro.errors import ChannelError, HandshakeError, IntegrityError
from repro.ipsec.ike import MSG_DONE, IKEInitiator, IKEResponder
from repro.ipsec.sa import DirectionState, SecurityAssociation
from repro.rpc.transport import Transport, TransportStats

MSG_DATA = 16

_HEADER = struct.Struct(">BIQ")
_MAC_LEN = 32
_RECORD_OVERHEAD = _HEADER.size + _MAC_LEN


def _cipher(direction: DirectionState, spi: int, seq: int) -> StreamCipher:
    # A nonce of its own per record (SPI and sequence number, as ESP does
    # with ChaCha20), block counter from 0: no two records of an SA share
    # keystream, however many there are and however long each is.
    return StreamCipher(direction.enc_key,
                        spi.to_bytes(4, "big") + seq.to_bytes(8, "big"))


def _seal(direction: DirectionState, spi: int, payload: bytes) -> bytes:
    seq = direction.allocate_seq()
    sealed = _HEADER.pack(MSG_DATA, spi, seq) \
        + _cipher(direction, spi, seq).process(payload)
    return sealed + hmac_digest(direction.mac_key, sealed)


def _open(direction: DirectionState, expected_spi: int, record: bytes) -> bytes:
    if len(record) < _RECORD_OVERHEAD:
        raise IntegrityError("record too short")
    mtype, spi, seq = _HEADER.unpack_from(record)
    if mtype != MSG_DATA:
        raise IntegrityError(f"unexpected record type {mtype}")
    if spi != expected_spi:
        raise IntegrityError(f"SPI mismatch: record {spi:#x}, SA {expected_spi:#x}")
    view = memoryview(record)  # slices of it copy nothing
    sealed, mac = view[:-_MAC_LEN], view[-_MAC_LEN:]
    if not constant_time_equal(mac, hmac_digest(direction.mac_key, sealed)):
        raise IntegrityError("record MAC verification failed")
    direction.accept_seq(seq)
    return _cipher(direction, spi, seq).process(sealed[_HEADER.size:])


class SecureTransport:
    """Client-side transport: IKE on first use, then sealed records.

    Wraps any inner transport; stats count plaintext RPC payload sizes so
    higher layers see consistent numbers with or without the channel.
    """

    def __init__(self, inner: Transport, initiator: IKEInitiator):
        self._inner = inner
        self._initiator = initiator
        self._sa: SecurityAssociation | None = None
        self._lock = threading.Lock()
        self.stats = TransportStats()

    @property
    def sa(self) -> SecurityAssociation | None:
        return self._sa

    @property
    def peer_identity(self) -> str | None:
        return self._sa.peer_identity if self._sa else None

    def handshake(self) -> SecurityAssociation:
        """Run the IKE exchange now (otherwise it runs on first call)."""
        with self._lock:
            return self._ensure_sa()

    def _ensure_sa(self) -> SecurityAssociation:
        if self._sa is not None:
            return self._sa
        response = self._inner.call(self._initiator.initiate())
        confirm, sa = self._initiator.handle_response(response)
        done = self._inner.call(confirm)
        if not done or done[0] != MSG_DONE:
            raise HandshakeError("server did not complete the handshake")
        self._sa = sa
        return sa

    def call(self, request: bytes) -> bytes:
        with self._lock:
            sa = self._ensure_sa()
            sa.check_alive()
            self.stats.calls += 1
            self.stats.bytes_sent += len(request)
            record = _seal(sa.send, sa.spi, request)
            sa.account(sa.send, len(record))
            raw = self._inner.call(record)
            response = _open(sa.recv, sa.spi, raw)
            sa.account(sa.recv, len(raw))
            self.stats.bytes_received += len(response)
            return response

    def rekey(self) -> SecurityAssociation:
        """Drop the SA and negotiate a fresh one."""
        with self._lock:
            self._sa = None
            return self._ensure_sa()

    def close(self) -> None:
        self._inner.close()


class SecureChannelServer:
    """Server-side demultiplexer: handshakes + sealed RPC dispatch.

    ``handler`` receives ``(plaintext_request, peer_identity)`` and returns
    the plaintext response — typically
    ``lambda req, ident: rpc_server.handle(req, peer_identity=ident)``.
    """

    def __init__(self, responder: IKEResponder, handler):
        self._responder = responder
        self._handler = handler
        self._sas: dict[int, SecurityAssociation] = {}
        self._lock = threading.Lock()

    @property
    def active_sas(self) -> list[SecurityAssociation]:
        with self._lock:
            return list(self._sas.values())

    def revoke_identity(self, identity: str) -> int:
        """Tear down every SA bound to ``identity``; returns the count.

        Used by DisCFS revocation: once the administrator declares a key
        bad, its existing channels die too.
        """
        with self._lock:
            doomed = [spi for spi, sa in self._sas.items()
                      if sa.peer_identity == identity]
            for spi in doomed:
                del self._sas[spi]
            return len(doomed)

    def handle(self, message: bytes) -> bytes:
        """The ``bytes -> bytes`` entry point pluggable into any transport."""
        if not message:
            raise ChannelError("empty channel message")
        mtype = message[0]
        if mtype == MSG_DATA:
            return self._handle_data(message)
        if mtype == 1:  # MSG_INIT
            return self._responder.handle_init(message)
        if mtype == 3:  # MSG_CONFIRM
            done, sa = self._responder.handle_confirm(message)
            with self._lock:
                self._sas[sa.spi] = sa
            return done
        raise ChannelError(f"unexpected channel message type {mtype}")

    def _handle_data(self, record: bytes) -> bytes:
        if len(record) < _HEADER.size:
            raise IntegrityError("record too short")
        _mtype, spi, _seq = _HEADER.unpack_from(record)
        with self._lock:
            sa = self._sas.get(spi)
        if sa is None:
            raise IntegrityError(f"no SA with SPI {spi:#x}")
        sa.check_alive()
        request = _open(sa.recv, sa.spi, record)
        sa.account(sa.recv, len(record))
        response = self._handler(request, sa.peer_identity)
        sealed = _seal(sa.send, sa.spi, response)
        sa.account(sa.send, len(sealed))
        return sealed
