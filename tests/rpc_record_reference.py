"""RFC 1831 record reading two ``recv_into`` loops at a time: the test-only
reference.

This is the record reader ``repro.rpc.transport`` had before one buffered
``_RecordReader`` per socket replaced it: every fragment marker and every
fragment body is received into a ``bytearray`` of its own, with as many
``recv_into`` calls as the kernel hands the bytes over in.  It stays here,
unchanged, as what the buffered reader is compared against
(``tests/property/test_prop_rpc_record.py``).
"""

from __future__ import annotations

import struct

from repro.errors import TransportError
from repro.rpc import transport

_RECORD_HEADER = struct.Struct(">I")
_LAST_FRAGMENT = 0x80000000


def reference_recv_exact(sock, n: int) -> bytearray:
    """``n`` bytes received into a buffer of their own."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            count = sock.recv_into(view[got:])
        except OSError as exc:
            raise TransportError(f"receive failed: {exc}") from exc
        if not count:
            raise TransportError("connection closed mid-record")
        got += count
    return buf


def reference_recv_record(sock) -> bytearray:
    """One whole record, its fragments joined; the cap is
    :data:`repro.rpc.transport.MAX_RECORD` as it is at call time."""
    record = bytearray()
    while True:
        header = _RECORD_HEADER.unpack(reference_recv_exact(sock, 4))[0]
        length = header & ~_LAST_FRAGMENT
        if len(record) + length > transport.MAX_RECORD:
            raise TransportError(
                f"record of more than {transport.MAX_RECORD} bytes is implausible")
        fragment = reference_recv_exact(sock, length)
        if record:
            record += fragment
        else:
            record = fragment
        if header & _LAST_FRAGMENT:
            return record
