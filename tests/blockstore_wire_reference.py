"""The block-store program's wire format, written out by hand.

These are the per-procedure pack sequences ``repro.storage.net`` had on
its client and server halves before both were derived from the one
``PROCEDURES`` table — kept here, unchanged in what they put on the
wire, as the oracle the table is compared against
(``tests/property/test_prop_blockstore_wire.py``): a row edited by
mistake changes the bytes and fails the differential.

``ARGS[name](*values)`` is what the old client sent after the session
token, ``RESULTS[name](value)`` what the old server sent after the OK
status; :func:`request`, :func:`reply` and :func:`denial` add the v2
envelope the way ``_frame`` and ``_gated`` did.
"""

from __future__ import annotations

from repro.rpc.xdr import XDREncoder


def _void() -> bytes:
    return b""


def _uint(value: int) -> bytes:
    return XDREncoder().pack_uint(value).getvalue()


def _opaque(data: bytes) -> bytes:
    return XDREncoder().pack_opaque(data).getvalue()


def _string(text: str) -> bytes:
    return XDREncoder().pack_string(text).getvalue()


def _write_args(block_no: int, data: bytes) -> bytes:
    return XDREncoder().pack_uint(block_no).pack_opaque(data).getvalue()


def _read_many_args(block_nos: list[int]) -> bytes:
    enc = XDREncoder()
    enc.pack_array(block_nos, lambda e, b: e.pack_uint(b))
    return enc.getvalue()


def _write_many_args(items: list[tuple[int, bytes]]) -> bytes:
    enc = XDREncoder()

    def pack_item(e: XDREncoder, item: tuple[int, bytes]) -> None:
        e.pack_uint(item[0])
        e.pack_opaque(item[1])

    enc.pack_array(items, pack_item)
    return enc.getvalue()


def _list_args(start: int, limit: int) -> bytes:
    return XDREncoder().pack_uint(start).pack_uint(limit).getvalue()


def _session_open_args(identity: str, tenant: str, rights: str,
                       credentials: list[str], nonce: bytes,
                       signature: str) -> bytes:
    enc = XDREncoder()
    enc.pack_string(identity)
    enc.pack_string(tenant)
    enc.pack_string(rights)
    enc.pack_array(credentials, lambda e, c: e.pack_string(c))
    enc.pack_opaque(nonce)
    enc.pack_string(signature)
    return enc.getvalue()


def _geom_result(value: tuple[int, int, str]) -> bytes:
    num_blocks, block_size, description = value
    return (
        XDREncoder()
        .pack_uint(num_blocks)
        .pack_uint(block_size)
        .pack_string(description)
        .getvalue()
    )


def _read_many_result(blocks: list[bytes]) -> bytes:
    enc = XDREncoder()
    enc.pack_array(blocks, lambda e, b: e.pack_opaque(b))
    return enc.getvalue()


def _list_result(page: list[int]) -> bytes:
    enc = XDREncoder()
    enc.pack_array(page, lambda e, b: e.pack_uint(b))
    return enc.getvalue()


def _session_open_result(value: tuple[bytes, str]) -> bytes:
    token, granted = value
    return XDREncoder().pack_opaque(token).pack_string(granted).getvalue()


#: name -> (procedure number, argument encoder, result encoder)
_WIRE = {
    "GEOM": (1, _void, _geom_result),
    "READ": (2, _uint, _opaque),
    "WRITE": (3, _write_args, lambda value: b""),
    "READ_MANY": (4, _read_many_args, _read_many_result),
    "WRITE_MANY": (5, _write_many_args, lambda value: b""),
    "FLUSH": (6, _void, lambda value: b""),
    "USED": (7, _void,
             lambda used: XDREncoder().pack_uhyper(used).getvalue()),
    "CONTAINS": (8, _uint,
                 lambda found: XDREncoder().pack_bool(found).getvalue()),
    "LIST": (9, _list_args, _list_result),
    "STATS": (10, _void,
              lambda text: XDREncoder().pack_string(text).getvalue()),
    "CHALLENGE": (11, _void, _opaque),
    "SESSION_OPEN": (12, _session_open_args, _session_open_result),
    "REVOKE": (13, _string, _string),
}

NUMBERS = {name: row[0] for name, row in _WIRE.items()}
ARGS = {name: row[1] for name, row in _WIRE.items()}
RESULTS = {name: row[2] for name, row in _WIRE.items()}


def request(token: bytes, args: bytes) -> bytes:
    """The old client's ``_frame``: session token, then the arguments."""
    return XDREncoder().pack_opaque(token).getvalue() + args


def reply(payload: bytes) -> bytes:
    """The old server's OK reply: status 0, then the result."""
    return XDREncoder().pack_uint(0).getvalue() + payload


def denial(code: int, message: str) -> bytes:
    return XDREncoder().pack_uint(code).pack_string(message).getvalue()
