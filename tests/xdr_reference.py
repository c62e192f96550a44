"""XDR one word at a time: the test-only reference codec.

This is the field-by-field marshalling ``repro.rpc.xdr``,
``repro.rpc.message`` and ``repro.nfs.protocol`` had before their fixed
runs of words were compiled into ``struct`` records: one bounds check,
one slice and one 4-byte ``Struct`` call per word.  It stays here,
unchanged in what it puts on the wire, as what the compiled codec is
compared against (``tests/property/test_prop_xdr.py``,
``tests/property/test_prop_fuzz.py``, ``benchmarks/test_ablation_xdr.py``).

The value types (``FAttr``, ``SAttr``, ``FileHandle``, the enums) are the
program's own; only the marshalling is duplicated.
"""

from __future__ import annotations

import struct

from repro.errors import RPCError, XDRError
from repro.fs.inode import FileType
from repro.nfs.protocol import (
    FHSIZE,
    MAX_DATA,
    SATTR_NO_CHANGE,
    FAttr,
    FileHandle,
    FType,
    NFSStat,
    SAttr,
)
from repro.rpc.message import RPC_VERSION, AcceptStat, AuthFlavor, MsgType

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")


class ReferenceEncoder:
    """Append-only XDR writer, a word per call."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def pack_uint(self, value: int) -> "ReferenceEncoder":
        if not 0 <= value < 1 << 32:
            raise XDRError(f"uint out of range: {value}")
        self._buf += _U32.pack(value)
        return self

    def pack_int(self, value: int) -> "ReferenceEncoder":
        if not -(1 << 31) <= value < 1 << 31:
            raise XDRError(f"int out of range: {value}")
        self._buf += _I32.pack(value)
        return self

    def pack_uhyper(self, value: int) -> "ReferenceEncoder":
        if not 0 <= value < 1 << 64:
            raise XDRError(f"uhyper out of range: {value}")
        self._buf += _U64.pack(value)
        return self

    def pack_hyper(self, value: int) -> "ReferenceEncoder":
        if not -(1 << 63) <= value < 1 << 63:
            raise XDRError(f"hyper out of range: {value}")
        self._buf += _I64.pack(value)
        return self

    def pack_bool(self, value: bool) -> "ReferenceEncoder":
        return self.pack_uint(1 if value else 0)

    def pack_enum(self, value: int) -> "ReferenceEncoder":
        return self.pack_int(int(value))

    def pack_fixed_opaque(self, data: bytes, size: int) -> "ReferenceEncoder":
        if len(data) != size:
            raise XDRError(f"fixed opaque must be exactly {size} bytes")
        self._buf += data
        self._pad(size)
        return self

    def pack_opaque(self, data: bytes) -> "ReferenceEncoder":
        self.pack_uint(len(data))
        self._buf += data
        self._pad(len(data))
        return self

    def pack_string(self, text: str) -> "ReferenceEncoder":
        return self.pack_opaque(text.encode("utf-8"))

    def pack_array(self, items, pack_item) -> "ReferenceEncoder":
        self.pack_uint(len(items))
        for item in items:
            pack_item(self, item)
        return self

    def pack_optional(self, value, pack_item) -> "ReferenceEncoder":
        if value is None:
            return self.pack_bool(False)
        self.pack_bool(True)
        pack_item(self, value)
        return self

    def _pad(self, size: int) -> None:
        if size % 4:
            self._buf += b"\x00" * (4 - size % 4)

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class ReferenceDecoder:
    """Cursor-based XDR reader, a slice per field."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise XDRError(
                f"buffer underrun: need {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def unpack_uint(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def unpack_int(self) -> int:
        return _I32.unpack(self._take(4))[0]

    def unpack_uhyper(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def unpack_hyper(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def unpack_bool(self) -> bool:
        value = self.unpack_uint()
        if value not in (0, 1):
            raise XDRError(f"bool must be 0 or 1, got {value}")
        return bool(value)

    def unpack_enum(self) -> int:
        return self.unpack_int()

    def unpack_fixed_opaque(self, size: int) -> bytes:
        data = self._take(size)
        self._skip_pad(size)
        return data

    def unpack_opaque(self, max_size: int | None = None) -> bytes:
        size = self.unpack_uint()
        if max_size is not None and size > max_size:
            raise XDRError(f"opaque of {size} bytes exceeds maximum {max_size}")
        data = self._take(size)
        self._skip_pad(size)
        return data

    def unpack_string(self, max_size: int | None = None) -> str:
        raw = self.unpack_opaque(max_size)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XDRError("string is not valid UTF-8") from exc

    def unpack_array(self, unpack_item, max_items: int | None = None) -> list:
        count = self.unpack_uint()
        if max_items is not None and count > max_items:
            raise XDRError(f"array of {count} items exceeds maximum {max_items}")
        return [unpack_item(self) for _ in range(count)]

    def unpack_optional(self, unpack_item):
        if self.unpack_bool():
            return unpack_item(self)
        return None

    def _skip_pad(self, size: int) -> None:
        if size % 4:
            pad = self._take(4 - size % 4)
            if pad.strip(b"\x00"):
                raise XDRError("nonzero padding bytes")

    def done(self) -> None:
        if self._pos != len(self._data):
            raise XDRError(
                f"{len(self._data) - self._pos} unconsumed bytes at end of message"
            )

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos


# -- RPC messages -------------------------------------------------------------


def encode_call(xid: int, prog: int, vers: int, proc: int, args: bytes = b"",
                auth_flavor: int = AuthFlavor.AUTH_NONE,
                auth_body: bytes = b"") -> bytes:
    enc = ReferenceEncoder()
    enc.pack_uint(xid)
    enc.pack_enum(MsgType.CALL)
    enc.pack_uint(RPC_VERSION)
    enc.pack_uint(prog)
    enc.pack_uint(vers)
    enc.pack_uint(proc)
    enc.pack_enum(auth_flavor)
    enc.pack_opaque(auth_body)
    enc.pack_enum(AuthFlavor.AUTH_NONE)  # verifier flavor
    enc.pack_opaque(b"")
    return enc.getvalue() + args


def decode_call(data: bytes) -> dict:
    """The call's fields by name (``auth_flavor`` as the raw word).

    Unlike the parent's ``CallMessage.decode`` this does not turn the
    flavor into an ``AuthFlavor``: that conversion was the untyped
    ``ValueError`` the compiled codec replaces by an ``RPCError``.
    """
    dec = ReferenceDecoder(data)
    xid = dec.unpack_uint()
    mtype = dec.unpack_enum()
    if mtype != MsgType.CALL:
        raise RPCError(f"expected CALL, got message type {mtype}")
    rpcvers = dec.unpack_uint()
    if rpcvers != RPC_VERSION:
        raise RPCError(f"unsupported RPC version {rpcvers}")
    prog = dec.unpack_uint()
    vers = dec.unpack_uint()
    proc = dec.unpack_uint()
    flavor = dec.unpack_enum()
    auth_body = dec.unpack_opaque(max_size=400)
    dec.unpack_enum()  # verifier flavor (ignored)
    dec.unpack_opaque(max_size=400)
    args = data[len(data) - dec.remaining :]
    return dict(xid=xid, prog=prog, vers=vers, proc=proc, args=args,
                auth_flavor=flavor, auth_body=auth_body)


def encode_reply(xid: int, stat: int = AcceptStat.SUCCESS,
                 results: bytes = b"") -> bytes:
    enc = ReferenceEncoder()
    enc.pack_uint(xid)
    enc.pack_enum(MsgType.REPLY)
    enc.pack_enum(0)  # reply_stat = MSG_ACCEPTED
    enc.pack_enum(AuthFlavor.AUTH_NONE)  # verifier
    enc.pack_opaque(b"")
    enc.pack_enum(stat)
    return enc.getvalue() + results


def decode_reply(data: bytes) -> dict:
    """The reply's fields by name (``stat`` as the raw word)."""
    dec = ReferenceDecoder(data)
    xid = dec.unpack_uint()
    mtype = dec.unpack_enum()
    if mtype != MsgType.REPLY:
        raise RPCError(f"expected REPLY, got message type {mtype}")
    reply_stat = dec.unpack_enum()
    if reply_stat != 0:
        raise RPCError(f"RPC message denied (reply_stat={reply_stat})")
    dec.unpack_enum()  # verifier flavor
    dec.unpack_opaque(max_size=400)
    stat = dec.unpack_enum()
    results = data[len(data) - dec.remaining :]
    return dict(xid=xid, stat=stat, results=results)


# -- NFS records --------------------------------------------------------------

_FH_STRUCT = struct.Struct(">QQ16s")

_FILETYPE_TO_FTYPE = {FileType.REGULAR: FType.NFREG,
                      FileType.DIRECTORY: FType.NFDIR,
                      FileType.SYMLINK: FType.NFLNK}
_TYPE_MODE_BITS = {FType.NFREG: 0o100000, FType.NFDIR: 0o040000,
                   FType.NFLNK: 0o120000}


def pack_fhandle(enc: ReferenceEncoder, fh: FileHandle) -> None:
    enc.pack_fixed_opaque(_FH_STRUCT.pack(fh.ino, fh.generation, b""), FHSIZE)


def unpack_fhandle(dec: ReferenceDecoder) -> FileHandle:
    raw = dec.unpack_fixed_opaque(FHSIZE)
    ino, generation, _pad = _FH_STRUCT.unpack(raw)
    return FileHandle(ino=ino, generation=generation)


def pack_fattr(enc: ReferenceEncoder, inode, block_size: int) -> None:
    ftype = _FILETYPE_TO_FTYPE[inode.ftype]
    mode = (inode.mode & 0o7777) | _TYPE_MODE_BITS[ftype]
    enc.pack_enum(ftype)
    enc.pack_uint(mode)
    enc.pack_uint(inode.nlink)
    enc.pack_uint(inode.uid)
    enc.pack_uint(inode.gid)
    enc.pack_uint(min(inode.size, 0xFFFFFFFF))
    enc.pack_uint(block_size)
    enc.pack_uint(0)  # rdev
    enc.pack_uint((inode.size + block_size - 1) // block_size)
    enc.pack_uint(0)  # fsid
    enc.pack_uint(inode.ino)
    for t in (inode.atime, inode.mtime, inode.ctime):
        enc.pack_uint(int(t) & 0xFFFFFFFF)
        enc.pack_uint(int((t % 1) * 1_000_000))


def unpack_fattr(dec: ReferenceDecoder) -> FAttr:
    ftype = FType(dec.unpack_enum())
    mode = dec.unpack_uint()
    nlink = dec.unpack_uint()
    uid = dec.unpack_uint()
    gid = dec.unpack_uint()
    size = dec.unpack_uint()
    blocksize = dec.unpack_uint()
    dec.unpack_uint()  # rdev
    blocks = dec.unpack_uint()
    dec.unpack_uint()  # fsid
    fileid = dec.unpack_uint()
    times = []
    for _ in range(3):
        sec = dec.unpack_uint()
        usec = dec.unpack_uint()
        times.append(sec + usec / 1_000_000)
    return FAttr(ftype=ftype, mode=mode, nlink=nlink, uid=uid, gid=gid,
                 size=size, blocksize=blocksize, blocks=blocks, fileid=fileid,
                 atime=times[0], mtime=times[1], ctime=times[2])


def pack_sattr(enc: ReferenceEncoder, sattr: SAttr) -> None:
    for value in (sattr.mode, sattr.uid, sattr.gid, sattr.size):
        enc.pack_uint(SATTR_NO_CHANGE if value is None else value)
    for t in (sattr.atime, sattr.mtime):
        if t is None:
            enc.pack_uint(SATTR_NO_CHANGE)
            enc.pack_uint(SATTR_NO_CHANGE)
        else:
            enc.pack_uint(int(t) & 0xFFFFFFFF)
            enc.pack_uint(int((t % 1) * 1_000_000))


def unpack_sattr(dec: ReferenceDecoder) -> SAttr:
    raw = [dec.unpack_uint() for _ in range(4)]
    mode, uid, gid, size = (None if v == SATTR_NO_CHANGE else v for v in raw)
    times: list[float | None] = []
    for _ in range(2):
        sec = dec.unpack_uint()
        usec = dec.unpack_uint()
        times.append(None if sec == SATTR_NO_CHANGE else sec + usec / 1_000_000)
    return SAttr(mode=mode, uid=uid, gid=gid, size=size,
                 atime=times[0], mtime=times[1])


def read_args(fh: FileHandle, offset: int, count: int) -> bytes:
    enc = ReferenceEncoder()
    pack_fhandle(enc, fh)
    enc.pack_uint(offset)
    enc.pack_uint(count)
    enc.pack_uint(count)
    return enc.getvalue()


def decode_read_args(data: bytes) -> tuple[FileHandle, int, int]:
    dec = ReferenceDecoder(data)
    fh = unpack_fhandle(dec)
    offset = dec.unpack_uint()
    count = dec.unpack_uint()
    dec.unpack_uint()  # totalcount
    dec.done()
    return fh, offset, count


def write_args(fh: FileHandle, offset: int, data: bytes) -> bytes:
    enc = ReferenceEncoder()
    pack_fhandle(enc, fh)
    enc.pack_uint(0)
    enc.pack_uint(offset)
    enc.pack_uint(len(data))
    enc.pack_opaque(data)
    return enc.getvalue()


def decode_write_args(data: bytes) -> tuple[FileHandle, int, bytes]:
    dec = ReferenceDecoder(data)
    fh = unpack_fhandle(dec)
    dec.unpack_uint()  # beginoffset
    offset = dec.unpack_uint()
    dec.unpack_uint()  # totalcount
    payload = dec.unpack_opaque(MAX_DATA)
    dec.done()
    return fh, offset, payload


def lookup_args(fh: FileHandle, name: str) -> bytes:
    enc = ReferenceEncoder()
    pack_fhandle(enc, fh)
    enc.pack_string(name)
    return enc.getvalue()


def attrstat_ok(inode, mode: int, block_size: int) -> bytes:
    """A successful attrstat the way the parent's server built it: the
    reported ``mode`` written into the inode around the pack."""
    enc = ReferenceEncoder()
    enc.pack_enum(NFSStat.NFS_OK)
    original = inode.mode
    try:
        inode.mode = mode
        pack_fattr(enc, inode, block_size)
    finally:
        inode.mode = original
    return enc.getvalue()


def read_ok(inode, mode: int, block_size: int, data: bytes) -> bytes:
    enc = ReferenceEncoder()
    enc.pack_enum(NFSStat.NFS_OK)
    original = inode.mode
    try:
        inode.mode = mode
        pack_fattr(enc, inode, block_size)
    finally:
        inode.mode = original
    enc.pack_opaque(data)
    return enc.getvalue()


def decode_attrstat(data: bytes) -> FAttr:
    dec = ReferenceDecoder(data)
    status = dec.unpack_enum()
    assert status == NFSStat.NFS_OK
    attr = unpack_fattr(dec)
    dec.done()
    return attr


def decode_read_ok(data: bytes) -> bytes:
    dec = ReferenceDecoder(data)
    status = dec.unpack_enum()
    assert status == NFSStat.NFS_OK
    unpack_fattr(dec)
    payload = dec.unpack_opaque(MAX_DATA)
    dec.done()
    return payload
