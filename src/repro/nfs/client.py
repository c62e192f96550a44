"""NFS client: procedure stubs plus a small file-oriented convenience API.

The convenience layer (:meth:`NFSClient.open`, returning
:class:`RemoteFile`) gives examples and benchmarks stdio-like buffered
I/O — relevant because Bonnie's per-character phases measure exactly that
path (putc/getc through a user-space buffer, flushed in block-size units).
"""

from __future__ import annotations

from repro.errors import NFSError
from repro.nfs.protocol import (
    MAX_DATA,
    NFS_PROGRAM,
    NFS_VERSION,
    FAttr,
    FileHandle,
    NFSStat,
    Proc,
    SAttr,
    pack_fhandle,
    pack_read_args,
    pack_sattr,
    pack_write_args,
    raise_for_status,
    unpack_diropok,
    unpack_fattr,
    unpack_read_ok,
)
from repro.rpc.client import RPCClient
from repro.rpc.transport import Transport
from repro.rpc.xdr import XDREncoder


class NFSClient:
    """Synchronous NFSv2 client over any transport."""

    def __init__(self, transport: Transport, root: FileHandle):
        self._rpc = RPCClient(transport, NFS_PROGRAM, NFS_VERSION)
        self.root = root

    # -- raw procedures ----------------------------------------------------

    def null(self) -> None:
        self._rpc.ping()

    def getattr(self, fh: FileHandle) -> FAttr:
        enc = XDREncoder()
        pack_fhandle(enc, fh)
        dec = self._rpc.call(Proc.GETATTR, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        attr = unpack_fattr(dec)
        dec.done()
        return attr

    def setattr(self, fh: FileHandle, sattr: SAttr) -> FAttr:
        enc = XDREncoder()
        pack_fhandle(enc, fh)
        pack_sattr(enc, sattr)
        dec = self._rpc.call(Proc.SETATTR, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        attr = unpack_fattr(dec)
        dec.done()
        return attr

    def lookup(self, dir_fh: FileHandle, name: str) -> tuple[FileHandle, FAttr]:
        enc = XDREncoder()
        pack_fhandle(enc, dir_fh)
        enc.pack_string(name)
        dec = self._rpc.call(Proc.LOOKUP, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        fh, attr = unpack_diropok(dec)
        dec.unpack_optional(lambda d: d.unpack_string())
        dec.done()
        return fh, attr

    def readlink(self, fh: FileHandle) -> str:
        enc = XDREncoder()
        pack_fhandle(enc, fh)
        dec = self._rpc.call(Proc.READLINK, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        target = dec.unpack_string()
        dec.done()
        return target

    def read(self, fh: FileHandle, offset: int, count: int) -> bytes:
        enc = XDREncoder()
        pack_read_args(enc, fh, offset, count)
        dec = self._rpc.call(Proc.READ, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        data = unpack_read_ok(dec)
        dec.done()
        return data

    def write(self, fh: FileHandle, offset: int, data: bytes) -> FAttr:
        if len(data) > MAX_DATA:
            raise NFSError(NFSStat.NFSERR_INVAL,
                           f"write of {len(data)} bytes exceeds {MAX_DATA}")
        enc = XDREncoder()
        pack_write_args(enc, fh, offset, data)
        dec = self._rpc.call(Proc.WRITE, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        attr = unpack_fattr(dec)
        dec.done()
        return attr

    def create(self, dir_fh: FileHandle, name: str,
               sattr: SAttr | None = None) -> tuple[FileHandle, FAttr, str | None]:
        """CREATE; the third result is the creator credential, if the
        server issued one (DisCFS extension)."""
        return self._create_like(Proc.CREATE, dir_fh, name, sattr)

    def mkdir(self, dir_fh: FileHandle, name: str,
              sattr: SAttr | None = None) -> tuple[FileHandle, FAttr, str | None]:
        return self._create_like(Proc.MKDIR, dir_fh, name, sattr)

    def _create_like(self, proc: int, dir_fh: FileHandle, name: str,
                     sattr: SAttr | None) -> tuple[FileHandle, FAttr, str | None]:
        enc = XDREncoder()
        pack_fhandle(enc, dir_fh)
        enc.pack_string(name)
        pack_sattr(enc, sattr if sattr is not None else SAttr())
        dec = self._rpc.call(proc, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        fh, attr = unpack_diropok(dec)
        credential = dec.unpack_optional(lambda d: d.unpack_string())
        dec.done()
        return fh, attr, credential

    def remove(self, dir_fh: FileHandle, name: str) -> None:
        self._dirop_status(Proc.REMOVE, dir_fh, name)

    def rmdir(self, dir_fh: FileHandle, name: str) -> None:
        self._dirop_status(Proc.RMDIR, dir_fh, name)

    def _dirop_status(self, proc: int, dir_fh: FileHandle, name: str) -> None:
        enc = XDREncoder()
        pack_fhandle(enc, dir_fh)
        enc.pack_string(name)
        dec = self._rpc.call(proc, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        dec.done()

    def rename(self, from_dir: FileHandle, from_name: str,
               to_dir: FileHandle, to_name: str) -> None:
        enc = XDREncoder()
        pack_fhandle(enc, from_dir)
        enc.pack_string(from_name)
        pack_fhandle(enc, to_dir)
        enc.pack_string(to_name)
        dec = self._rpc.call(Proc.RENAME, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        dec.done()

    def link(self, target: FileHandle, dir_fh: FileHandle, name: str) -> None:
        enc = XDREncoder()
        pack_fhandle(enc, target)
        pack_fhandle(enc, dir_fh)
        enc.pack_string(name)
        dec = self._rpc.call(Proc.LINK, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        dec.done()

    def symlink(self, dir_fh: FileHandle, name: str, target: str) -> None:
        enc = XDREncoder()
        pack_fhandle(enc, dir_fh)
        enc.pack_string(name)
        enc.pack_string(target)
        pack_sattr(enc, SAttr())
        dec = self._rpc.call(Proc.SYMLINK, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        dec.done()

    def readdir(self, dir_fh: FileHandle, cookie: int = 0,
                count: int = MAX_DATA) -> tuple[list[tuple[int, str, int]], bool]:
        """One READDIR round trip: ([(fileid, name, cookie)...], eof)."""
        enc = XDREncoder()
        pack_fhandle(enc, dir_fh)
        enc.pack_uint(cookie)
        enc.pack_uint(count)
        dec = self._rpc.call(Proc.READDIR, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        entries: list[tuple[int, str, int]] = []
        while dec.unpack_bool():
            fileid = dec.unpack_uint()
            name = dec.unpack_string()
            next_cookie = dec.unpack_uint()
            entries.append((fileid, name, next_cookie))
        eof = dec.unpack_bool()
        dec.done()
        return entries, eof

    def readdir_all(self, dir_fh: FileHandle) -> list[tuple[int, str]]:
        """Iterate READDIR to completion."""
        out: list[tuple[int, str]] = []
        cookie = 0
        while True:
            entries, eof = self.readdir(dir_fh, cookie)
            out.extend((fileid, name) for fileid, name, _c in entries)
            if eof or not entries:
                return out
            cookie = entries[-1][2]

    def statfs(self) -> dict[str, int]:
        enc = XDREncoder()
        pack_fhandle(enc, self.root)
        dec = self._rpc.call(Proc.STATFS, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        result = {
            "tsize": dec.unpack_uint(),
            "bsize": dec.unpack_uint(),
            "blocks": dec.unpack_uint(),
            "bfree": dec.unpack_uint(),
            "bavail": dec.unpack_uint(),
        }
        dec.done()
        return result

    # -- DisCFS extensions -------------------------------------------------

    def submit_credential(self, text: str) -> str:
        enc = XDREncoder()
        enc.pack_string(text)
        dec = self._rpc.call(Proc.SUBMITCRED, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        message = dec.unpack_string()
        dec.done()
        return message

    def revoke(self, payload: str) -> str:
        enc = XDREncoder()
        enc.pack_string(payload)
        dec = self._rpc.call(Proc.REVOKE, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        message = dec.unpack_string()
        dec.done()
        return message

    def list_credentials(self) -> list[str]:
        dec = self._rpc.call(Proc.LISTCREDS)
        raise_for_status(dec.unpack_enum())
        creds = dec.unpack_array(lambda d: d.unpack_string())
        dec.done()
        return creds

    def audit_log(self, limit: int = 100) -> list[str]:
        """Fetch formatted audit records (DisCFS extension; admin only)."""
        enc = XDREncoder()
        enc.pack_uint(limit)
        dec = self._rpc.call(Proc.AUDITLOG, enc.getvalue())
        raise_for_status(dec.unpack_enum())
        lines = dec.unpack_array(lambda d: d.unpack_string())
        dec.done()
        return lines

    # -- path / file conveniences -----------------------------------------

    def walk(self, path: str, base: FileHandle | None = None) -> tuple[FileHandle, FAttr]:
        """Resolve a ``/``-separated path from ``base`` (default: root)."""
        fh = base if base is not None else self.root
        attr = self.getattr(fh)
        for part in (p for p in path.split("/") if p):
            fh, attr = self.lookup(fh, part)
        return fh, attr

    def open(self, fh: FileHandle, buffer_size: int = MAX_DATA) -> "RemoteFile":
        return RemoteFile(self, fh, buffer_size)

    def close(self) -> None:
        self._rpc.close()


class RemoteFile:
    """Buffered sequential I/O over one remote file (stdio analogue).

    Maintains independent read/write positions like a C ``FILE`` opened
    for update; Bonnie's putc/getc/rewrite loops run through this class.
    """

    def __init__(self, client: NFSClient, fh: FileHandle, buffer_size: int = MAX_DATA):
        if buffer_size <= 0 or buffer_size > MAX_DATA:
            buffer_size = MAX_DATA
        self._client = client
        self._fh = fh
        self._buffer_size = buffer_size
        self._wbuf = bytearray()
        self._wbuf_offset = 0
        self._pos = 0
        self._rbuf = b""
        self._rbuf_offset = 0

    # -- writing ----------------------------------------------------------

    def write(self, data: bytes) -> int:
        if not self._wbuf:
            self._wbuf_offset = self._pos
        elif self._wbuf_offset + len(self._wbuf) != self._pos:
            self.flush()
            self._wbuf_offset = self._pos
        self._wbuf += data
        self._pos += len(data)
        while len(self._wbuf) >= self._buffer_size:
            chunk = bytes(self._wbuf[: self._buffer_size])
            self._client.write(self._fh, self._wbuf_offset, chunk)
            del self._wbuf[: self._buffer_size]
            self._wbuf_offset += len(chunk)
        return len(data)

    def putc(self, byte: int) -> None:
        self.write(bytes((byte,)))

    def flush(self) -> None:
        if self._wbuf:
            self._client.write(self._fh, self._wbuf_offset, bytes(self._wbuf))
            self._wbuf.clear()

    # -- reading ----------------------------------------------------------

    def read(self, count: int) -> bytes:
        self.flush()
        out = bytearray()
        while count > 0:
            buffered = self._buffered_read(count)
            if not buffered:
                break
            out += buffered
            count -= len(buffered)
        return bytes(out)

    def getc(self) -> int | None:
        data = self.read(1)
        return data[0] if data else None

    def _buffered_read(self, count: int) -> bytes:
        start = self._pos - self._rbuf_offset
        if 0 <= start < len(self._rbuf):
            chunk = self._rbuf[start : start + count]
        else:
            self._rbuf = self._client.read(self._fh, self._pos, self._buffer_size)
            self._rbuf_offset = self._pos
            if not self._rbuf:
                return b""
            chunk = self._rbuf[:count]
        self._pos += len(chunk)
        return chunk

    # -- positioning --------------------------------------------------------

    def seek(self, offset: int) -> None:
        self.flush()
        self._pos = offset

    def tell(self) -> int:
        return self._pos

    def __enter__(self) -> "RemoteFile":
        return self

    def __exit__(self, *exc) -> None:
        self.flush()
