"""NFS client: procedure stubs plus a small file-oriented convenience API.

Each stub is one call of a row of :data:`repro.nfs.protocol.PROCEDURES`
(:meth:`repro.rpc.client.RPCClient.invoke` packs, calls, checks the
status and unpacks); what is written here is only the shaping of values
a row does not carry.  The convenience layer (:meth:`NFSClient.open`,
returning :class:`RemoteFile`) gives examples and benchmarks stdio-like
buffered I/O — relevant because Bonnie's per-character phases measure
exactly that path (putc/getc through a user-space buffer, flushed in
block-size units).
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.errors import NFSError
from repro.nfs.protocol import (
    AUDITLOG,
    CREATE,
    GETATTR,
    LINK,
    LISTCREDS,
    LOOKUP,
    MAX_DATA,
    MKDIR,
    NFS_PROGRAM,
    NFS_VERSION,
    READ,
    READDIR,
    READLINK,
    REMOVE,
    RENAME,
    REVOKE,
    RMDIR,
    SETATTR,
    STATFS,
    SUBMITCRED,
    SYMLINK,
    WRITE,
    FAttr,
    FileHandle,
    NFSStat,
    SAttr,
)
from repro.rpc.client import RPCClient
from repro.rpc.transport import Transport


class NFSClient:
    """Synchronous NFSv2 client over any transport."""

    def __init__(self, transport: Transport, root: FileHandle):
        self._rpc = RPCClient(transport, NFS_PROGRAM, NFS_VERSION)
        self.root = root

    # -- raw procedures ----------------------------------------------------

    def null(self) -> None:
        self._rpc.ping()

    def getattr(self, fh: FileHandle) -> FAttr:
        return self._rpc.invoke(GETATTR, fh)

    def setattr(self, fh: FileHandle, sattr: SAttr) -> FAttr:
        return self._rpc.invoke(SETATTR, fh, sattr)

    def lookup(self, dir_fh: FileHandle, name: str) -> tuple[FileHandle, FAttr]:
        fh, attr, _credential = self._rpc.invoke(LOOKUP, dir_fh, name)
        return fh, attr

    def readlink(self, fh: FileHandle) -> str:
        return self._rpc.invoke(READLINK, fh)

    def read(self, fh: FileHandle, offset: int, count: int) -> bytes:
        return self._rpc.invoke(READ, fh, offset, count)

    def write(self, fh: FileHandle, offset: int, data: bytes) -> FAttr:
        if len(data) > MAX_DATA:
            raise NFSError(NFSStat.NFSERR_INVAL,
                           f"write of {len(data)} bytes exceeds {MAX_DATA}")
        return self._rpc.invoke(WRITE, fh, offset, data)

    def create(self, dir_fh: FileHandle, name: str,
               sattr: SAttr | None = None) -> tuple[FileHandle, FAttr, str | None]:
        """CREATE; the third result is the creator credential, if the
        server issued one (DisCFS extension)."""
        return self._rpc.invoke(CREATE, dir_fh, name,
                                sattr if sattr is not None else SAttr())

    def mkdir(self, dir_fh: FileHandle, name: str,
              sattr: SAttr | None = None) -> tuple[FileHandle, FAttr, str | None]:
        return self._rpc.invoke(MKDIR, dir_fh, name,
                                sattr if sattr is not None else SAttr())

    def remove(self, dir_fh: FileHandle, name: str) -> None:
        self._rpc.invoke(REMOVE, dir_fh, name)

    def rmdir(self, dir_fh: FileHandle, name: str) -> None:
        self._rpc.invoke(RMDIR, dir_fh, name)

    def rename(self, from_dir: FileHandle, from_name: str,
               to_dir: FileHandle, to_name: str) -> None:
        self._rpc.invoke(RENAME, from_dir, from_name, to_dir, to_name)

    def link(self, target: FileHandle, dir_fh: FileHandle, name: str) -> None:
        self._rpc.invoke(LINK, target, dir_fh, name)

    def symlink(self, dir_fh: FileHandle, name: str, target: str) -> None:
        self._rpc.invoke(SYMLINK, dir_fh, name, target, SAttr())

    def readdir(self, dir_fh: FileHandle, cookie: int = 0,
                count: int = MAX_DATA) -> tuple[list[tuple[int, str, int]], bool]:
        """One READDIR round trip: ([(fileid, name, cookie)...], eof)."""
        return self._rpc.invoke(READDIR, dir_fh, cookie, count)

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
        tsize, bsize, blocks, bfree, bavail = self._rpc.invoke(STATFS, self.root)
        return {"tsize": tsize, "bsize": bsize, "blocks": blocks,
                "bfree": bfree, "bavail": bavail}

    # -- DisCFS extensions -------------------------------------------------

    def submit_credential(self, text: str) -> str:
        return self._rpc.invoke(SUBMITCRED, text)

    def revoke(self, payload: str) -> str:
        return self._rpc.invoke(REVOKE, payload)

    def list_credentials(self) -> list[str]:
        return self._rpc.invoke(LISTCREDS)

    def audit_log(self, limit: int = 100) -> list[str]:
        """Fetch formatted audit records (DisCFS extension; admin only)."""
        return self._rpc.invoke(AUDITLOG, limit)

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


class FileIO(Protocol):
    """Positional file I/O by handle: what :class:`RemoteFile` buffers.

    An :class:`NFSClient` with a :class:`FileHandle` has this shape, and
    so does :class:`~repro.fs.ffs.FFS` with an inode number.
    """

    def read(self, handle: Any, offset: int, count: int, /) -> bytes: ...

    def write(self, handle: Any, offset: int, data: bytes, /) -> object: ...


class RemoteFile:
    """Buffered sequential I/O over one file (stdio analogue).

    ``client`` is anything with :class:`FileIO`'s ``read``/``write``
    shape and ``fh`` the handle it takes.  Maintains independent
    read/write positions like a C ``FILE`` opened for update; Bonnie's
    putc/getc/rewrite loops run through this class.
    """

    def __init__(self, client: FileIO, fh: Any, buffer_size: int = MAX_DATA):
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
