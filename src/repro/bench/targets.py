"""Uniform filesystem targets for the benchmark suite.

Bonnie and the search workload are written once against
:class:`FilesystemTarget`; each measured system provides an adapter:

* :class:`LocalFFSTarget` — direct FFS calls (the paper's local-FS rows),
* :class:`NFSTarget` — anything reachable through an
  :class:`~repro.nfs.client.NFSClient`: CFS, CFS-NE and DisCFS.

Files returned by ``create``/``open`` expose stdio-like buffered
operations (putc/getc/write/read/seek/flush) because Bonnie's
per-character phases measure exactly the stdio path.
"""

from __future__ import annotations

from typing import Protocol

from repro.fs.ffs import FFS
from repro.nfs.client import NFSClient, RemoteFile
from repro.nfs.protocol import MAX_DATA, SAttr


class BufferedFile(Protocol):
    def putc(self, byte: int) -> None: ...

    def getc(self) -> int | None: ...

    def write(self, data: bytes) -> int: ...

    def read(self, count: int) -> bytes: ...

    def seek(self, offset: int) -> None: ...

    def flush(self) -> None: ...


class FilesystemTarget(Protocol):
    """What a measured system must offer the workloads."""

    name: str

    def create_file(self, path: str) -> BufferedFile: ...

    def open_file(self, path: str) -> BufferedFile: ...

    def remove_file(self, path: str) -> None: ...

    def listdir(self, path: str) -> list[tuple[str, bool]]:
        """Entries of a directory as (name, is_dir), excluding '.'/'..'."""
        ...

    def file_size(self, path: str) -> int: ...


# ---------------------------------------------------------------------------
# Local FFS
# ---------------------------------------------------------------------------


class _LocalFile:
    """Buffered file over direct FFS calls (stdio analogue for "FFS")."""

    def __init__(self, fs: FFS, ino: int, buffer_size: int = MAX_DATA):
        self._fs = fs
        self._ino = ino
        self._buffer_size = buffer_size
        self._pos = 0
        self._wbuf = bytearray()
        self._wbuf_offset = 0
        self._rbuf = b""
        self._rbuf_offset = 0

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
            self._fs.write(self._ino, self._wbuf_offset, chunk)
            del self._wbuf[: self._buffer_size]
            self._wbuf_offset += len(chunk)
        return len(data)

    def putc(self, byte: int) -> None:
        self.write(bytes((byte,)))

    def flush(self) -> None:
        if self._wbuf:
            self._fs.write(self._ino, self._wbuf_offset, bytes(self._wbuf))
            self._wbuf.clear()

    def read(self, count: int) -> bytes:
        self.flush()
        out = bytearray()
        while count > 0:
            start = self._pos - self._rbuf_offset
            if 0 <= start < len(self._rbuf):
                chunk = self._rbuf[start : start + count]
            else:
                self._rbuf = self._fs.read(self._ino, self._pos, self._buffer_size)
                self._rbuf_offset = self._pos
                if not self._rbuf:
                    break
                chunk = self._rbuf[:count]
            self._pos += len(chunk)
            out += chunk
            count -= len(chunk)
        return bytes(out)

    def getc(self) -> int | None:
        data = self.read(1)
        return data[0] if data else None

    def seek(self, offset: int) -> None:
        self.flush()
        self._pos = offset


class LocalFFSTarget:
    """Direct (in-process, no RPC) access to an FFS instance."""

    def __init__(self, fs: FFS, name: str = "FFS"):
        self.fs = fs
        self.name = name

    def create_file(self, path: str) -> _LocalFile:
        inode = self.fs.write_file(path, b"")
        return _LocalFile(self.fs, inode.ino)

    def open_file(self, path: str) -> _LocalFile:
        inode = self.fs.namei(path)
        return _LocalFile(self.fs, inode.ino)

    def remove_file(self, path: str) -> None:
        dino, name = self.fs._split_path(path)
        self.fs.remove(dino, name)

    def listdir(self, path: str) -> list[tuple[str, bool]]:
        return [(name, self.fs.iget(ino).is_dir)
                for name, ino in self.fs.readdir(self.fs.namei(path).ino)
                if name not in (".", "..")]

    def file_size(self, path: str) -> int:
        return self.fs.namei(path).size


# ---------------------------------------------------------------------------
# NFS-reachable systems (CFS, CFS-NE, DisCFS)
# ---------------------------------------------------------------------------


class NFSTarget:
    """A target speaking through an NFS client (any of the three daemons)."""

    def __init__(self, client: NFSClient, name: str):
        self.client = client
        self.name = name

    def _parent(self, path: str):
        """The parent directory's handle and the last path component."""
        directory, _, name = path.strip("/").rpartition("/")
        return (self.client.walk(directory)[0] if directory
                else self.client.root), name

    def create_file(self, path: str) -> RemoteFile:
        dir_fh, name = self._parent(path)
        try:
            fh, _ = self.client.lookup(dir_fh, name)
            self.client.setattr(fh, SAttr(size=0))
        except Exception:
            fh, _attr, _cred = self.client.create(dir_fh, name)
        return self.client.open(fh)

    def open_file(self, path: str) -> RemoteFile:
        fh, _attr = self.client.walk(path)
        return self.client.open(fh)

    def remove_file(self, path: str) -> None:
        self.client.remove(*self._parent(path))

    def listdir(self, path: str) -> list[tuple[str, bool]]:
        dir_fh, _ = self.client.walk(path)
        return [(name, self.client.lookup(dir_fh, name)[1].is_dir)
                for _fileid, name in self.client.readdir_all(dir_fh)
                if name not in (".", "..")]

    def file_size(self, path: str) -> int:
        _fh, attr = self.client.walk(path)
        return attr.size
