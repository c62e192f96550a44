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
from repro.nfs.protocol import SAttr


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


class LocalFFSTarget:
    """Direct (in-process, no RPC) access to an FFS instance; its files
    are the same stdio buffer the NFS targets use, over FFS calls."""

    def __init__(self, fs: FFS, name: str = "FFS"):
        self.fs = fs
        self.name = name

    def create_file(self, path: str) -> RemoteFile:
        inode = self.fs.write_file(path, b"")
        return RemoteFile(self.fs, inode.ino)

    def open_file(self, path: str) -> RemoteFile:
        return RemoteFile(self.fs, self.fs.namei(path).ino)

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
