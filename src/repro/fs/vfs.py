"""A vnode-style interface over the FFS substrate.

The user-level NFS server (and the CFS/DisCFS daemons built on it) speak
to storage through this layer rather than through :class:`repro.fs.ffs.FFS`
directly.  Files are referred to by ``(ino, generation)`` pairs — the same
information NFS file handles and DisCFS credential handles carry — and the
CFS baseline plugs its encryption in by wrapping this class
(:class:`repro.cfs.cipher_layer.EncryptingVFS`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.ffs import FFS
from repro.fs.inode import FileType, Inode


@dataclass(frozen=True)
class FileId:
    """A stable file identity: inode number + generation."""

    ino: int
    generation: int

    @classmethod
    def of(cls, inode: Inode) -> "FileId":
        return cls(ino=inode.ino, generation=inode.generation)


class VFS:
    """Vnode operations over an FFS instance.

    Every method that takes a :class:`FileId` validates the generation,
    so stale references surface as :class:`~repro.errors.StaleHandle`
    instead of silently touching a recycled inode.
    """

    def __init__(self, fs: FFS) -> None:
        self.fs = fs

    # -- identity ----------------------------------------------------------

    @property
    def root(self) -> FileId:
        return FileId.of(self.fs.iget(self.fs.root_ino))

    def _inode(self, fid: FileId) -> Inode:
        return self.fs.iget_checked(fid.ino, fid.generation)

    # -- attributes ------------------------------------------------------

    def getattr(self, fid: FileId) -> Inode:
        return self._inode(fid)

    def setattr(self, fid: FileId, mode: int | None = None,
                uid: int | None = None, gid: int | None = None,
                size: int | None = None, atime: float | None = None,
                mtime: float | None = None) -> Inode:
        self._inode(fid)
        return self.fs.setattr(fid.ino, mode=mode, uid=uid, gid=gid,
                               size=size, atime=atime, mtime=mtime)

    # -- namespace -------------------------------------------------------

    def lookup(self, dfid: FileId, name: str) -> Inode:
        self._inode(dfid)
        return self.fs.lookup(dfid.ino, name)

    def readdir(self, dfid: FileId) -> list[tuple[str, int]]:
        self._inode(dfid)
        return self.fs.readdir(dfid.ino)

    def create(self, dfid: FileId, name: str, mode: int = 0o644,
               uid: int = 0, gid: int = 0) -> Inode:
        self._inode(dfid)
        return self.fs.create(dfid.ino, name, mode, uid, gid)

    def mkdir(self, dfid: FileId, name: str, mode: int = 0o755,
              uid: int = 0, gid: int = 0) -> Inode:
        self._inode(dfid)
        return self.fs.mkdir(dfid.ino, name, mode, uid, gid)

    def symlink(self, dfid: FileId, name: str, target: str) -> Inode:
        self._inode(dfid)
        return self.fs.symlink(dfid.ino, name, target)

    def readlink(self, fid: FileId) -> str:
        self._inode(fid)
        return self.fs.readlink(fid.ino)

    def link(self, dfid: FileId, name: str, target: FileId) -> Inode:
        self._inode(dfid)
        self._inode(target)
        return self.fs.link(dfid.ino, name, target.ino)

    def remove(self, dfid: FileId, name: str) -> None:
        self._inode(dfid)
        self.fs.remove(dfid.ino, name)

    def rmdir(self, dfid: FileId, name: str) -> None:
        self._inode(dfid)
        self.fs.rmdir(dfid.ino, name)

    def rename(self, sdfid: FileId, sname: str, ddfid: FileId, dname: str) -> None:
        self._inode(sdfid)
        self._inode(ddfid)
        self.fs.rename(sdfid.ino, sname, ddfid.ino, dname)

    # -- data ----------------------------------------------------------------

    def read(self, fid: FileId, offset: int, count: int) -> bytes:
        self._inode(fid)
        return self.fs.read(fid.ino, offset, count)

    def write(self, fid: FileId, offset: int, data: bytes) -> int:
        self._inode(fid)
        return self.fs.write(fid.ino, offset, data)

    def truncate(self, fid: FileId, size: int) -> None:
        self._inode(fid)
        self.fs.truncate(fid.ino, size)

    # -- fs-wide -----------------------------------------------------------

    def statfs(self) -> dict[str, int]:
        fs = self.fs
        return {
            "block_size": fs.block_size,
            "total_blocks": fs.device.num_blocks,
            "free_blocks": fs.free_block_count(),
            "inodes": len(fs._inodes),
        }


__all__ = ["VFS", "FileId", "FileType"]
