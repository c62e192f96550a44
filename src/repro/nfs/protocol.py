"""NFSv2 wire protocol definitions (RFC 1094 subset, with extensions).

Extensions over stock NFSv2, mirroring the paper's modified server:

* ``NFSPROC_CREATE``/``NFSPROC_MKDIR`` replies may carry an extra
  credential string (the paper adds procedures that "upon successful
  creation of a file/directory return a credential with full access to
  the creator"),
* a ``NFSPROC_SUBMITCRED`` procedure accepts KeyNote credentials over RPC
  (the paper's credential-submission utility),
* ``NFSPROC_REVOKE`` lets the administrator notify the server of bad keys
  or credentials (the paper's revocation mechanism).

Every server registers the extension procedures; a plain CFS/CFS-NE
server's ``AllowAllController`` answers SUBMITCRED, REVOKE and AUDITLOG
with ``NFSERR_ACCES`` and LISTCREDS with an empty list.

Each procedure is one row of :data:`PROCEDURES` — number, name, the
access the server checks, argument and reply fields — written in
:mod:`repro.rpc.xdr`'s field vocabulary over the compiled records
below; the server's dispatch and the client's stubs are derived from
the rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from struct import Struct
from typing import Any, Callable

from repro.errors import (
    FSError,
    NFSError,
    XDRError,
)
from repro.fs.inode import FileType, Inode
from repro.fs.vfs import FileId
from repro.rpc.server import Procedure
from repro.rpc.xdr import (
    Field,
    XDRDecoder,
    XDREncoder,
    array,
    string,
    struct,
    uint,
    void,
)

NFS_PROGRAM = 100003
NFS_VERSION = 2
MOUNT_PROGRAM = 100005
MOUNT_VERSION = 1

FHSIZE = 32
MAX_DATA = 8192  # NFSv2 maximum transfer size
MAX_NAME = 255
MAX_PATH = 1024


class NFSStat(enum.IntEnum):
    """nfsstat codes."""

    NFS_OK = 0
    NFSERR_PERM = 1
    NFSERR_NOENT = 2
    NFSERR_IO = 5
    NFSERR_NXIO = 6
    NFSERR_ACCES = 13
    NFSERR_EXIST = 17
    NFSERR_NODEV = 19
    NFSERR_NOTDIR = 20
    NFSERR_ISDIR = 21
    NFSERR_INVAL = 22
    NFSERR_FBIG = 27
    NFSERR_NOSPC = 28
    NFSERR_ROFS = 30
    NFSERR_NAMETOOLONG = 63
    NFSERR_NOTEMPTY = 66
    NFSERR_DQUOT = 69
    NFSERR_STALE = 70


_ERRNO_TO_STAT = {
    "ENOENT": NFSStat.NFSERR_NOENT,
    "EIO": NFSStat.NFSERR_IO,
    "EACCES": NFSStat.NFSERR_ACCES,
    "EEXIST": NFSStat.NFSERR_EXIST,
    "ENOTDIR": NFSStat.NFSERR_NOTDIR,
    "EISDIR": NFSStat.NFSERR_ISDIR,
    "EINVAL": NFSStat.NFSERR_INVAL,
    "ENOSPC": NFSStat.NFSERR_NOSPC,
    "EROFS": NFSStat.NFSERR_ROFS,
    "ENAMETOOLONG": NFSStat.NFSERR_NAMETOOLONG,
    "ENOTEMPTY": NFSStat.NFSERR_NOTEMPTY,
    "ESTALE": NFSStat.NFSERR_STALE,
}


def stat_for_error(exc: FSError) -> NFSStat:
    """Map a filesystem exception onto the closest nfsstat code."""
    return _ERRNO_TO_STAT.get(exc.errno_name, NFSStat.NFSERR_IO)


class FType(enum.IntEnum):
    """NFSv2 ftype."""

    NFNON = 0
    NFREG = 1
    NFDIR = 2
    NFBLK = 3
    NFCHR = 4
    NFLNK = 5


#: FileType -> (ftype, the S_IFMT bits NFSv2 folds into ``mode``).
_FTYPE_OF = {
    FileType.REGULAR: (FType.NFREG, 0o100000),
    FileType.DIRECTORY: (FType.NFDIR, 0o040000),
    FileType.SYMLINK: (FType.NFLNK, 0o120000),
}
_FTYPES = {int(ftype): ftype for ftype in FType}


# ---------------------------------------------------------------------------
# Wire records
#
# Every fixed run of words is one compiled layout, built from three
# fragments.  A reply's NFS_OK arm includes the status word where the
# server packs it (one call) and follows it where the client unpacks it
# (the status is read first: an error reply ends there).
# ---------------------------------------------------------------------------

_FH = "QQ16x"  # ino, generation, zero fill to FHSIZE
#: ftype, mode, nlink, uid, gid, size, blocksize, (rdev), blocks, (fsid),
#: fileid, then atime, mtime, ctime as (seconds, microseconds).
_FATTR = "i6I4xI4x7I"
_SATTR = "8I"  # mode, uid, gid, size, atime, mtime

FHANDLE = Struct(">" + _FH)
FATTR = Struct(">" + _FATTR)
SATTR = Struct(">" + _SATTR)
ATTRSTAT_OK = Struct(">i" + _FATTR)
DIROP_OK = Struct(">i" + _FH + _FATTR)
DIROP_OK_BODY = Struct(">" + _FH + _FATTR)
#: fhandle, offset, count, totalcount.
READ_ARGS = Struct(">" + _FH + "3I")
#: status, fattr, length of the data that follows.
READ_OK = Struct(">i" + _FATTR + "I")
#: The same after the status word, attributes skipped.
READ_OK_LENGTH = Struct(f">{FATTR.size}xI")
#: fhandle, beginoffset, offset, totalcount, length of the data that follows.
WRITE_ARGS = Struct(">" + _FH + "4I")


# ---------------------------------------------------------------------------
# File handles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FileHandle:
    """An opaque 32-byte NFS file handle: (ino, generation, zero padding)."""

    ino: int
    generation: int

    def encode(self) -> bytes:
        return FHANDLE.pack(self.ino, self.generation)

    @classmethod
    def decode(cls, raw: bytes) -> "FileHandle":
        if len(raw) != FHSIZE:
            raise XDRError(f"file handle must be {FHSIZE} bytes, got {len(raw)}")
        return cls(*FHANDLE.unpack(raw))

    @classmethod
    def of(cls, inode: Inode) -> "FileHandle":
        return cls(ino=inode.ino, generation=inode.generation)

    def file_id(self) -> FileId:
        return FileId(ino=self.ino, generation=self.generation)


def pack_fhandle(enc: XDREncoder, fh: FileHandle) -> None:
    enc.pack_struct(FHANDLE, fh.ino, fh.generation)


def unpack_fhandle(dec: XDRDecoder) -> FileHandle:
    return FileHandle(*dec.unpack_struct(FHANDLE))


# ---------------------------------------------------------------------------
# fattr / sattr
# ---------------------------------------------------------------------------


def _time_words(t: float) -> tuple[int, int]:
    return int(t) & 0xFFFFFFFF, int((t % 1) * 1_000_000)


def fattr_words(inode: Inode, block_size: int,
                mode: int | None = None) -> tuple[int, ...]:
    """The values of one :data:`FATTR` record.  ``mode`` overrides the
    permission bits reported (the inode is not touched)."""
    ftype, type_bits = _FTYPE_OF[inode.ftype]
    if mode is None:
        mode = inode.mode
    size = inode.size
    atime, mtime, ctime = inode.atime, inode.mtime, inode.ctime
    return (
        ftype, (mode & 0o7777) | type_bits, inode.nlink, inode.uid, inode.gid,
        min(size, 0xFFFFFFFF), block_size,
        (size + block_size - 1) // block_size, inode.ino,
        int(atime) & 0xFFFFFFFF, int((atime % 1) * 1_000_000),
        int(mtime) & 0xFFFFFFFF, int((mtime % 1) * 1_000_000),
        int(ctime) & 0xFFFFFFFF, int((ctime % 1) * 1_000_000),
    )


def pack_fattr(enc: XDREncoder, inode: Inode, block_size: int) -> None:
    enc.pack_struct(FATTR, *fattr_words(inode, block_size))


@dataclass
class FAttr:
    """Decoded fattr (client side)."""

    ftype: FType
    mode: int
    nlink: int
    uid: int
    gid: int
    size: int
    blocksize: int
    blocks: int
    fileid: int
    atime: float
    mtime: float
    ctime: float

    @property
    def is_dir(self) -> bool:
        return self.ftype == FType.NFDIR

    @property
    def permission_bits(self) -> int:
        return self.mode & 0o7777

    @classmethod
    def from_words(cls, words: tuple[int, ...] | list[int]) -> "FAttr":
        """The attributes in the values of one :data:`FATTR` record."""
        (raw_ftype, mode, nlink, uid, gid, size, blocksize, blocks, fileid,
         asec, ausec, msec, musec, csec, cusec) = words
        ftype = _FTYPES.get(raw_ftype)
        if ftype is None:
            raise XDRError(f"unknown ftype {raw_ftype}")
        return cls(ftype, mode, nlink, uid, gid, size, blocksize, blocks,
                   fileid, asec + ausec / 1_000_000, msec + musec / 1_000_000,
                   csec + cusec / 1_000_000)


def unpack_fattr(dec: XDRDecoder) -> FAttr:
    return FAttr.from_words(dec.unpack_struct(FATTR))


def pack_attrstat_ok(enc: XDREncoder, fattr: tuple[int, ...]) -> None:
    """A whole successful attrstat: status and attributes."""
    enc.pack_struct(ATTRSTAT_OK, NFSStat.NFS_OK, *fattr)


def pack_diropok(enc: XDREncoder, inode: Inode, fattr: tuple[int, ...]) -> None:
    """A successful diropres up to its attributes: status, the inode's
    handle, ``fattr``."""
    enc.pack_struct(DIROP_OK, NFSStat.NFS_OK, inode.ino, inode.generation,
                    *fattr)


def unpack_diropok(dec: XDRDecoder) -> tuple[FileHandle, FAttr]:
    """The NFS_OK arm of a diropres, after its status word."""
    ino, generation, *words = dec.unpack_struct(DIROP_OK_BODY)
    return FileHandle(ino, generation), FAttr.from_words(words)


#: sattr field value meaning "do not change" (RFC 1094 uses all-ones).
SATTR_NO_CHANGE = 0xFFFFFFFF
_NO_TIME_CHANGE = (SATTR_NO_CHANGE, SATTR_NO_CHANGE)


@dataclass
class SAttr:
    """Settable attributes; None fields are left unchanged."""

    mode: int | None = None
    uid: int | None = None
    gid: int | None = None
    size: int | None = None
    atime: float | None = None
    mtime: float | None = None


def pack_sattr(enc: XDREncoder, sattr: SAttr) -> None:
    enc.pack_struct(
        SATTR,
        *(SATTR_NO_CHANGE if value is None else value
          for value in (sattr.mode, sattr.uid, sattr.gid, sattr.size)),
        *(_NO_TIME_CHANGE if sattr.atime is None else _time_words(sattr.atime)),
        *(_NO_TIME_CHANGE if sattr.mtime is None else _time_words(sattr.mtime)),
    )


def unpack_sattr(dec: XDRDecoder) -> SAttr:
    *raw, asec, ausec, msec, musec = dec.unpack_struct(SATTR)
    mode, uid, gid, size = (None if v == SATTR_NO_CHANGE else v for v in raw)
    return SAttr(
        mode, uid, gid, size,
        None if asec == SATTR_NO_CHANGE else asec + ausec / 1_000_000,
        None if msec == SATTR_NO_CHANGE else msec + musec / 1_000_000,
    )


# ---------------------------------------------------------------------------
# READ / WRITE
# ---------------------------------------------------------------------------


def pack_read_args(enc: XDREncoder, fh: FileHandle, offset: int,
                   count: int) -> None:
    enc.pack_struct(READ_ARGS, fh.ino, fh.generation, offset, count, count)


def unpack_read_args(dec: XDRDecoder) -> tuple[FileHandle, int, int]:
    """(fhandle, offset, count); totalcount is unused, per RFC 1094."""
    ino, generation, offset, count, _total = dec.unpack_struct(READ_ARGS)
    return FileHandle(ino, generation), offset, count


def pack_read_ok(enc: XDREncoder, fattr: tuple[int, ...], data: bytes) -> None:
    """A whole successful readres: status, attributes and data."""
    size = len(data)
    enc.pack_struct(READ_OK, NFSStat.NFS_OK, *fattr, size)
    enc.pack_fixed_opaque(data, size)


def unpack_read_ok(dec: XDRDecoder) -> bytes:
    """The data of a readres, after its status word."""
    (size,) = dec.unpack_struct(READ_OK_LENGTH)
    if size > MAX_DATA:
        raise XDRError(f"read reply of {size} bytes exceeds maximum {MAX_DATA}")
    return dec.unpack_fixed_opaque(size)


def pack_write_args(enc: XDREncoder, fh: FileHandle, offset: int,
                    data: bytes) -> None:
    size = len(data)
    enc.pack_struct(WRITE_ARGS, fh.ino, fh.generation, 0, offset, size, size)
    enc.pack_fixed_opaque(data, size)


def unpack_write_args(dec: XDRDecoder) -> tuple[FileHandle, int, bytes]:
    """(fhandle, offset, data); beginoffset and totalcount are unused."""
    ino, generation, _begin, offset, _total, size = \
        dec.unpack_struct(WRITE_ARGS)
    if size > MAX_DATA:
        raise XDRError(f"opaque of {size} bytes exceeds maximum {MAX_DATA}")
    return FileHandle(ino, generation), offset, dec.unpack_fixed_opaque(size)


def raise_for_status(status: int) -> None:
    """Client-side helper: raise NFSError unless NFS_OK."""
    if status != NFSStat.NFS_OK:
        try:
            name = NFSStat(status).name
        except ValueError:
            name = f"status {status}"
        raise NFSError(status, f"server returned {name}")


# ---------------------------------------------------------------------------
# Field codecs and the procedure table
#
# A reply field writes the whole NFS_OK arm, status word included (in
# the one compiled record where the arm has one), and reads it back
# status first: any other status raises NFSError.  A failed reply is
# that word alone; the server's dispatcher writes it.
# ---------------------------------------------------------------------------

fhandle = Field(pack_fhandle, lambda dec, lo, hi: unpack_fhandle(dec))
sattr = Field(pack_sattr, lambda dec, lo, hi: unpack_sattr(dec))
filename = string(MAX_NAME)
pathname = string(MAX_PATH)


def _unpack_read_args(dec: XDRDecoder, lo: int, hi: int) -> tuple:
    fh, offset, count = unpack_read_args(dec)
    if count > MAX_DATA:
        raise XDRError(f"read of {count} bytes exceeds NFS maximum {MAX_DATA}")
    return fh, offset, count


#: READ's and WRITE's whole argument tuples: (fh, offset, count) and
#: (fh, offset, data), one record each.
read_args = Field(lambda enc, args: pack_read_args(enc, *args),
                  _unpack_read_args)
write_args = Field(lambda enc, args: pack_write_args(enc, *args),
                   lambda dec, lo, hi: unpack_write_args(dec))


def _reply(pack: Callable[[XDREncoder, Any], object],
           unpack: Callable[[XDRDecoder], Any]) -> Field:
    """A reply field: ``pack`` writes the NFS_OK arm, status word
    included; ``unpack`` reads what follows that word."""

    def unpack_ok(dec: XDRDecoder, lo: int, hi: int) -> Any:
        status = dec.unpack_enum()
        if status != NFSStat.NFS_OK:
            raise_for_status(status)
        return unpack(dec)

    return Field(pack, unpack_ok)


def ok(body: Field = void) -> Field:
    """The NFS_OK status word, then ``body``."""
    return _reply(
        lambda enc, value: body.pack(enc.pack_enum(NFSStat.NFS_OK), value),
        lambda dec: body.unpack(dec, 0, 0))


def _pack_diropres(enc: XDREncoder, value: tuple) -> None:
    inode, fattr, credential = value
    pack_diropok(enc, inode, fattr)
    enc.pack_optional(credential, XDREncoder.pack_string)


def _unpack_diropres(dec: XDRDecoder) -> tuple[FileHandle, FAttr, str | None]:
    fh, attr = unpack_diropok(dec)
    return fh, attr, dec.unpack_optional(XDRDecoder.unpack_string)


def _pack_dirlist(enc: XDREncoder, value: tuple) -> None:
    entries, eof = value
    enc.pack_enum(NFSStat.NFS_OK)
    for fileid, name, cookie in entries:
        enc.pack_bool(True)  # another entry follows
        enc.pack_uint(fileid).pack_string(name).pack_uint(cookie)
    enc.pack_bool(False).pack_bool(eof)


def _unpack_dirlist(dec: XDRDecoder) -> tuple[list[tuple[int, str, int]], bool]:
    entries = []
    while dec.unpack_bool():
        entries.append((dec.unpack_uint(), dec.unpack_string(),
                        dec.unpack_uint()))
    return entries, dec.unpack_bool()


#: Server value: fattr words.  Client value: :class:`FAttr`.
attrstat = _reply(pack_attrstat_ok, unpack_fattr)
#: Server value: (inode, fattr words, creator credential or None).
#: Client value: (handle, :class:`FAttr`, credential).
diropres = _reply(_pack_diropres, _unpack_diropres)
#: Server value: (fattr words, data).  Client value: the data.
readres = _reply(lambda enc, value: pack_read_ok(enc, *value), unpack_read_ok)
#: ([(fileid, name, cookie of the next entry)...], eof), both ends.
dirlist = _reply(_pack_dirlist, _unpack_dirlist)

#: The program.  A row here plus a ``_proc_<name>`` method on
#: :class:`repro.nfs.server.NFSProgram` is a whole procedure.  ``access``
#: is the operation the server checks on the first file handle before
#: the handler runs; a handler whose check is anything else (``None``)
#: makes it itself.  Numbers are RFC 1094's, the DisCFS extensions
#: outside its range.
PROCEDURES: tuple[Procedure, ...] = (
    GETATTR := Procedure(1, "GETATTR", "getattr", (fhandle,), (attrstat,)),
    SETATTR := Procedure(2, "SETATTR", "setattr", (fhandle, sattr),
                         (attrstat,)),
    # Rights on the directory or on the child (check_lookup).
    LOOKUP := Procedure(4, "LOOKUP", None, (fhandle, filename), (diropres,)),
    READLINK := Procedure(5, "READLINK", "readlink", (fhandle,),
                          (ok(string()),)),
    READ := Procedure(6, "READ", "read", read_args, (readres,)),
    WRITE := Procedure(8, "WRITE", "write", write_args, (attrstat,)),
    CREATE := Procedure(9, "CREATE", "create", (fhandle, filename, sattr),
                        (diropres,)),
    REMOVE := Procedure(10, "REMOVE", "remove", (fhandle, filename), (ok(),)),
    # Each directory is checked before the next resolves.
    RENAME := Procedure(11, "RENAME", None,
                        (fhandle, filename, fhandle, filename), (ok(),)),
    # target, directory, name: each is checked before the next resolves.
    LINK := Procedure(12, "LINK", None, (fhandle, fhandle, filename), (ok(),)),
    # directory, name, target, attributes (ignored, RFC 1094)
    SYMLINK := Procedure(13, "SYMLINK", "symlink",
                         (fhandle, filename, pathname, sattr), (ok(),)),
    MKDIR := Procedure(14, "MKDIR", "mkdir", (fhandle, filename, sattr),
                       (diropres,)),
    RMDIR := Procedure(15, "RMDIR", "rmdir", (fhandle, filename), (ok(),)),
    # directory, cookie, count
    READDIR := Procedure(16, "READDIR", "readdir", (fhandle, uint, uint),
                         (dirlist,)),
    # -> tsize, bsize, blocks, bfree, bavail; checked with no inode.
    STATFS := Procedure(17, "STATFS", None, (fhandle,),
                        (ok(struct(uint, uint, uint, uint, uint)),)),
    SUBMITCRED := Procedure(100, "SUBMITCRED", None, (string(1 << 20),),
                            (ok(string()),)),
    REVOKE := Procedure(101, "REVOKE", None, (string(1 << 20),),
                        (ok(string()),)),
    LISTCREDS := Procedure(102, "LISTCREDS", None, (), (ok(array(string())),)),
    # limit -> formatted audit records
    AUDITLOG := Procedure(103, "AUDITLOG", None, (uint,),
                          (ok(array(string())),)),
)

#: Procedure numbers by name: the rows', plus NULL and RFC 1094's
#: obsolete ROOT and WRITECACHE, which no server here answers.
Proc = enum.IntEnum(  # type: ignore[misc]
    "Proc", {"NULL": 0, "ROOT": 3, "WRITECACHE": 7,
             **{proc.name: proc.number for proc in PROCEDURES}})
