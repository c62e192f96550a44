"""The NFS and MOUNT programs' wire format, written out by hand.

These are the per-procedure pack sequences ``repro.nfs.client`` (the
arguments) and ``repro.nfs.server`` / ``repro.nfs.mount`` (the replies)
had before both ends were derived from one table of procedure rows —
kept here, unchanged in what they put on the wire, as the oracle the
rows are compared against (``tests/property/test_prop_nfs_wire.py``): a
row edited by mistake changes the bytes and fails the differential.
The compiled records they call (``pack_fhandle``, ``pack_attrstat_ok``,
...) have their own field-by-field oracle, ``tests/xdr_reference.py``.

``ARGS[name](*values)`` is what the old client sent for those argument
values.  ``REPLIES[name](value)`` is what the old server sent on
success, ``value`` being what it had in hand: fattr words (as
``fattr_words`` builds them) where the reply carries attributes, a
``(handle, fattr words, credential)`` triple for a diropres, a
``(fattr words, data)`` pair for READ.  :func:`error` is every failed
reply; UMNT, whose reply is void, has none.
"""

from __future__ import annotations

from repro.nfs.protocol import (
    FileHandle,
    NFSStat,
    SAttr,
    pack_attrstat_ok,
    pack_diropok,
    pack_fhandle,
    pack_read_args,
    pack_read_ok,
    pack_sattr,
    pack_write_args,
)
from repro.rpc.xdr import XDREncoder

# -- arguments (the client) -------------------------------------------------


def _fh(fh: FileHandle) -> bytes:
    enc = XDREncoder()
    pack_fhandle(enc, fh)
    return enc.getvalue()


def _setattr(fh: FileHandle, sattr: SAttr) -> bytes:
    enc = XDREncoder()
    pack_fhandle(enc, fh)
    pack_sattr(enc, sattr)
    return enc.getvalue()


def _dirop(dir_fh: FileHandle, name: str) -> bytes:
    enc = XDREncoder()
    pack_fhandle(enc, dir_fh)
    enc.pack_string(name)
    return enc.getvalue()


def _read(fh: FileHandle, offset: int, count: int) -> bytes:
    enc = XDREncoder()
    pack_read_args(enc, fh, offset, count)
    return enc.getvalue()


def _write(fh: FileHandle, offset: int, data: bytes) -> bytes:
    enc = XDREncoder()
    pack_write_args(enc, fh, offset, data)
    return enc.getvalue()


def _create(dir_fh: FileHandle, name: str, sattr: SAttr) -> bytes:
    enc = XDREncoder()
    pack_fhandle(enc, dir_fh)
    enc.pack_string(name)
    pack_sattr(enc, sattr)
    return enc.getvalue()


def _rename(from_dir: FileHandle, from_name: str, to_dir: FileHandle,
            to_name: str) -> bytes:
    enc = XDREncoder()
    pack_fhandle(enc, from_dir)
    enc.pack_string(from_name)
    pack_fhandle(enc, to_dir)
    enc.pack_string(to_name)
    return enc.getvalue()


def _link(target: FileHandle, dir_fh: FileHandle, name: str) -> bytes:
    enc = XDREncoder()
    pack_fhandle(enc, target)
    pack_fhandle(enc, dir_fh)
    enc.pack_string(name)
    return enc.getvalue()


def _symlink(dir_fh: FileHandle, name: str, target: str,
             sattr: SAttr) -> bytes:
    """The old client always sent ``SAttr()`` here."""
    enc = XDREncoder()
    pack_fhandle(enc, dir_fh)
    enc.pack_string(name)
    enc.pack_string(target)
    pack_sattr(enc, sattr)
    return enc.getvalue()


def _readdir(dir_fh: FileHandle, cookie: int, count: int) -> bytes:
    enc = XDREncoder()
    pack_fhandle(enc, dir_fh)
    enc.pack_uint(cookie)
    enc.pack_uint(count)
    return enc.getvalue()


def _string(text: str) -> bytes:
    return XDREncoder().pack_string(text).getvalue()


def _uint(value: int) -> bytes:
    return XDREncoder().pack_uint(value).getvalue()


def _void() -> bytes:
    return b""


# -- replies (the server) ---------------------------------------------------


def error(status: int) -> bytes:
    """A failed reply: the status word alone."""
    return XDREncoder().pack_enum(status).getvalue()


def _ok(value: None) -> bytes:
    return error(NFSStat.NFS_OK)


def _attrstat(fattr: tuple[int, ...]) -> bytes:
    enc = XDREncoder()
    pack_attrstat_ok(enc, fattr)
    return enc.getvalue()


def _diropres(value: tuple) -> bytes:
    fh, fattr, credential = value
    enc = XDREncoder()
    pack_diropok(enc, fh, fattr)
    enc.pack_optional(credential, lambda e, c: e.pack_string(c))
    return enc.getvalue()


def _readres(value: tuple[tuple[int, ...], bytes]) -> bytes:
    fattr, data = value
    enc = XDREncoder()
    pack_read_ok(enc, fattr, data)
    return enc.getvalue()


def _text_ok(text: str) -> bytes:
    enc = XDREncoder()
    enc.pack_enum(NFSStat.NFS_OK)
    enc.pack_string(text)
    return enc.getvalue()


def _readdir_ok(value: tuple[list[tuple[int, str, int]], bool]) -> bytes:
    entries, eof = value
    enc = XDREncoder()
    enc.pack_enum(NFSStat.NFS_OK)
    for fileid, name, cookie in entries:
        enc.pack_bool(True)  # another entry follows
        enc.pack_uint(fileid)
        enc.pack_string(name)
        enc.pack_uint(cookie)
    enc.pack_bool(False)  # no more entries in this reply
    enc.pack_bool(eof)
    return enc.getvalue()


def _statfs_ok(value: tuple[int, int, int, int, int]) -> bytes:
    enc = XDREncoder()
    enc.pack_enum(NFSStat.NFS_OK)
    for word in value:  # tsize, bsize, blocks, bfree, bavail
        enc.pack_uint(word)
    return enc.getvalue()


def _lines_ok(lines: list[str]) -> bytes:
    enc = XDREncoder()
    enc.pack_enum(NFSStat.NFS_OK)
    enc.pack_array(lines, lambda e, line: e.pack_string(line))
    return enc.getvalue()


def _fhstatus_ok(fh: FileHandle) -> bytes:
    enc = XDREncoder()
    enc.pack_enum(NFSStat.NFS_OK)
    pack_fhandle(enc, fh)
    return enc.getvalue()


#: name -> (procedure number, argument encoder, success reply encoder)
_WIRE = {
    "GETATTR": (1, _fh, _attrstat),
    "SETATTR": (2, _setattr, _attrstat),
    "LOOKUP": (4, _dirop, _diropres),
    "READLINK": (5, _fh, _text_ok),
    "READ": (6, _read, _readres),
    "WRITE": (8, _write, _attrstat),
    "CREATE": (9, _create, _diropres),
    "REMOVE": (10, _dirop, _ok),
    "RENAME": (11, _rename, _ok),
    "LINK": (12, _link, _ok),
    "SYMLINK": (13, _symlink, _ok),
    "MKDIR": (14, _create, _diropres),
    "RMDIR": (15, _dirop, _ok),
    "READDIR": (16, _readdir, _readdir_ok),
    "STATFS": (17, _fh, _statfs_ok),
    "SUBMITCRED": (100, _string, _text_ok),
    "REVOKE": (101, _string, _text_ok),
    "LISTCREDS": (102, _void, _lines_ok),
    "AUDITLOG": (103, _uint, _lines_ok),
}

#: The mount program, same shape.
_MOUNT_WIRE = {
    "MNT": (1, _string, _fhstatus_ok),
    "UMNT": (3, _string, lambda value: b""),
}

NUMBERS = {name: row[0] for name, row in _WIRE.items()}
MOUNT_NUMBERS = {name: row[0] for name, row in _MOUNT_WIRE.items()}
ARGS = {name: row[1] for name, row in (_WIRE | _MOUNT_WIRE).items()}
REPLIES = {name: row[2] for name, row in (_WIRE | _MOUNT_WIRE).items()}
