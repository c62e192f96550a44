"""A user-level NFSv2-style network filesystem.

The DisCFS prototype was "a modified user-level NFS server" (paper
abstract); CFS likewise ran as a user-level NFS daemon.  This package
provides that substrate:

* :mod:`repro.nfs.protocol` — wire types (file handles, fattr, status
  codes) following RFC 1094, and the program itself: one row per
  procedure (number, name, access checked, argument and reply fields),
* :mod:`repro.nfs.server` — the server, exporting any
  :class:`repro.fs.vfs.VFS` over RPC: one handler per row behind one
  dispatcher derived from the rows,
* :mod:`repro.nfs.client` — a client with both procedure-level calls
  (each a call of its row) and a convenience file API,
* :mod:`repro.nfs.mount` — the mount program (path -> root file handle),
  two rows served the same way.

File handles carry (inode, generation), fixing the bare-inode weakness the
paper flags in its prototype (section 5).
"""

from repro.nfs.client import NFSClient
from repro.nfs.mount import MountClient, MountProgram
from repro.nfs.protocol import NFS_PROGRAM, NFS_VERSION, FileHandle, NFSStat
from repro.nfs.server import NFSProgram

__all__ = [
    "NFSClient",
    "NFSProgram",
    "MountClient",
    "MountProgram",
    "FileHandle",
    "NFSStat",
    "NFS_PROGRAM",
    "NFS_VERSION",
]
