"""Local filesystem substrate ("FFS").

The paper's evaluation compares DisCFS and CFS-NE against the local
OpenBSD fast filesystem (FFS) on a real disk.  This package provides the
equivalent substrate for the reproduction:

* :mod:`repro.fs.inode` — inodes with attributes and generation numbers,
* :mod:`repro.fs.ffs` — an inode+block filesystem: directories, regular
  files, hard/symbolic links, rename, sparse files,
* :mod:`repro.fs.vfs` — the vnode-style interface the NFS server exports.

The same FFS instance backs all three measured systems: "FFS" benchmarks
talk to it directly, while CFS-NE and DisCFS reach it through their
NFS-over-RPC stacks — mirroring the paper's setup where all servers
ultimately stored files on the local disk.

The blocks live below this package, in :mod:`repro.storage`: FFS runs on
the :class:`~repro.storage.adapter.StoreBlockDevice` that
:func:`~repro.storage.registry.open_device` builds from a backend URI.
"""

from repro.fs.ffs import FFS
from repro.fs.inode import FileType
from repro.fs.vfs import VFS

__all__ = [
    "FFS",
    "FileType",
    "VFS",
]
