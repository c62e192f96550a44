"""The mount program: export paths -> root file handles (RFC 1094 App. A).

Declared as rows like the NFS program and served by the same
dispatcher (:func:`repro.nfs.server.serve_table`).
"""

from __future__ import annotations

from repro.fs.vfs import VFS
from repro.nfs.protocol import (
    MOUNT_PROGRAM,
    MOUNT_VERSION,
    FileHandle,
    fhandle,
    ok,
    pathname,
)
from repro.nfs.server import AccessDeniedSignal, serve_table
from repro.rpc.client import RPCClient
from repro.rpc.server import CallContext, Procedure, RPCProgram, check_table
from repro.rpc.transport import Transport


MOUNT_PROCEDURES: tuple[Procedure, ...] = (
    MNT := Procedure(1, "MNT", None, (pathname,), (ok(fhandle),)),
    # Advisory: the reply is void, not even a status.
    UMNT := Procedure(3, "UMNT", None, (pathname,), ()),
)


class MountProgram(RPCProgram):
    """Maps export paths to file handles over a VFS.

    With ``exports=None`` (the default) every existing path is mountable —
    the DisCFS configuration, where mounting grants nothing by itself
    (every subsequent operation is policy-checked, and a freshly attached
    directory shows permissions 000).  Pass an explicit list to restrict
    mounting like /etc/exports does.
    """

    def __init__(self, vfs: VFS, exports: list[str] | None = None):
        super().__init__(MOUNT_PROGRAM, MOUNT_VERSION, name="mount")
        self.vfs = vfs
        self._exports: set[str] | None = (
            None if exports is None else {self._normalize(p) for p in exports}
        )
        serve_table(self, MOUNT_PROCEDURES)

    @staticmethod
    def _normalize(path: str) -> str:
        return "/" + "/".join(p for p in path.split("/") if p)

    def _proc_mnt(self, ctx: CallContext, path: str) -> FileHandle:
        path = self._normalize(path)
        if self._exports is not None and path not in self._exports:
            raise AccessDeniedSignal(f"{path} is not exported")
        return FileHandle.of(self.vfs.fs.namei(path))

    def _proc_umnt(self, ctx: CallContext, path: str) -> None:
        """Nothing to undo: mounting keeps no state."""


check_table(MountProgram, MOUNT_PROCEDURES)


class MountClient:
    """Client stub for the mount program."""

    def __init__(self, transport: Transport):
        self._client = RPCClient(transport, MOUNT_PROGRAM, MOUNT_VERSION)

    def mount(self, path: str = "/") -> FileHandle:
        return self._client.invoke(MNT, path)

    def unmount(self, path: str = "/") -> None:
        self._client.invoke(UMNT, path)
