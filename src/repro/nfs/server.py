"""The user-level NFS server.

:class:`NFSProgram` exports a :class:`repro.fs.vfs.VFS` as the RPC
program declared in :data:`repro.nfs.protocol.PROCEDURES`: a row there
and a ``_proc_<name>`` method here are a whole procedure.
:func:`serve_table` is the one dispatcher the NFS and mount programs
run — argument decoding (trailing bytes included), the row's access
check, the error-to-status mapping and the reply are written there
once.  Access control is delegated to a pluggable
:class:`AccessController`; the base controller allows everything (this
is the CFS-NE configuration), and ``repro.core.server`` installs the
KeyNote-backed controller that makes the server a DisCFS server.  This
mirrors the paper's architecture: the NFS mechanism is identical across
systems, only the policy layer differs.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence

from repro.errors import FSError
from repro.fs.inode import Inode
from repro.fs.vfs import VFS, FileId
from repro.nfs.protocol import (
    MAX_DATA,
    NFS_PROGRAM,
    NFS_VERSION,
    PROCEDURES,
    FileHandle,
    NFSStat,
    SAttr,
    fattr_words,
    stat_for_error,
)
from repro.rpc.server import (
    CallContext,
    Handler,
    Procedure,
    RPCProgram,
    check_table,
)
from repro.rpc.xdr import XDRDecoder, XDREncoder


class AccessDeniedSignal(Exception):
    """Raised by controllers to deny an operation (mapped to NFSERR_ACCES)."""


class AccessController(Protocol):
    """Hook points the server consults around each operation."""

    def check(self, ctx: CallContext, op: str, fh: FileHandle,
              inode: Inode | None) -> None:
        """Raise :class:`AccessDeniedSignal` to reject the operation."""

    def check_lookup(self, ctx: CallContext, dir_fh: FileHandle,
                     dir_inode: Inode, child: Inode) -> None:
        """Authorize resolving ``child`` inside ``dir_fh``.

        Split out from :meth:`check` because DisCFS permits looking up a
        file the requester holds a credential *for*, even without rights
        on the containing directory (the paper: a credentialed file
        "will appear under the DisCFS mount point").
        """

    def effective_mode(self, ctx: CallContext, inode: Inode) -> int:
        """Mode bits GETATTR should report to this requester."""

    def on_create(self, ctx: CallContext, inode: Inode) -> str | None:
        """Optional credential text to hand back after CREATE/MKDIR."""

    def submit_credential(self, ctx: CallContext, text: str) -> str:
        """Handle a SUBMITCRED payload; returns a status message."""

    def revoke(self, ctx: CallContext, payload: str) -> str:
        """Handle a REVOKE payload."""

    def list_credentials(self, ctx: CallContext) -> list[str]:
        """Return the credentials the server currently holds."""

    def list_audit(self, ctx: CallContext, limit: int) -> list[str]:
        """Return formatted audit records (most recent last)."""


class AllowAllController:
    """The pass-through controller: plain NFS semantics (CFS/CFS-NE)."""

    def check(self, ctx, op, fh, inode) -> None:  # noqa: D102
        return None

    def check_lookup(self, ctx, dir_fh, dir_inode, child) -> None:  # noqa: D102
        return None

    def effective_mode(self, ctx, inode) -> int:  # noqa: D102
        return inode.mode & 0o7777

    def on_create(self, ctx, inode):  # noqa: D102
        return None

    def submit_credential(self, ctx, text) -> str:  # noqa: D102
        raise AccessDeniedSignal("this server does not accept credentials")

    def revoke(self, ctx, payload) -> str:  # noqa: D102
        raise AccessDeniedSignal("this server does not support revocation")

    def list_credentials(self, ctx) -> list[str]:  # noqa: D102
        return []

    def list_audit(self, ctx, limit) -> list[str]:  # noqa: D102
        raise AccessDeniedSignal("this server keeps no audit log")


def serve_table(program: Any, procedures: Sequence[Procedure]) -> None:
    """Register every row of ``procedures`` on ``program`` behind the
    NFS dispatcher."""
    for proc in procedures:
        program.register(proc.number, _dispatcher(program, proc))


def _dispatcher(program: Any, proc: Procedure) -> Handler:
    """Unpack the arguments, all of them (a byte left over is
    GARBAGE_ARGS); check the row's ``access`` on the first file handle,
    whose file id and inode the handler then gets in its place; run
    ``_proc_<name>``; reply with its result, or with the status word
    alone for a denial or a filesystem error."""
    handler = getattr(program, proc.handler)
    access = proc.access

    def dispatch(dec: XDRDecoder, ctx: CallContext) -> bytes:
        args = proc.unpack_args(dec)
        dec.done()
        enc = XDREncoder()
        try:
            if access is None:
                result = handler(ctx, *args)
            else:
                fh = args[0]
                fid = fh.file_id()
                inode = program.vfs.getattr(fid)
                program.controller.check(ctx, access, fh, inode)
                result = handler(ctx, fid, inode, *args[1:])
        except AccessDeniedSignal:
            return enc.pack_enum(NFSStat.NFSERR_ACCES).getvalue()
        except FSError as exc:
            return enc.pack_enum(stat_for_error(exc)).getvalue()
        proc.pack_result(enc, result)
        return enc.getvalue()

    return dispatch


class NFSProgram(RPCProgram):
    """The NFS RPC program bound to one VFS + controller."""

    def __init__(self, vfs: VFS, controller: AccessController | None = None):
        super().__init__(NFS_PROGRAM, NFS_VERSION, name="nfs")
        self.vfs = vfs
        self.controller = controller if controller is not None else AllowAllController()
        serve_table(self, PROCEDURES)

    def _inode_for(self, fh: FileHandle) -> Inode:
        return self.vfs.getattr(fh.file_id())

    def _fattr_for(self, inode: Inode, ctx: CallContext) -> tuple[int, ...]:
        """The inode's fattr values, with the permission bits the
        controller reports to this requester."""
        return fattr_words(inode, self.vfs.fs.block_size,
                           self.controller.effective_mode(ctx, inode))

    def _created(self, ctx: CallContext, inode: Inode) -> tuple:
        """CREATE's and MKDIR's result.  The creator credential comes
        first: the mode reported for the new inode includes its rights."""
        credential = self.controller.on_create(ctx, inode)
        return inode, self._fattr_for(inode, ctx), credential

    # -- procedures -------------------------------------------------------
    # A row with an ``access`` hands its handler the checked file's id and
    # inode in place of the handle.

    def _proc_getattr(self, ctx: CallContext, fid: FileId, inode: Inode):
        return self._fattr_for(inode, ctx)

    def _proc_setattr(self, ctx: CallContext, fid: FileId, inode: Inode,
                      sattr: SAttr):
        inode = self.vfs.setattr(
            fid, mode=sattr.mode, uid=sattr.uid, gid=sattr.gid,
            size=sattr.size, atime=sattr.atime, mtime=sattr.mtime,
        )
        return self._fattr_for(inode, ctx)

    def _proc_lookup(self, ctx: CallContext, fh: FileHandle, name: str):
        dir_inode = self._inode_for(fh)
        # Resolve first, authorize second: DisCFS authorizes lookups by
        # directory rights OR rights on the child itself (controller's
        # choice).  Denial is indistinguishable either way (NFSERR_ACCES).
        inode = self.vfs.lookup(fh.file_id(), name)
        self.controller.check_lookup(ctx, fh, dir_inode, inode)
        return inode, self._fattr_for(inode, ctx), None

    def _proc_readlink(self, ctx: CallContext, fid: FileId, inode: Inode):
        return self.vfs.readlink(fid)

    def _proc_read(self, ctx: CallContext, fid: FileId, inode: Inode,
                   offset: int, count: int):
        data = self.vfs.read(fid, offset, count)
        return self._fattr_for(inode, ctx), data

    def _proc_write(self, ctx: CallContext, fid: FileId, inode: Inode,
                    offset: int, data: bytes):
        self.vfs.write(fid, offset, data)
        return self._fattr_for(inode, ctx)

    def _proc_create(self, ctx: CallContext, dir_fid: FileId, dir_inode: Inode,
                     name: str, sattr: SAttr):
        inode = self.vfs.create(dir_fid, name,
                                mode=sattr.mode if sattr.mode is not None else 0o644)
        if sattr.size is not None:
            self.vfs.truncate(FileHandle.of(inode).file_id(), sattr.size)
        return self._created(ctx, inode)

    def _proc_remove(self, ctx: CallContext, dir_fid: FileId, dir_inode: Inode,
                     name: str) -> None:
        self.vfs.remove(dir_fid, name)

    def _proc_rename(self, ctx: CallContext, from_fh: FileHandle,
                     from_name: str, to_fh: FileHandle, to_name: str) -> None:
        from_dir = self._inode_for(from_fh)
        to_dir = self._inode_for(to_fh)
        self.controller.check(ctx, "rename", from_fh, from_dir)
        self.controller.check(ctx, "rename", to_fh, to_dir)
        self.vfs.rename(from_fh.file_id(), from_name, to_fh.file_id(), to_name)

    def _proc_link(self, ctx: CallContext, target_fh: FileHandle,
                   dir_fh: FileHandle, name: str) -> None:
        target = self._inode_for(target_fh)
        dir_inode = self._inode_for(dir_fh)
        self.controller.check(ctx, "link_target", target_fh, target)
        self.controller.check(ctx, "link", dir_fh, dir_inode)
        self.vfs.link(dir_fh.file_id(), name, target_fh.file_id())

    def _proc_symlink(self, ctx: CallContext, dir_fid: FileId,
                      dir_inode: Inode, name: str, target: str,
                      sattr: SAttr) -> None:
        self.vfs.symlink(dir_fid, name, target)

    def _proc_mkdir(self, ctx: CallContext, dir_fid: FileId, dir_inode: Inode,
                    name: str, sattr: SAttr):
        inode = self.vfs.mkdir(dir_fid, name,
                               mode=sattr.mode if sattr.mode is not None else 0o755)
        return self._created(ctx, inode)

    def _proc_rmdir(self, ctx: CallContext, dir_fid: FileId, dir_inode: Inode,
                    name: str) -> None:
        self.vfs.rmdir(dir_fid, name)

    def _proc_readdir(self, ctx: CallContext, dir_fid: FileId,
                      dir_inode: Inode, cookie: int, count: int):
        """The entries from ``cookie`` on that fit ``count`` bytes (at
        least one, and a 512-byte budget at least), and eof."""
        entries = self.vfs.readdir(dir_fid)
        budget = max(count, 512)
        page: list[tuple[int, str, int]] = []
        index = cookie
        while index < len(entries):
            name, ino = entries[index]
            entry_size = 3 * 4 + 4 + len(name) + 8
            if page and entry_size > budget:
                break
            page.append((ino, name, index + 1))  # cookie of the *next* entry
            budget -= entry_size
            index += 1
        return page, index >= len(entries)

    def _proc_statfs(self, ctx: CallContext, fh: FileHandle):
        self.controller.check(ctx, "statfs", fh, None)
        info = self.vfs.statfs()
        # tsize is the optimal transfer size; bavail == bfree (no
        # reservation).
        return (MAX_DATA, info["block_size"], info["total_blocks"],
                info["free_blocks"], info["free_blocks"])

    # -- DisCFS extension procedures --------------------------------------

    def _proc_submitcred(self, ctx: CallContext, text: str) -> str:
        return self.controller.submit_credential(ctx, text)

    def _proc_revoke(self, ctx: CallContext, payload: str) -> str:
        return self.controller.revoke(ctx, payload)

    def _proc_listcreds(self, ctx: CallContext) -> list[str]:
        return self.controller.list_credentials(ctx)

    def _proc_auditlog(self, ctx: CallContext, limit: int) -> list[str]:
        return self.controller.list_audit(ctx, limit)


check_table(NFSProgram, PROCEDURES)
