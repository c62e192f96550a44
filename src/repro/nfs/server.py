"""The user-level NFS server.

:class:`NFSProgram` exports a :class:`repro.fs.vfs.VFS` as an RPC program.
Access control is delegated to a pluggable :class:`AccessController`; the
base controller allows everything (this is the CFS-NE configuration), and
``repro.core.server`` installs the KeyNote-backed controller that makes
the server a DisCFS server.  This mirrors the paper's architecture: the
NFS mechanism is identical across systems, only the policy layer differs.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import FSError, XDRError
from repro.fs.inode import Inode
from repro.fs.vfs import VFS
from repro.nfs.protocol import (
    MAX_DATA,
    MAX_NAME,
    MAX_PATH,
    NFS_PROGRAM,
    NFS_VERSION,
    FileHandle,
    NFSStat,
    Proc,
    fattr_words,
    pack_attrstat_ok,
    pack_diropok,
    pack_read_ok,
    stat_for_error,
    unpack_fhandle,
    unpack_read_args,
    unpack_sattr,
    unpack_write_args,
)
from repro.rpc.server import CallContext, RPCProgram
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


class NFSProgram(RPCProgram):
    """The NFS RPC program bound to one VFS + controller."""

    def __init__(self, vfs: VFS | str, controller: AccessController | None = None):
        super().__init__(NFS_PROGRAM, NFS_VERSION, name="nfs")
        # A string is a storage-backend URI: export a fresh filesystem on
        # that backend (the registry resolves mem://, file://, sqlite://,
        # shard://, cached:// — see repro.storage).
        self.vfs = VFS(vfs) if isinstance(vfs, str) else vfs
        self.controller = controller if controller is not None else AllowAllController()
        self._register_procedures()

    # -- helpers -----------------------------------------------------------

    def _inode_for(self, fh: FileHandle) -> Inode:
        return self.vfs.getattr(fh.file_id())

    def _fattr_for(self, inode: Inode, ctx: CallContext) -> tuple[int, ...]:
        """The inode's fattr values, with the permission bits the
        controller reports to this requester."""
        return fattr_words(inode, self.vfs.fs.block_size,
                           self.controller.effective_mode(ctx, inode))

    def _attrstat(self, inode: Inode, ctx: CallContext) -> bytes:
        enc = XDREncoder()
        pack_attrstat_ok(enc, self._fattr_for(inode, ctx))
        return enc.getvalue()

    def _diropres(self, inode: Inode, ctx: CallContext,
                  credential: str | None = None) -> bytes:
        enc = XDREncoder()
        pack_diropok(enc, inode, self._fattr_for(inode, ctx))
        enc.pack_optional(credential, lambda e, c: e.pack_string(c))
        return enc.getvalue()

    @staticmethod
    def _error(status: NFSStat) -> bytes:
        enc = XDREncoder()
        enc.pack_enum(status)
        return enc.getvalue()

    def _guarded(self, handler):
        """Wrap a procedure body, mapping FS errors and denials to statuses."""

        def wrapped(dec: XDRDecoder, ctx: CallContext) -> bytes:
            try:
                return handler(dec, ctx)
            except AccessDeniedSignal:
                return self._error(NFSStat.NFSERR_ACCES)
            except FSError as exc:
                return self._error(stat_for_error(exc))

        return wrapped

    def _check(self, ctx: CallContext, op: str, fh: FileHandle,
               inode: Inode | None) -> None:
        self.controller.check(ctx, op, fh, inode)

    # -- procedure registration ------------------------------------------

    def _register_procedures(self) -> None:
        table = {
            Proc.GETATTR: self._proc_getattr,
            Proc.SETATTR: self._proc_setattr,
            Proc.LOOKUP: self._proc_lookup,
            Proc.READLINK: self._proc_readlink,
            Proc.READ: self._proc_read,
            Proc.WRITE: self._proc_write,
            Proc.CREATE: self._proc_create,
            Proc.REMOVE: self._proc_remove,
            Proc.RENAME: self._proc_rename,
            Proc.LINK: self._proc_link,
            Proc.SYMLINK: self._proc_symlink,
            Proc.MKDIR: self._proc_mkdir,
            Proc.RMDIR: self._proc_rmdir,
            Proc.READDIR: self._proc_readdir,
            Proc.STATFS: self._proc_statfs,
            Proc.SUBMITCRED: self._proc_submitcred,
            Proc.REVOKE: self._proc_revoke,
            Proc.LISTCREDS: self._proc_listcreds,
            Proc.AUDITLOG: self._proc_auditlog,
        }
        for proc, handler in table.items():
            self.register(proc, self._guarded(handler))

    # -- procedures -------------------------------------------------------

    def _proc_getattr(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh = unpack_fhandle(dec)
        inode = self._inode_for(fh)
        self._check(ctx, "getattr", fh, inode)
        return self._attrstat(inode, ctx)

    def _proc_setattr(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh = unpack_fhandle(dec)
        sattr = unpack_sattr(dec)
        inode = self._inode_for(fh)
        self._check(ctx, "setattr", fh, inode)
        inode = self.vfs.setattr(
            fh.file_id(), mode=sattr.mode, uid=sattr.uid, gid=sattr.gid,
            size=sattr.size, atime=sattr.atime, mtime=sattr.mtime,
        )
        return self._attrstat(inode, ctx)

    def _proc_lookup(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh = unpack_fhandle(dec)
        name = dec.unpack_string(MAX_NAME)
        dir_inode = self._inode_for(fh)
        # Resolve first, authorize second: DisCFS authorizes lookups by
        # directory rights OR rights on the child itself (controller's
        # choice).  Denial is indistinguishable either way (NFSERR_ACCES).
        inode = self.vfs.lookup(fh.file_id(), name)
        self.controller.check_lookup(ctx, fh, dir_inode, inode)
        return self._diropres(inode, ctx)

    def _proc_readlink(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh = unpack_fhandle(dec)
        inode = self._inode_for(fh)
        self._check(ctx, "readlink", fh, inode)
        target = self.vfs.readlink(fh.file_id())
        enc = XDREncoder()
        enc.pack_enum(NFSStat.NFS_OK)
        enc.pack_string(target)
        return enc.getvalue()

    def _proc_read(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh, offset, count = unpack_read_args(dec)
        if count > MAX_DATA:
            raise XDRError(f"read of {count} bytes exceeds NFS maximum {MAX_DATA}")
        fid = fh.file_id()
        inode = self.vfs.getattr(fid)
        self._check(ctx, "read", fh, inode)
        data = self.vfs.read(fid, offset, count)
        enc = XDREncoder()
        pack_read_ok(enc, self._fattr_for(inode, ctx), data)
        return enc.getvalue()

    def _proc_write(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh, offset, data = unpack_write_args(dec)
        fid = fh.file_id()
        inode = self.vfs.getattr(fid)
        self._check(ctx, "write", fh, inode)
        self.vfs.write(fid, offset, data)
        return self._attrstat(inode, ctx)

    def _proc_create(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh = unpack_fhandle(dec)
        name = dec.unpack_string(MAX_NAME)
        sattr = unpack_sattr(dec)
        dir_inode = self._inode_for(fh)
        self._check(ctx, "create", fh, dir_inode)
        inode = self.vfs.create(fh.file_id(), name,
                                mode=sattr.mode if sattr.mode is not None else 0o644)
        if sattr.size is not None:
            self.vfs.truncate(FileHandle.of(inode).file_id(), sattr.size)
        credential = self.controller.on_create(ctx, inode)
        return self._diropres(inode, ctx, credential)

    def _proc_remove(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh = unpack_fhandle(dec)
        name = dec.unpack_string(MAX_NAME)
        dir_inode = self._inode_for(fh)
        self._check(ctx, "remove", fh, dir_inode)
        self.vfs.remove(fh.file_id(), name)
        return self._error(NFSStat.NFS_OK)

    def _proc_rename(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        from_fh = unpack_fhandle(dec)
        from_name = dec.unpack_string(MAX_NAME)
        to_fh = unpack_fhandle(dec)
        to_name = dec.unpack_string(MAX_NAME)
        from_dir = self._inode_for(from_fh)
        to_dir = self._inode_for(to_fh)
        self._check(ctx, "rename", from_fh, from_dir)
        self._check(ctx, "rename", to_fh, to_dir)
        self.vfs.rename(from_fh.file_id(), from_name, to_fh.file_id(), to_name)
        return self._error(NFSStat.NFS_OK)

    def _proc_link(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        target_fh = unpack_fhandle(dec)
        dir_fh = unpack_fhandle(dec)
        name = dec.unpack_string(MAX_NAME)
        target = self._inode_for(target_fh)
        dir_inode = self._inode_for(dir_fh)
        self._check(ctx, "link_target", target_fh, target)
        self._check(ctx, "link", dir_fh, dir_inode)
        self.vfs.link(dir_fh.file_id(), name, target_fh.file_id())
        return self._error(NFSStat.NFS_OK)

    def _proc_symlink(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh = unpack_fhandle(dec)
        name = dec.unpack_string(MAX_NAME)
        target = dec.unpack_string(MAX_PATH)
        unpack_sattr(dec)  # attributes of symlinks are ignored (RFC 1094)
        dir_inode = self._inode_for(fh)
        self._check(ctx, "symlink", fh, dir_inode)
        self.vfs.symlink(fh.file_id(), name, target)
        return self._error(NFSStat.NFS_OK)

    def _proc_mkdir(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh = unpack_fhandle(dec)
        name = dec.unpack_string(MAX_NAME)
        sattr = unpack_sattr(dec)
        dir_inode = self._inode_for(fh)
        self._check(ctx, "mkdir", fh, dir_inode)
        inode = self.vfs.mkdir(fh.file_id(), name,
                               mode=sattr.mode if sattr.mode is not None else 0o755)
        credential = self.controller.on_create(ctx, inode)
        return self._diropres(inode, ctx, credential)

    def _proc_rmdir(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh = unpack_fhandle(dec)
        name = dec.unpack_string(MAX_NAME)
        dir_inode = self._inode_for(fh)
        self._check(ctx, "rmdir", fh, dir_inode)
        self.vfs.rmdir(fh.file_id(), name)
        return self._error(NFSStat.NFS_OK)

    def _proc_readdir(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh = unpack_fhandle(dec)
        cookie = dec.unpack_uint()
        count = dec.unpack_uint()
        dir_inode = self._inode_for(fh)
        self._check(ctx, "readdir", fh, dir_inode)
        entries = self.vfs.readdir(fh.file_id())

        enc = XDREncoder()
        enc.pack_enum(NFSStat.NFS_OK)
        budget = max(count, 512)
        emitted = 0
        index = cookie
        while index < len(entries):
            name, ino = entries[index]
            entry_size = 3 * 4 + 4 + len(name) + 8
            if emitted and entry_size > budget:
                break
            enc.pack_bool(True)  # another entry follows
            enc.pack_uint(ino)
            enc.pack_string(name)
            enc.pack_uint(index + 1)  # cookie of the *next* entry
            budget -= entry_size
            emitted += 1
            index += 1
        enc.pack_bool(False)  # no more entries in this reply
        enc.pack_bool(index >= len(entries))  # eof
        return enc.getvalue()

    def _proc_statfs(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        fh = unpack_fhandle(dec)
        self._check(ctx, "statfs", fh, None)
        info = self.vfs.statfs()
        enc = XDREncoder()
        enc.pack_enum(NFSStat.NFS_OK)
        enc.pack_uint(MAX_DATA)  # tsize: optimal transfer size
        enc.pack_uint(info["block_size"])
        enc.pack_uint(info["total_blocks"])
        enc.pack_uint(info["free_blocks"])
        enc.pack_uint(info["free_blocks"])  # bavail == bfree (no reservation)
        return enc.getvalue()

    # -- DisCFS extension procedures --------------------------------------

    def _proc_submitcred(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        text = dec.unpack_string(max_size=1 << 20)
        message = self.controller.submit_credential(ctx, text)
        enc = XDREncoder()
        enc.pack_enum(NFSStat.NFS_OK)
        enc.pack_string(message)
        return enc.getvalue()

    def _proc_revoke(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        payload = dec.unpack_string(max_size=1 << 20)
        message = self.controller.revoke(ctx, payload)
        enc = XDREncoder()
        enc.pack_enum(NFSStat.NFS_OK)
        enc.pack_string(message)
        return enc.getvalue()

    def _proc_listcreds(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        creds = self.controller.list_credentials(ctx)
        enc = XDREncoder()
        enc.pack_enum(NFSStat.NFS_OK)
        enc.pack_array(creds, lambda e, c: e.pack_string(c))
        return enc.getvalue()

    def _proc_auditlog(self, dec: XDRDecoder, ctx: CallContext) -> bytes:
        limit = dec.unpack_uint()
        lines = self.controller.list_audit(ctx, limit)
        enc = XDREncoder()
        enc.pack_enum(NFSStat.NFS_OK)
        enc.pack_array(lines, lambda e, line: e.pack_string(line))
        return enc.getvalue()
