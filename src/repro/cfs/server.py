"""CFS daemon assembly: NFS server over a plain or encrypting VFS."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cfs.cipher_layer import EncryptingVFS
from repro.fs.ffs import FFS
from repro.fs.vfs import VFS
from repro.nfs.mount import MountProgram
from repro.nfs.server import NFSProgram
from repro.rpc.server import RPCServer
from repro.rpc.transport import InProcessTransport

if TYPE_CHECKING:
    from repro.storage.adapter import StoreBlockDevice
    from repro.storage.spec import SpecLike


class CFSServer:
    """A user-level CFS daemon.

    ``encrypt=True`` is CFS proper; ``encrypt=False`` is **CFS-NE**, the
    paper's baseline: identical NFS plumbing, no cryptography, no KeyNote.

    The server owns its filesystem unless one is supplied (the benchmark
    harness passes a shared FFS so all systems store to the same substrate);
    an owned one is built on ``device`` — a device, URI or spec, as
    :class:`~repro.fs.ffs.FFS` takes.
    """

    def __init__(
        self,
        fs: FFS | None = None,
        device: StoreBlockDevice | SpecLike | None = None,
        encrypt: bool = False,
        master_key: bytes = b"cfs-default-master-key",
    ):
        self.fs = fs if fs is not None else FFS(device)
        self.encrypt = encrypt
        if encrypt:
            self.vfs: VFS = EncryptingVFS(self.fs, master_key)
        else:
            self.vfs = VFS(self.fs)
        self.rpc = RPCServer()
        self.nfs_program = NFSProgram(self.vfs)
        self.mount_program = MountProgram(self.vfs)
        self.rpc.register(self.nfs_program)
        self.rpc.register(self.mount_program)

    def handler(self, identity: str | None = None):
        """``bytes -> bytes`` entry point for any transport."""
        return self.rpc.handler_for(identity)

    def in_process_transport(self, identity: str | None = None) -> InProcessTransport:
        """Convenience: a directly-wired client transport."""
        return InProcessTransport(self.handler(identity))
