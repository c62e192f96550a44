"""Builds the measured systems exactly as the evaluation compares them.

=============  ==========================================================
``FFS``        direct local filesystem calls (the paper's local rows)
``CFS-NE``     CFS daemon, encryption off, reached over NFS/RPC — the
               paper's base case
``CFS``        CFS daemon with encryption on (extra: the system CFS-NE
               was derived from)
``DisCFS``     the full prototype: NFS + KeyNote policy checks + policy
               cache; client identity injected at the transport (the
               paper's measurements isolate the *access-control* overhead
               — both CFS-NE and DisCFS ride identical NFS plumbing)
``DisCFS-IPsec``  DisCFS reached through the IKE/ESP channel, for the
               micro-benchmarks that price the secure channel itself
=============  ==========================================================

Each built system satisfies :class:`repro.bench.targets.FilesystemTarget`
and exposes its internals for stats collection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.targets import FilesystemTarget, LocalFFSTarget, NFSTarget
from repro.cfs.client import cfs_attach
from repro.cfs.server import CFSServer
from repro.core.admin import Administrator, identity_of, make_user_keypair
from repro.core.client import DisCFSClient
from repro.core.permissions import Permission
from repro.core.server import DisCFSServer
from repro.fs.blockdev import BlockDevice, MemoryBlockDevice
from repro.fs.ffs import FFS
from repro.rpc.transport import Transport
from repro.storage import open_device

SYSTEMS = ("FFS", "CFS-NE", "CFS", "DisCFS", "DisCFS-IPsec")

#: The three systems the paper's figures compare.
PAPER_SYSTEMS = ("FFS", "CFS-NE", "DisCFS")

DEFAULT_DEVICE_BLOCKS = 1 << 15  # 256 MB of 8 KiB blocks


@dataclass
class BuiltSystem:
    """A measured system plus handles to its internals."""

    name: str
    target: FilesystemTarget
    fs: FFS
    server: object | None = None
    client: object | None = None
    #: The client's RPC transport (None for local FFS); its ``stats``
    #: count the round trips and bytes the modeled report charges.
    transport: Transport | None = None

    @property
    def device_stats(self):
        return self.fs.device.stats

    @property
    def cache_stats(self):
        if self.server is not None and hasattr(self.server, "cache"):
            return self.server.cache.stats
        return None


def _fresh_device(device_blocks: int, backend: str | None) -> BlockDevice:
    if backend is None:
        return MemoryBlockDevice(num_blocks=device_blocks)
    return open_device(backend, num_blocks=device_blocks)


def make_target(
    system: str,
    cache_capacity: int = 128,
    device_blocks: int = DEFAULT_DEVICE_BLOCKS,
    backend: str | None = None,
) -> BuiltSystem:
    """Build a named system on a fresh filesystem.

    ``backend``: storage URI the filesystem's device is opened from
    (default in-memory).  The backend ablation sweeps this axis while
    everything above the block layer stays identical.
    """
    if system == "FFS":
        fs = FFS(_fresh_device(device_blocks, backend))
        return BuiltSystem(name=system, target=LocalFFSTarget(fs, name=system), fs=fs)

    if system in ("CFS-NE", "CFS"):
        server = CFSServer(
            device=_fresh_device(device_blocks, backend),
            encrypt=(system == "CFS"),
        )
        transport = server.in_process_transport("cfs-user")
        client = cfs_attach(transport, "/")
        return BuiltSystem(
            name=system,
            target=NFSTarget(client, name=system),
            fs=server.fs,
            server=server,
            client=client,
            transport=transport,
        )

    if system in ("DisCFS", "DisCFS-IPsec"):
        admin = Administrator.generate(seed=b"bench-admin")
        server = DisCFSServer(
            admin_identity=admin.identity,
            device=_fresh_device(device_blocks, backend),
            cache_capacity=cache_capacity,
        )
        admin.trust_server(server)
        user_key = make_user_keypair(b"bench-user")
        client = DisCFSClient.connect(
            server, user_key, secure=(system == "DisCFS-IPsec")
        )
        client.attach("/")
        # The administrator grants the benchmark user the whole tree —
        # the equivalent of Bob's Figure 5 credential for his workspace.
        credential = admin.grant_inode(
            identity_of(user_key),
            server.fs.iget(server.fs.root_ino),
            rights=Permission.all(),
            scheme=server.handle_scheme,
            subtree=True,
            comment="benchmark workspace",
        )
        client.submit_credential(credential)
        return BuiltSystem(
            name=system,
            target=NFSTarget(client.nfs, name=system),
            fs=server.fs,
            server=server,
            client=client,
            transport=client.transport,
        )

    raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")
