"""Pluggable storage backends for the DisCFS substrate.

The block layer under FFS is chosen by URI — or by a programmatic
:mod:`~repro.storage.spec` builder::

    from repro.storage import open_device, open_store
    from repro.storage.spec import replica, remote

    device = open_device("file:///var/lib/discfs.img")
    store = open_store(replica(remote("h1:9001"), remote("h2:9001"),
                               remote("h3:9001"), w=2, r=2))

Each scheme is *declared* once, as a :class:`~repro.storage.spec.StoreSpec`
subclass (options, examples, ``build``); parsing, rendering, validation,
``discfs backends`` and the README table are *derived* from that — run
``discfs backends`` for the schemes and their grammar.  Backends compose
(``cached://replica://3#capacity=512``), and the single-child layers share
one forwarding base, :class:`~repro.storage.base.WrapperBlockStore`.

The control plane (:mod:`repro.storage.control`) inspects mounted
topologies: :func:`describe` dumps the live tree with per-node
capabilities and stats.
"""

from repro.storage.adapter import StoreBlockDevice
from repro.storage.auth import (
    StoreAuthGate,
    TenantQuota,
    issue_store_credential,
)
from repro.storage.base import BlockStore, Capabilities, StoreStats
from repro.storage.cache import CachedBlockStore, CacheStats
from repro.storage.control import SpecTree, describe, iter_stores
from repro.storage.filestore import FileBlockStore
from repro.storage.journal import (
    JournalBlockStore,
    JournalInfo,
    JournalStats,
    inspect_journal,
)
from repro.storage.memory import MemoryBlockStore
from repro.storage.metered import InstrumentedBlockStore
from repro.storage.net import (
    BLOCKSTORE_PROGRAM,
    BlockStoreProgram,
    RemoteBlockStore,
    StoreServer,
    serve_store,
)
from repro.storage.registry import (
    DEFAULT_NUM_BLOCKS,
    build,
    open_device,
    open_store,
    registered_schemes,
    split_uri,
)
from repro.storage.replica import (
    DelayedBlockStore,
    FailingBlockStore,
    ReplicaStats,
    ReplicatedBlockStore,
)
from repro.storage.spec import SpecError, StoreSpec, parse_spec
from repro.storage.tenant import TenantBlockStore

__all__ = [
    "BLOCKSTORE_PROGRAM",
    "BlockStore",
    "BlockStoreProgram",
    "CacheStats",
    "CachedBlockStore",
    "Capabilities",
    "DEFAULT_NUM_BLOCKS",
    "DelayedBlockStore",
    "FailingBlockStore",
    "FileBlockStore",
    "InstrumentedBlockStore",
    "JournalBlockStore",
    "JournalInfo",
    "JournalStats",
    "MemoryBlockStore",
    "RemoteBlockStore",
    "ReplicaStats",
    "ReplicatedBlockStore",
    "SpecError",
    "SpecTree",
    "StoreAuthGate",
    "StoreBlockDevice",
    "StoreServer",
    "StoreSpec",
    "StoreStats",
    "TenantBlockStore",
    "TenantQuota",
    "build",
    "describe",
    "inspect_journal",
    "issue_store_credential",
    "iter_stores",
    "open_device",
    "open_store",
    "parse_spec",
    "registered_schemes",
    "serve_store",
    "split_uri",
]
