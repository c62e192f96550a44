"""The store control plane: inspect and reconfigure mounted topologies.

The data plane (``read``/``write``/``read_many``/``write_many``) moves
blocks; this module is the *admin* surface over it, in the spirit of the
directory/authentication split the distributed accumulator literature
argues for — an explicit, inspectable description of the topology,
separate from the bytes:

* :func:`describe` — walk a live store stack into a :class:`SpecTree`:
  per-node scheme, description, :class:`~repro.storage.base.Capabilities`
  and :class:`~repro.storage.base.StoreStats` snapshot (plus the served
  node's own stats for ``remote://`` children).  ``discfs store-inspect``
  renders it.
* :func:`reshard` — the flagship consumer: live shard add/remove on a
  mounted ``shard://`` ring.  It diffs the current consistent-hash ring
  against the target :class:`~repro.storage.spec.ShardSpec`'s, moves
  **only** the blocks whose ring owner changes (vectored
  ``read_many``/``write_many``, concurrent per child pair), optionally
  verifies every moved block, then atomically swaps the child list —
  one assignment, so concurrent readers never see a half-migrated ring.
  ``discfs reshard`` and ``benchmarks/test_ablation_reshard.py`` drive
  it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import InvalidArgument
from repro.obs.trace import ContextExecutor
from repro.storage.base import BlockStore, Capabilities, StoreStats, close_quietly
from repro.storage.registry import build
from repro.storage.shard import ShardedBlockStore, build_ring, ring_owner
from repro.storage.spec import ShardSpec, SpecLike, parse_spec

#: Blocks per vectored move batch — bounds migration memory while still
#: amortizing round trips on remote children.
MOVE_BATCH = 1024


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------


@dataclass
class SpecTree:
    """One node of a live topology dump (see :func:`describe`)."""

    scheme: str
    description: str
    capabilities: Capabilities
    stats: StoreStats
    children: list["SpecTree"] = field(default_factory=list)
    #: The served store's own snapshot, for nodes that proxy a remote
    #: one (None elsewhere).
    remote: StoreStats | None = None

    def walk(self):
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        node = {
            "scheme": self.scheme,
            "description": self.description,
            "capabilities": {
                "thread_safe": self.capabilities.thread_safe,
                "durable": self.capabilities.durable,
                "networked": self.capabilities.networked,
                "composite": self.capabilities.composite,
            },
            "stats": self.stats.to_dict(),
            "children": [child.to_dict() for child in self.children],
        }
        if self.remote is not None:
            node["remote"] = self.remote.to_dict()
        return node

    def render(self, indent: int = 0) -> str:
        """Human tree rendering (what ``discfs store-inspect`` prints)."""
        pad = "  " * indent
        lines = [
            f"{pad}{self.description}",
            f"{pad}  caps: {self.capabilities.flags()}   "
            f"io: {self.stats.reads}r/{self.stats.writes}w "
            f"{self.stats.fsyncs}fsync",
        ]
        interesting = {
            name: value for name, value in self.stats.extra.items() if value
        }
        if interesting:
            rendered = ", ".join(
                f"{name}={value:g}" for name, value in
                sorted(interesting.items())
            )
            lines.append(f"{pad}  {rendered}")
        if self.remote is not None:
            lines.append(
                f"{pad}  served: {self.remote.reads}r/"
                f"{self.remote.writes}w [{self.remote.description}]"
            )
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


def describe(store: BlockStore) -> SpecTree:
    """Live topology of a mounted store stack, one node per layer.

    Every node carries the layer's scheme, ``describe()`` line, typed
    capabilities and a stats snapshot; ``remote://`` nodes additionally
    fetch the *served* store's snapshot so a cluster dump shows each
    node's authoritative counters, not just the client's view.
    """
    try:
        remote = store.remote_stats()
    except Exception:
        remote = None  # a dead node still renders locally
    return SpecTree(
        scheme=store.scheme,
        description=store.describe(),
        capabilities=store.capabilities(),
        stats=store.snapshot(),
        children=[describe(child) for child in store.child_stores()],
        remote=remote,
    )


def iter_stores(store: BlockStore):
    """Every store in the mounted stack, depth-first, each once."""
    yield store
    for child in store.child_stores():
        yield from iter_stores(child)


# ---------------------------------------------------------------------------
# reshard
# ---------------------------------------------------------------------------


@dataclass
class ReshardReport:
    """What a migration did (``discfs reshard`` and the ablation print
    it): movement is the cost axis, verification the safety one."""

    total_blocks: int = 0       # authoritative blocks on the old ring
    moved_blocks: int = 0       # blocks whose ring owner changed
    reused_children: int = 0    # child positions kept live across the swap
    added_children: int = 0     # newly built (or replaced-in) children
    removed_children: int = 0   # children closed after the swap
    verified: bool = False      # moved blocks re-read and compared
    seconds: float = 0.0        # wall-clock for plan+move+verify+swap

    @property
    def moved_fraction(self) -> float:
        return self.moved_blocks / self.total_blocks if self.total_blocks \
            else 0.0


def _match_positions(old_spec: ShardSpec, new_spec: ShardSpec) -> set[int]:
    """Child positions whose spec is unchanged between the two layouts.

    Matching is positional because ring placement is positional: child
    ``i``'s vnodes hash as ``shard-i``, so the same child spec at a
    different index owns different keys.  (Append/remove at the tail —
    the consistent-hashing sweet spot — matches naturally.)
    """
    return {
        i for i in range(min(len(old_spec.shards), len(new_spec.shards)))
        if old_spec.shards[i] == new_spec.shards[i]
    }


def reshard(
    store: ShardedBlockStore,
    old_spec: SpecLike,
    new_spec: SpecLike,
    *,
    verify: bool = True,
    batch: int = MOVE_BATCH,
) -> ReshardReport:
    """Migrate a live ``shard://`` ring from ``old_spec`` to ``new_spec``.

    ``old_spec`` must describe the currently mounted ring (same child
    count); ``new_spec`` is the target.  Only blocks whose consistent-
    hash owner differs between the two rings are moved — ~1/(n+1) of
    the keyspace for a tail append — each batch read from its current
    owner and written to its new one, child pairs in parallel.  With
    ``verify`` (default) every moved block is re-read from its
    destination and compared before the commit point.  The swap itself
    is a single atomic assignment inside the mounted store; removed
    children are closed afterwards.

    **Reads** may continue through ``store`` for the whole migration:
    they are served by the old ring, and moved blocks are *copied*,
    never deleted from their old owner before the swap.  **Writes must
    be quiesced** for the duration: a write landing on a block *after*
    its copy was taken would be routed to the old owner and silently
    shadowed by the stale copy once the new ring takes over (tracking
    and re-copying dirtied blocks is the noted follow-up in ROADMAP).
    ``discfs reshard`` mounts its own store, so the CLI path has no
    concurrent writers by construction.

    Because copies are never reclaimed, per-child counters
    (``used_blocks()``/``shard_distribution()``) overcount after a
    migration — stale copies linger on old owners until overwritten.
    ``used_block_numbers()`` (distinct blocks) stays exact, and a later
    reshard ignores the stale copies when planning; a ``discard``/trim
    primitive to reclaim them is the noted ROADMAP follow-up.
    """
    old_spec = parse_spec(old_spec)
    new_spec = parse_spec(new_spec)
    if not isinstance(old_spec, ShardSpec) or not isinstance(new_spec, ShardSpec):
        raise InvalidArgument(
            "reshard needs shard:// specs "
            f"(got {old_spec.scheme}:// -> {new_spec.scheme}://)"
        )
    if not isinstance(store, ShardedBlockStore):
        raise InvalidArgument(
            f"reshard operates on a mounted shard:// store, "
            f"not {store.scheme}://"
        )
    old_children = store.children
    if len(old_spec.shards) != len(old_children):
        raise InvalidArgument(
            f"old spec names {len(old_spec.shards)} children but the "
            f"mounted ring has {len(old_children)}"
        )
    started = time.monotonic()
    report = ReshardReport()

    keep = _match_positions(old_spec, new_spec)
    n_new = len(new_spec.shards)
    new_ring, new_ring_shard = build_ring(n_new)

    # Build the target child list: reuse unchanged positions, open the
    # rest from their specs.
    new_children: list[BlockStore] = []
    opened: list[BlockStore] = []
    try:
        for j in range(n_new):
            if j in keep:
                new_children.append(old_children[j])
            else:
                child = build(new_spec.shards[j],
                              num_blocks=store.num_blocks,
                              block_size=store.block_size)
                opened.append(child)
                new_children.append(child)

        # Plan: every authoritative block (held by its old-ring owner)
        # whose destination differs — a changed ring position, or an
        # unchanged position whose child is being replaced.
        moves: dict[tuple[int, int], list[int]] = {}
        for i, child in enumerate(old_children):
            for block_no in child.used_block_numbers():
                if block_no >= store.num_blocks:
                    continue  # beyond the mounted geometry
                if store.shard_for(block_no) != i:
                    continue  # stale non-owner copy from an older layout
                report.total_blocks += 1
                j = ring_owner(new_ring, new_ring_shard, block_no)
                if j == i and i in keep:
                    continue  # same child object keeps owning it
                moves.setdefault((i, j), []).append(block_no)

        # Pairs run concurrently, but two pairs may share a child (two
        # sources feeding one new node, or a kept child acting as both
        # source and destination) — and children do not in general
        # tolerate concurrent callers.  One lock per live store object
        # serializes access per child while distinct pairs still overlap.
        child_locks: dict[int, threading.Lock] = {}
        for store_obj in (*old_children, *new_children):
            child_locks.setdefault(id(store_obj), threading.Lock())

        def move_pair(pair: tuple[int, int]) -> int:
            src, dst = pair
            block_nos = moves[pair]
            src_lock = child_locks[id(old_children[src])]
            dst_lock = child_locks[id(new_children[dst])]
            for start in range(0, len(block_nos), batch):
                window = block_nos[start:start + batch]
                with src_lock:
                    datas = old_children[src].read_many(window)
                with dst_lock:
                    new_children[dst].write_many(list(zip(window, datas)))
                    if verify:
                        echoed = new_children[dst].read_many(window)
                        for block_no, want, got in zip(window, datas, echoed):
                            if want != got:
                                raise InvalidArgument(
                                    f"reshard verification failed: block "
                                    f"{block_no} mismatched on child {dst}"
                                )
            return len(block_nos)

        pairs = list(moves)
        if len(pairs) > 1:
            with ContextExecutor(max_workers=min(8, len(pairs)),
                                 thread_name_prefix="reshard") as pool:
                moved = list(pool.map(move_pair, pairs))
        else:
            moved = [move_pair(pair) for pair in pairs]
        report.moved_blocks = sum(moved)
        report.verified = verify

        # Commit point: one atomic assignment flips the ring.
        store.swap_children(new_children, fanout=new_spec.fanout)
    except Exception:
        close_quietly(opened)
        raise

    # Retire children that did not make it into the new ring.
    for i, child in enumerate(old_children):
        if i >= n_new or i not in keep:
            report.removed_children += 1
            try:
                child.close()
            except Exception:
                pass  # a dead node may not close cleanly
    report.reused_children = len(keep)
    report.added_children = len(opened)
    report.seconds = time.monotonic() - started
    return report
