"""Sharded block store (``shard://``): consistent hashing over child stores.

Block numbers are placed on a consistent-hash ring of virtual nodes
(:data:`VNODES_PER_SHARD` per child), so:

* placement is **deterministic** — the same block always lands on the
  same shard across processes and runs (no randomness, no dict-order
  dependence), which persistence and the conformance suite rely on;
* adding a shard moves only ~1/(n+1) of the keyspace, the property that
  makes ``shard://`` the substrate later resharding/replication PRs
  build on (ROADMAP "Open items").

Vectored ``read_many``/``write_many`` batches are grouped per owning
child and — when ``fanout`` allows — dispatched to the children
**concurrently**: with ``remote://`` children on independent nodes the
round trips overlap, so a batch costs roughly the slowest child's share
instead of the sum of every child's (``fanout=1`` restores the
sequential loop; the fanout ablation measures the difference).  Results
are position-aligned either way, so concurrency never changes answers.
The fan-out pool is a :class:`~repro.obs.trace.ContextExecutor`, so an
active trace span parents the per-shard spans.

Each child keeps its own :class:`~repro.storage.base.BlockDeviceStats`, so
benchmarks can report per-shard traffic and verify balance.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.errors import InvalidArgument
from repro.obs.trace import ContextExecutor
from repro.storage.base import BlockStore, Capabilities

#: Virtual nodes per shard; 64 keeps the ring balanced within a few
#: percent while the ring stays tiny (n*64 entries).
VNODES_PER_SHARD = 64

#: Ceiling for the automatic fan-out width (``fanout=None``): wide
#: enough to cover every ring the benchmarks run, without an unbounded
#: thread pool when someone mounts a 64-way ring.
DEFAULT_MAX_FANOUT = 8


def _ring_hash(key: str) -> int:
    return int.from_bytes(hashlib.sha1(key.encode("ascii")).digest()[:8], "big")


def build_ring(n: int) -> tuple[list[int], list[int]]:
    """The consistent-hash ring for ``n`` children: sorted vnode points
    and the owning child index per point.  A module-level function so
    the control plane can compute the ring of a *prospective* topology
    (``reshard`` diffs the current ring against the target's) without
    mounting it."""
    ring: list[int] = []
    ring_shard: list[int] = []
    points = sorted(
        (_ring_hash(f"shard-{idx}:vnode-{v}"), idx)
        for idx in range(n)
        for v in range(VNODES_PER_SHARD)
    )
    for point, idx in points:
        ring.append(point)
        ring_shard.append(idx)
    return ring, ring_shard


def ring_owner(ring: list[int], ring_shard: list[int], block_no: int) -> int:
    """Index of the child owning ``block_no`` on this ring."""
    point = _ring_hash(f"block-{block_no}")
    i = bisect.bisect_right(ring, point)
    if i == len(ring):
        i = 0
    return ring_shard[i]


class ShardedBlockStore(BlockStore):
    """Scatter blocks over ``children`` via a consistent-hash ring.

    Children must share one block size.  The sharded store presents the
    *union* capacity semantics of its children: every child is addressed
    with the global block number (children are sparse, so a child's
    nominal capacity just needs to cover the global range).

    ``fanout`` bounds how many children a vectored operation addresses
    concurrently: ``None`` picks ``min(len(children), 8)``, ``1`` is
    strictly sequential.  A child that fails mid-fan-out does not stop
    the others — every child's portion runs to completion, then the
    first error is raised, so a slow or dead node never leaves sibling
    batches half-issued.
    """

    scheme = "shard"

    def __init__(self, children: list[BlockStore],
                 fanout: int | None = None):
        if not children:
            raise InvalidArgument("shard:// needs at least one child store")
        block_size = children[0].block_size
        if any(c.block_size != block_size for c in children):
            raise InvalidArgument("shard children must share one block size")
        num_blocks = min(c.num_blocks for c in children)
        super().__init__(num_blocks, block_size)
        if fanout is None:
            fanout = min(len(children), DEFAULT_MAX_FANOUT)
        if fanout < 1:
            raise InvalidArgument("shard fanout must be at least 1")
        self.fanout = min(int(fanout), len(children))
        self._executor = self._new_pool()
        # children + ring live in ONE attribute so a topology swap
        # (reshard) is a single atomic assignment: a concurrent reader
        # never sees the new children with the old ring or vice versa.
        ring, ring_shard = build_ring(len(children))
        self._topology: tuple[list[BlockStore], list[int], list[int]] = (
            list(children), ring, ring_shard,
        )

    @property
    def children(self) -> list[BlockStore]:
        return self._topology[0]

    # -- placement ---------------------------------------------------------

    def shard_for(self, block_no: int) -> int:
        """Index of the child that owns ``block_no`` (deterministic)."""
        _children, ring, ring_shard = self._topology
        return ring_owner(ring, ring_shard, block_no)

    def swap_children(self, children: list[BlockStore],
                      fanout: int | None = None) -> None:
        """Atomically replace the child list (and its ring).

        The control plane's ``reshard`` calls this *after* migrating
        every block whose owner changes, so the swap is the commit
        point: one attribute assignment flips placement for all
        subsequent operations.  The new children must cover the store's
        existing geometry.
        """
        if not children:
            raise InvalidArgument("shard:// needs at least one child store")
        if any(c.block_size != self.block_size for c in children):
            raise InvalidArgument("shard children must share one block size")
        if min(c.num_blocks for c in children) < self.num_blocks:
            raise InvalidArgument(
                "swapped-in children must cover the store's "
                f"{self.num_blocks} blocks"
            )
        ring, ring_shard = build_ring(len(children))
        if fanout is not None:
            if fanout < 1:
                raise InvalidArgument("shard fanout must be at least 1")
            new_fanout = min(int(fanout), len(children))
        else:
            new_fanout = min(self.fanout, len(children))
        if new_fanout != self.fanout:
            # The pool was sized for the old fanout: swap in one at the
            # new width (in-flight tasks on the old pool run to
            # completion).
            self.fanout = new_fanout
            executor, self._executor = self._executor, self._new_pool()
            executor.shutdown(wait=False)
        self._topology = (list(children), ring, ring_shard)

    # -- fan-out machinery -------------------------------------------------

    def _new_pool(self) -> ContextExecutor:
        return ContextExecutor(max_workers=self.fanout,
                               thread_name_prefix="shard-fanout")

    def _fan_out(self, tasks: list) -> list:
        """Run ``tasks`` (thunks) concurrently; every task is attempted
        even when an earlier one fails, then the first error is raised.
        Returns the task results in order."""
        if self.fanout == 1 or len(tasks) == 1:
            return [task() for task in tasks]
        futures = [self._executor.submit(task) for task in tasks]
        results = []
        first_exc: BaseException | None = None
        for fut in futures:
            try:
                results.append(fut.result())
            except BaseException as exc:
                if first_exc is None:
                    first_exc = exc
                results.append(None)
        if first_exc is not None:
            raise first_exc
        return results

    # -- BlockStore interface ----------------------------------------------

    # Every data-path operation snapshots ``self._topology`` exactly
    # once and uses children + ring from the SAME snapshot: reading them
    # through separate attribute accesses could pair the new ring with
    # the old child list across a concurrent swap_children (the reshard
    # commit point), which is precisely what the single-assignment swap
    # exists to prevent.

    def _get(self, block_no: int) -> bytes | None:
        children, ring, ring_shard = self._topology
        child = children[ring_owner(ring, ring_shard, block_no)]
        return child.read(block_no)

    def _put(self, block_no: int, data: bytes) -> None:
        children, ring, ring_shard = self._topology
        children[ring_owner(ring, ring_shard, block_no)].write(block_no, data)

    def _contains(self, block_no: int) -> bool:
        children, ring, ring_shard = self._topology
        child = children[ring_owner(ring, ring_shard, block_no)]
        return child._contains(block_no)

    @staticmethod
    def _group_by_shard(topology, block_nos: list[int]) -> dict[int, list[int]]:
        """Positions into ``block_nos`` grouped by owning child index,
        placed on the given topology snapshot's ring."""
        _children, ring, ring_shard = topology
        groups: dict[int, list[int]] = {}
        for pos, block_no in enumerate(block_nos):
            groups.setdefault(
                ring_owner(ring, ring_shard, block_no), []
            ).append(pos)
        return groups

    def _get_many(self, block_nos: list[int]) -> list[bytes | None]:
        # One read_many per owning child instead of one read per block —
        # and, past fanout=1, all children at once: with remote:// nodes
        # that is one *overlapped* RPC round trip per shard.
        topology = self._topology
        children = topology[0]
        out: list[bytes | None] = [None] * len(block_nos)
        groups = list(self._group_by_shard(topology, block_nos).items())

        def fetch(child_idx: int, positions: list[int]):
            datas = children[child_idx].read_many(
                [block_nos[pos] for pos in positions]
            )
            for pos, data in zip(positions, datas):
                out[pos] = data

        self._fan_out([
            (lambda idx=idx, positions=positions: fetch(idx, positions))
            for idx, positions in groups
        ])
        return out

    def _put_many(self, items: list[tuple[int, bytes]]) -> None:
        topology = self._topology
        children = topology[0]
        groups = list(
            self._group_by_shard(
                topology, [block_no for block_no, _ in items]
            ).items()
        )
        self._fan_out([
            (lambda idx=idx, positions=positions:
                children[idx].write_many([items[pos] for pos in positions]))
            for idx, positions in groups
        ])

    def flush(self) -> None:
        # Attempt every child even when one raises — a failing shard
        # must not leave its siblings unflushed — then surface the
        # first error.
        first_exc: BaseException | None = None
        for child in self.children:
            try:
                child.flush()
            except BaseException as exc:
                if first_exc is None:
                    first_exc = exc
        if first_exc is not None:
            raise first_exc

    def close(self) -> None:
        first_exc: BaseException | None = None
        for child in self.children:
            try:
                child.close()
            except BaseException as exc:
                if first_exc is None:
                    first_exc = exc
        self._executor.shutdown(wait=True)
        if first_exc is not None:
            raise first_exc

    def used_blocks(self) -> int:
        return sum(c.used_blocks() for c in self.children)

    def used_block_numbers(self) -> list[int]:
        numbers: set[int] = set()
        for child in self.children:
            numbers.update(child.used_block_numbers())
        return sorted(numbers)

    def leaf_stores(self) -> list[BlockStore]:
        return [leaf for c in self.children for leaf in c.leaf_stores()]

    def child_stores(self) -> list[BlockStore]:
        return list(self.children)

    def capabilities(self) -> Capabilities:
        child_caps = [c.capabilities() for c in self.children]
        return Capabilities(
            thread_safe=False,  # fan-out bookkeeping assumes one caller
            durable=all(c.durable for c in child_caps),
            networked=any(c.networked for c in child_caps),
            composite=True,
        )

    def shard_distribution(self) -> list[int]:
        """Blocks currently held per shard (for balance reporting)."""
        return [c.used_blocks() for c in self.children]

    def describe(self) -> str:
        kinds = ",".join(c.scheme for c in self.children)
        return (
            f"shard://{len(self.children)} [{kinds}] fanout={self.fanout}  "
            f"{self.num_blocks}x{self.block_size}B"
        )
