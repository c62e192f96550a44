"""Replicated block store (``replica://``): quorum fan-out over children.

Every write fans out to all ``n`` children and must be accepted by at
least ``W`` of them; every read collects answers from ``R`` children and
returns the newest copy.  With ``W + R > n`` (e.g. ``replica://3?w=2&r=2``)
any read quorum intersects any write quorum, so a one-node outage stays
fully available *and* consistent — the Dynamo-style arithmetic Peer2PIR
assumes of its IPFS substrate.

The fan-out is **concurrent** by default: writes are issued to every
child in parallel and the call returns as soon as ``W`` children have
accepted, so latency tracks the ``W``-th fastest replica instead of the
slowest.  Stragglers finish in the background (counted in
:attr:`ReplicaStats.background_writes`); :meth:`drain`/``flush`` wait
for them.  Reads dispatch ``R`` children *concurrently* (instead of one
after another) and recruit the next child whenever one fails; all ``R``
answers are still required, so a slow-but-alive child inside the chosen
``R`` bounds the read unless ``hedge_ms`` recruits one more.
Each child has its own lane (:class:`~repro.obs.trace.ContextLane`),
one thread running that child's tasks in submission order — a
straggler from batch 17 can never land on top of batch 18 — while
different replicas overlap freely.  A call posts its child tasks to the
lanes; each puts ``(idx, exc, result)`` on the call's own queue, which
the caller reads until its quorum is decided.  A task runs in the
context copied when it was posted, so an active trace span parents the
child's spans.  ``fanout=1`` (the fanout ablation's baseline) has no
lanes and runs each task on the caller's thread: the same path,
strictly sequential.

Freshness is decided by per-block **version stamps**: a counter bumped on
every write and recorded per child.  A child that missed a write (it was
down, or outside the write set) holds a lower stamp; when a later read
sees the divergence it answers with the newest copy (last-write-wins)
and writes that copy back to every lagging child — **read-repair**, the
mechanism that heals a replica after an outage without a separate
anti-entropy pass.  Stamps live in the replica layer, not in the blocks,
so children stay plain byte stores (any backend URI works, including
``remote://``); when a store is reopened over already-populated children
the stamps start empty, i.e. all copies are presumed equally fresh.

Only an **outage** degrades the quorum: a child raising
:class:`~repro.errors.StoreUnavailable` (a dead ``remote://`` node, a
failed nested quorum) or ``OSError`` is counted in :class:`ReplicaStats`
and the operation carries on with the others.  A typed denial
(:class:`~repro.errors.AuthError`, :class:`~repro.errors.QuotaExceeded`,
:class:`~repro.errors.RateLimited`) is an answer about the caller: it
propagates unchanged, so a node that applied a ``REVOKE`` or enforces a
quota is never outvoted — unless it answers after a write quorum has
returned, when it lands in the background like any straggler's result.
Read-repair's write-back is the exception: the caller only asked to
read, so a child refusing the repair is skipped and counted like an
outage.  :class:`FailingBlockStore` (``failing://``) is the injectable
outage, and :class:`DelayedBlockStore` (``slow://``) the straggler.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from functools import partial
from queue import Empty, SimpleQueue
from typing import Callable

from repro.errors import (
    AuthError,
    InvalidArgument,
    QuorumError,
    QuotaExceeded,
    RateLimited,
    StoreUnavailable,
)
from repro.obs.trace import ContextLane
from repro.storage.base import BlockStore, Capabilities, T, WrapperBlockStore

#: An outage: the only child outcome the quorum fails over.
_CHILD_FAILURES = (StoreUnavailable, OSError)
#: What read-repair's best-effort write-back skips: an outage, or a
#: child that refuses the repair with a typed denial.
_REPAIR_REFUSALS = (*_CHILD_FAILURES, AuthError, QuotaExceeded, RateLimited)

#: Version of the stamps-sidecar JSON format (``#stamps=PATH``).
_STAMPS_FORMAT = 1

#: Lets runnable threads take the CPU (and the interpreter lock).
_yield_cpu = getattr(os, "sched_yield", lambda: time.sleep(0))


@dataclass
class ReplicaStats:
    """Degraded-mode, repair, and background-completion counters."""

    degraded_writes: int = 0    # write fan-outs where >=1 child failed
    degraded_reads: int = 0     # read quorums assembled past >=1 failure
    repaired_blocks: int = 0    # blocks rewritten onto lagging children
    child_failures: int = 0     # individual child operations that failed
    background_writes: int = 0  # child writes the caller did not wait
                                # for: n - w per fault-free write
    hedged_reads: int = 0       # extra reads dispatched past hedge_ms

    def reset(self) -> None:
        self.degraded_writes = self.degraded_reads = 0
        self.repaired_blocks = self.child_failures = 0
        self.background_writes = 0
        self.hedged_reads = 0


@dataclass(frozen=True, init=False)
class Quorum:
    """Write/read quorum sizes over ``n`` replicas: ``1 <= w, r <= n``
    holds for every instance (``w=None`` is write-all, ``r=None``
    read-one), so nothing downstream re-checks the range."""

    n: int
    w: int
    r: int

    def __init__(self, n: int, w: int | None = None, r: int | None = None):
        w = n if w is None else w
        r = 1 if r is None else r
        for what, size in (("write quorum w", w), ("read quorum r", r)):
            if not 1 <= size <= n:
                raise InvalidArgument(f"{what}={size} outside 1..{n}")
        for name, value in (("n", n), ("w", w), ("r", r)):
            object.__setattr__(self, name, value)

    @property
    def consistent(self) -> bool:
        """Reads are strongly consistent iff every read quorum
        intersects every write quorum (W + R > N).  Non-overlapping
        configs (w=1&r=1 fan-out) are a supported eventual-consistency
        mode, so this is a classification, not a bound."""
        return self.w + self.r > self.n


class ReplicatedBlockStore(BlockStore):
    """Write-fan-out / read-quorum replication over ``children``.

    ``fanout`` controls concurrency: ``1`` runs every child task inline
    on the caller's thread; any larger value (or ``None``, the default)
    gives every child its own ordered lane and overlaps them.  Replica
    ordering needs a full lane per child, so the knob is effectively
    sequential-vs-concurrent rather than a width.
    """

    scheme = "replica"

    def __init__(self, children: list[BlockStore],
                 write_quorum: int | None = None,
                 read_quorum: int | None = None,
                 fanout: int | None = None, hedge_ms: float | None = None,
                 stamps_path: str | None = None):
        n = len(children)
        if n == 0:
            raise InvalidArgument("replica:// needs at least one child store")
        block_size = children[0].block_size
        if any(c.block_size != block_size for c in children):
            raise InvalidArgument("replica children must share one block size")
        quorum = Quorum(n, write_quorum, read_quorum)
        if fanout is not None and fanout < 1:
            raise InvalidArgument("replica fanout must be at least 1")
        if hedge_ms is not None and hedge_ms < 0:
            raise InvalidArgument("replica hedge_ms must be >= 0")
        super().__init__(min(c.num_blocks for c in children), block_size)
        self.children = list(children)
        self.write_quorum = quorum.w
        self.read_quorum = quorum.r
        #: Surfaced in stats and ``describe`` rather than enforced.
        self.consistent_quorums = quorum.consistent
        self.fanout = n if fanout is None else min(int(fanout), n)
        #: After this many milliseconds waiting on a racing read, one
        #: extra child is recruited — capping the tail a slow-but-alive
        #: child inside the chosen R would otherwise impose.  None
        #: disables hedging (the pre-hedge behaviour).
        self.hedge_ms = hedge_ms
        #: Sidecar file persisting version stamps across restarts, so
        #: last-write-wins read-repair still knows which child is stale
        #: after the process reopens the same children.  None keeps the
        #: old presume-all-fresh reopen semantics.
        self.stamps_path = stamps_path
        self.replica_stats = ReplicaStats()
        #: Lamport-ish write counter; bumped once per write batch.
        self._clock = 0
        #: Per-child block -> version stamp of the copy that child holds.
        self._versions: list[dict[int, int]] = [dict() for _ in children]
        #: Whether the stamps changed since the last sidecar save —
        #: flush() runs on the fsync hot path, so an unchanged map must
        #: not re-serialize the whole sidecar.
        self._stamps_dirty = False
        if stamps_path:
            self._load_stamps()
        #: Per-child block -> newest version *scheduled* onto the child
        #: (in flight on its lane or already acknowledged).  Read-repair
        #: consults this so it never queues a redundant repair behind a
        #: straggler write that is about to deliver the same version —
        #: which would make a fast read wait on the slowest lane.
        self._scheduled: list[dict[int, int]] = [dict() for _ in children]
        #: Guards _clock, _versions, and replica_stats against the
        #: background lanes.
        self._lock = threading.Lock()
        #: One ordered lane per child; the sequential mode has none and
        #: runs every task inline.
        self._lanes = ([ContextLane(f"replica-{idx}") for idx in range(n)]
                       if self._concurrent else [])

    # -- lanes -------------------------------------------------------------

    @property
    def _concurrent(self) -> bool:
        return self.fanout > 1 and len(self.children) > 1

    def _post(self, idx: int, done: SimpleQueue,
              fn: Callable[[], object]) -> None:
        """Run ``fn`` on child ``idx``'s lane after every task posted
        there before it (at once, inline, without lanes); its outcome
        lands on ``done``."""
        def task() -> None:
            try:
                result = fn()
            except BaseException as exc:  # the caller re-raises it
                done.put((idx, exc, None))
            else:
                done.put((idx, None, result))

        if self._lanes:
            self._lanes[idx].submit(task)
        else:
            task()

    def _gather(self, tasks: dict[int, Callable[[], object]]
                ) -> list[tuple[int, BaseException | None, object]]:
        """Run one task per child, overlapped, and wait for all of them:
        the outcomes in child order."""
        if not tasks:
            return []
        done: SimpleQueue = SimpleQueue()
        for idx, fn in tasks.items():
            self._post(idx, done, fn)
        return sorted((done.get() for _ in tasks), key=lambda o: o[0])

    def drain(self) -> None:
        """Wait until every task posted so far (background writes
        included) has run — one no-op task per open lane, the barrier
        ``flush``/``close`` use so quorum-W returns never outrun durability."""
        self._gather({idx: lambda: None
                      for idx, lane in enumerate(self._lanes)
                      if not lane.closed})

    # -- stamp persistence -------------------------------------------------

    def _load_stamps(self) -> None:
        """Restore per-child version stamps from the sidecar, if present.

        A sidecar whose shape no longer matches the mounted topology
        (child count changed) is ignored: wrong stamps are worse than
        no stamps, because repair trusts them to name the freshest copy.
        """
        try:
            with open(self.stamps_path, "r", encoding="utf-8") as f:
                raw = json.load(f)
        except FileNotFoundError:
            return
        except (OSError, ValueError):
            return  # unreadable/corrupt sidecar: presume all fresh
        if (not isinstance(raw, dict)
                or raw.get("format") != _STAMPS_FORMAT
                or len(raw.get("children", ())) != len(self.children)):
            return
        try:
            clock = int(raw.get("clock", 0))
            versions = [
                {int(block): int(version) for block, version in stamps.items()}
                for stamps in raw["children"]
            ]
        except (AttributeError, TypeError, ValueError):
            return  # valid JSON, wrong shape: same presume-fresh fallback
        self._clock = clock
        self._versions = versions

    def _save_stamps(self) -> None:
        """Write the stamps sidecar atomically (tmp + fsync + rename),
        called from ``flush``/``close`` after the drain barrier so every
        stamp reflects an acknowledged child write.  Skipped while the
        map is unchanged — ``flush`` runs on the fsync hot path."""
        if not self.stamps_path:
            return
        with self._lock:
            if not self._stamps_dirty:
                return
            payload = {
                "format": _STAMPS_FORMAT,
                "clock": self._clock,
                "children": [
                    {str(block): version for block, version in stamps.items()}
                    for stamps in self._versions
                ],
            }
            self._stamps_dirty = False
        parent = os.path.dirname(self.stamps_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        tmp_path = self.stamps_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
            # rename-into-place is atomic for the *name* only: without
            # flushing the payload first, a crash can leave the new
            # name pointing at truncated data — exactly the restart the
            # sidecar exists to survive.
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, self.stamps_path)

    # -- write path --------------------------------------------------------

    def _put(self, block_no: int, data: bytes) -> None:
        self._put_many([(block_no, data)])

    def _withdraw_scheduled(self, idx: int, items: list[tuple[int, bytes]],
                            version: int) -> None:
        """The scheduled stamp promised ``version`` would land on child
        ``idx``; it won't.  Roll back to the acknowledged stamp (lanes
        are FIFO, so every earlier write already resolved) unless a
        newer write has been scheduled meanwhile."""
        with self._lock:
            scheduled = self._scheduled[idx]
            acked = self._versions[idx]
            for block_no, _data in items:
                if scheduled.get(block_no, 0) == version:
                    if acked.get(block_no, 0):
                        scheduled[block_no] = acked[block_no]
                    else:
                        scheduled.pop(block_no, None)

    def _child_write(self, idx: int, items: list[tuple[int, bytes]],
                     version: int, degraded: list[int]) -> None:
        """One child's share of a write.  It counts its own outage: the
        caller stops listening at quorum.  ``degraded`` is per write."""
        try:
            self.children[idx].write_many(items)
        except BaseException as exc:
            self._withdraw_scheduled(idx, items, version)
            if isinstance(exc, _CHILD_FAILURES):
                with self._lock:
                    self.replica_stats.child_failures += 1
                    if not degraded:
                        degraded.append(idx)
                        self.replica_stats.degraded_writes += 1
            raise
        with self._lock:
            stamps = self._versions[idx]
            scheduled = self._scheduled[idx]
            for block_no, _data in items:
                if stamps.get(block_no, 0) < version:
                    stamps[block_no] = version
                if scheduled.get(block_no, 0) < version:
                    scheduled[block_no] = version

    def _put_many(self, items: list[tuple[int, bytes]]) -> None:
        n = len(self.children)
        need = self.write_quorum
        with self._lock:
            self._clock += 1
            version = self._clock
            self._stamps_dirty = True
            for scheduled in self._scheduled:
                for block_no, _data in items:
                    scheduled[block_no] = version  # the newest stamp yet
        done: SimpleQueue = SimpleQueue()
        degraded: list[int] = []
        for idx in range(n):
            try:
                self._post(idx, done, partial(self._child_write, idx, items,
                                              version, degraded))
            except BaseException:
                # Nothing was queued from here on: withdraw the scheduled
                # promises so a later read still repairs these children.
                for rest in range(idx, n):
                    self._withdraw_scheduled(rest, items, version)
                raise

        ok = failed = heard = 0
        fatal: BaseException | None = None
        while fatal is None and ok < need and failed <= n - need:
            _idx, exc, _result = done.get()
            heard += 1
            if exc is None:
                ok += 1
            elif isinstance(exc, _CHILD_FAILURES):
                failed += 1
            else:
                fatal = exc
        if self._lanes:
            # Under the interpreter lock this thread could run on and
            # starve an idle lane that has yet to take up its write; hand
            # the CPU over until each has, so no write is left unstarted.
            while any(lane.waking for lane in self._lanes):
                _yield_cpu()
            with self._lock:
                self.replica_stats.background_writes += n - heard
        if fatal is not None:
            raise fatal
        if ok < need:
            raise QuorumError(
                f"write quorum not met: {ok}/{n} replicas accepted, "
                f"need {need}"
            )

    # -- read path ---------------------------------------------------------

    def _get(self, block_no: int) -> bytes | None:
        return self._get_many([block_no])[0]

    def _get_many(self, block_nos: list[int]) -> list[bytes | None]:
        responses, failed = self._collect_reads(block_nos)
        if failed:
            with self._lock:
                self.replica_stats.degraded_reads += 1
        if len(responses) < self.read_quorum:
            raise QuorumError(
                f"read quorum not met: {len(responses)} replicas answered, "
                f"need {self.read_quorum}"
            )
        return self._resolve_reads(block_nos, responses)

    def _collect_reads(
        self, block_nos: list[int]
    ) -> tuple[list[tuple[int, list[bytes]]], int]:
        """Race the read quorum: R children in flight at once, the next
        child dispatched whenever one fails, first R answers win.  Without
        lanes each dispatch has answered before the next, so the race is
        the sequential read-until-R loop.

        With ``hedge_ms`` set, a round that produces no answer within
        the budget recruits **one** extra child beyond the chosen R —
        the hedge that caps the tail when a raced child is slow but
        alive (a dead child already triggers recruitment via failure).
        """
        n = len(self.children)
        done: SimpleQueue = SimpleQueue()
        responses: list[tuple[int, list[bytes]]] = []
        failed = in_flight = dispatched = 0

        def dispatch_next() -> bool:
            nonlocal in_flight, dispatched
            if dispatched >= n:
                return False
            child = self.children[dispatched]
            self._post(dispatched, done, partial(child.read_many, block_nos))
            dispatched += 1
            in_flight += 1
            return True

        for _ in range(self.read_quorum):
            dispatch_next()
        hedge = (self.hedge_ms / 1000.0
                 if self.hedge_ms is not None and dispatched < n else None)
        while in_flight and len(responses) < self.read_quorum:
            try:
                idx, exc, datas = done.get(timeout=hedge)
            except Empty:
                # Hedge budget elapsed with a slow-but-alive child still
                # holding up the quorum: dispatch one extra read.  Count
                # only when a spare child actually existed to dispatch
                # (failures may have exhausted the list meanwhile).
                hedge = None
                if dispatch_next():
                    with self._lock:
                        self.replica_stats.hedged_reads += 1
                continue
            in_flight -= 1
            if exc is None:
                responses.append((idx, datas))
            elif isinstance(exc, _CHILD_FAILURES):
                failed += 1
                with self._lock:
                    self.replica_stats.child_failures += 1
                dispatch_next()
            else:
                raise exc
        # Sort by child index so tie-breaks do not depend on who
        # answered first.
        responses.sort(key=lambda r: r[0])
        return responses, failed

    def _resolve_reads(
        self, block_nos: list[int],
        responses: list[tuple[int, list[bytes]]],
    ) -> list[bytes | None]:
        out: list[bytes | None] = [None] * len(block_nos)
        versions: list[int] = [0] * len(block_nos)
        upgrades: dict[int, list[tuple[int, int]]] = {}  # holder -> (pos, ver)
        with self._lock:
            for pos, block_no in enumerate(block_nos):
                # Last-write-wins: among the responders, the copy with the
                # highest version stamp is the provisional answer.
                winner_idx, winner_datas = max(
                    responses,
                    key=lambda r, _no=block_no: self._versions[r[0]].get(_no, 0),
                )
                out[pos] = winner_datas[pos]
                versions[pos] = self._versions[winner_idx].get(block_no, 0)
                # The stamps may show a child *outside* the read set holding
                # a newer copy (e.g. read-one hitting a just-healed replica).
                # Fetch from a newest-stamp holder so staleness the layer can
                # see locally is never served.
                best_version = max(
                    stamps.get(block_no, 0) for stamps in self._versions
                )
                if best_version > versions[pos]:
                    holder = next(
                        idx for idx, stamps in enumerate(self._versions)
                        if stamps.get(block_no, 0) == best_version
                    )
                    upgrades.setdefault(holder, []).append(
                        (pos, best_version)
                    )
        fetched = self._gather({
            holder: partial(self.children[holder].read_many,
                            [block_nos[pos] for pos, _version in entries])
            for holder, entries in upgrades.items()
        })
        for holder, exc, datas in fetched:
            if exc is not None:
                if not isinstance(exc, _CHILD_FAILURES):
                    raise exc
                with self._lock:
                    self.replica_stats.child_failures += 1
                continue  # holder down: serve the responder copy
            for (pos, version), data in zip(upgrades[holder], datas):
                out[pos] = data
                versions[pos] = version
        repairs: dict[int, list[tuple[int, bytes, int]]] = {}
        with self._lock:
            for pos, block_no in enumerate(block_nos):
                if not versions[pos]:
                    continue
                for idx in range(len(self.children)):
                    # A child counts as behind only if nothing at least
                    # this fresh is acknowledged *or already in flight*
                    # on its lane — repairing an in-flight write would
                    # chain this read behind the straggler for nothing.
                    known = max(
                        self._versions[idx].get(block_no, 0),
                        self._scheduled[idx].get(block_no, 0),
                    )
                    if known < versions[pos]:
                        repairs.setdefault(idx, []).append(
                            (block_no, out[pos], versions[pos])
                        )
        self._apply_repairs(repairs)
        return out

    def _apply_repairs(
        self, repairs: dict[int, list[tuple[int, bytes, int]]]
    ) -> None:
        """Best-effort write-back of winning copies to lagging children."""
        written = self._gather({
            idx: partial(self.children[idx].write_many,
                         [(b, data) for b, data, _v in triples])
            for idx, triples in repairs.items()
        })
        for idx, exc, _result in written:
            if exc is not None:
                if not isinstance(exc, _REPAIR_REFUSALS):
                    raise exc
                with self._lock:
                    self.replica_stats.child_failures += 1
                continue  # down or refusing; a later read will retry
            triples = repairs[idx]
            with self._lock:
                stamps = self._versions[idx]
                scheduled = self._scheduled[idx]
                for block_no, _data, version in triples:
                    if stamps.get(block_no, 0) < version:
                        stamps[block_no] = version
                    if scheduled.get(block_no, 0) < version:
                        scheduled[block_no] = version
                self.replica_stats.repaired_blocks += len(triples)
                self._stamps_dirty = True

    # -- everything else ---------------------------------------------------

    def _contains(self, block_no: int) -> bool:
        with self._lock:
            if any(stamps.get(block_no) for stamps in self._versions):
                return True
        # Diverged children (e.g. reopened after independent histories)
        # may hold the block on any replica: OR across the reachable
        # ones, in child order.  Through the lanes, so each probe queues
        # behind that child's in-flight writes instead of racing them.
        for _idx, exc, found in self._gather({
            idx: partial(child._contains, block_no)
            for idx, child in enumerate(self.children)
        }):
            if exc is None and found:
                return True
            if exc is not None and not isinstance(exc, _CHILD_FAILURES):
                raise exc
        return False

    def flush(self) -> None:
        self.drain()  # background stragglers land before children flush
        successes = 0
        for child in self.children:
            try:
                child.flush()
            except _CHILD_FAILURES:
                with self._lock:
                    self.replica_stats.child_failures += 1
                continue
            successes += 1
        self._save_stamps()
        if successes < self.write_quorum:
            raise QuorumError(
                f"flush reached {successes} replicas, "
                f"need {self.write_quorum}"
            )

    def close(self) -> None:
        self.drain()
        self._save_stamps()
        for lane in self._lanes:
            lane.close()
        for child in self.children:
            try:
                child.close()
            except _CHILD_FAILURES:
                continue

    def _ask_reachable(self, what: str) -> list:
        """Every reachable child's answer to ``child.<what>()``, each
        asked in order with that child's queued writes."""
        answers = []
        for _idx, exc, answer in self._gather({
            idx: getattr(child, what)
            for idx, child in enumerate(self.children)
        }):
            if exc is None:
                answers.append(answer)
            elif not isinstance(exc, _CHILD_FAILURES):
                raise exc
        if not answers:
            raise StoreUnavailable(f"no replica reachable for {what}()")
        return answers

    def used_blocks(self) -> int:
        return max(self._ask_reachable("used_blocks"))

    def used_block_numbers(self) -> list[int]:
        return sorted(set().union(*self._ask_reachable("used_block_numbers")))

    def leaf_stores(self) -> list[BlockStore]:
        return [leaf for c in self.children for leaf in c.leaf_stores()]

    def child_stores(self) -> list[BlockStore]:
        return list(self.children)

    def capabilities(self) -> Capabilities:
        child_caps = [c.capabilities() for c in self.children]
        return Capabilities(
            thread_safe=False,  # version stamps assume one caller
            durable=all(c.durable for c in child_caps),
            networked=any(c.networked for c in child_caps),
            composite=True,
        )

    def _extra_stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "degraded_writes": self.replica_stats.degraded_writes,
                "degraded_reads": self.replica_stats.degraded_reads,
                "repaired_blocks": self.replica_stats.repaired_blocks,
                "child_failures": self.replica_stats.child_failures,
                "background_writes": self.replica_stats.background_writes,
                "hedged_reads": self.replica_stats.hedged_reads,
                "write_quorum": self.write_quorum,
                "read_quorum": self.read_quorum,
                "consistent_quorums": float(self.consistent_quorums),
            }

    def describe(self) -> str:
        kinds = ",".join(c.scheme for c in self.children)
        mode = "concurrent" if self._concurrent else "sequential"
        return (
            f"replica://{len(self.children)} w={self.write_quorum} "
            f"r={self.read_quorum} {mode} [{kinds}]  "
            f"{self.num_blocks}x{self.block_size}B"
        )


class FailingBlockStore(WrapperBlockStore):
    """Pass-through wrapper whose failures are switched on and off.

    The injectable outage the replica tests (and ``replica://`` users
    rehearsing failure drills) flip per child:  while ``failing`` is
    True every operation raises :class:`~repro.errors.StoreUnavailable`,
    exactly what a dead ``remote://`` node surfaces.  ``failures``
    counts the operations rejected.  Registered as
    ``failing://<child-uri>`` so outages can be scripted from a URI
    (``replica://failing://mem://;mem://;mem://#w=2&r=2``).
    """

    scheme = "failing"

    def __init__(self, child: BlockStore, failing: bool = False):
        super().__init__(child)
        self.failing = failing
        self.failures = 0

    def fail(self) -> None:
        """Start rejecting every operation (the node 'goes down')."""
        self.failing = True

    def heal(self) -> None:
        """Stop rejecting operations (the node 'comes back')."""
        self.failing = False

    def around(self, op: str, fn: Callable[[], T]) -> T:
        # close() must still release the child of a node that is down.
        if self.failing and op != "close":
            self.failures += 1
            raise StoreUnavailable("injected failure: store is down")
        return fn()

    def _extra_stats(self) -> dict[str, float]:
        return {
            "failures": self.failures,
            "failing": 1.0 if self.failing else 0.0,
        }

    def describe(self) -> str:
        state = "DOWN" if self.failing else "up"
        return f"failing({state}) over {self.child.describe()}"


#: The operations ``slow://`` delays: data movement, not introspection.
_DATA_OPS = frozenset({"read", "write", "read_many", "write_many"})


class DelayedBlockStore(WrapperBlockStore):
    """Pass-through wrapper that sleeps before every data operation.

    The injectable *straggler*: ``slow://<child-uri>#ms=N`` makes one
    replica pay ``N`` milliseconds per operation, which is how the
    concurrency tests and the fanout ablation model a loaded node or a
    slow link without real remote hosts.  The quorum
    acceptance claim — ``w=2`` write latency tracks the 2nd-fastest
    replica, not the slowest — is demonstrated against exactly this
    wrapper.  ``delay_ms`` is writable at runtime so tests can slow a
    node mid-flight.
    """

    scheme = "slow"

    def __init__(self, child: BlockStore, delay_ms: float = 0.0):
        super().__init__(child)
        self.delay_ms = float(delay_ms)
        self.delayed_ops = 0

    def around(self, op: str, fn: Callable[[], T]) -> T:
        if op in _DATA_OPS:
            self.delayed_ops += 1
            if self.delay_ms > 0:
                time.sleep(self.delay_ms / 1000.0)
        return fn()

    def _extra_stats(self) -> dict[str, float]:
        return {"delayed_ops": self.delayed_ops, "delay_ms": self.delay_ms}

    def describe(self) -> str:
        return f"slow({self.delay_ms:g}ms) over {self.child.describe()}"
