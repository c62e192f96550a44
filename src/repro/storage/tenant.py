"""Per-tenant views over one shared block store (``tenant://``).

Multi-tenancy on a served ring is a *mapping* problem before it is an
authorization one: every tenant must see a private, zero-based block
namespace while their blocks actually live side by side on the same
physical store.  :class:`TenantBlockStore` is that view — a contiguous
region ``[offset, offset + num_blocks)`` of the child store, re-based so
the tenant addresses blocks ``0..num_blocks-1`` and *cannot name* a
block outside its region (out-of-range numbers fail the ordinary
``_check_range`` validation before any mapping happens).

On top of the namespace the view enforces the resource limits the
shared-infrastructure story needs, all computed from its own
``snapshot()`` counters:

* **block quota** — at most ``quota_blocks`` *distinct* blocks ever
  written (the view tracks its written set, seeded lazily from the
  child so re-served rings keep counting);
* **byte budget** — cumulative ``bytes_written`` may not exceed
  ``quota_bytes`` (a lifetime write budget, the accounting DisCFS-style
  deployments bill on);
* **rate limit** — a token bucket of ``rate_ops`` tokens/second
  (burst ``burst``), one token per block touched, covering reads and
  writes alike.

Breaches raise the typed errors :class:`~repro.errors.QuotaExceeded`
and :class:`~repro.errors.RateLimited`, which the RPC layer carries to
the client as in-band status codes (not transport failures, so
``replica://`` never mistakes an over-quota tenant for a down node).

The view forwards to the child's *internal* hooks (the
:class:`~repro.storage.base.WrapperBlockStore` leaf rule): one stats
layer, and holes stay visible as ``None`` to overlays stacked above.
Tenant traffic is therefore counted *on the view* — which is the leaf
``leaf_stores()`` reports — and surfaces in ``snapshot().extra`` under
flat ``tenant:<name>:<counter>`` keys that ``store-inspect`` and the
serving gate aggregate per tenant.  A gated node's ``--tenant-quota``
declarations (:class:`TenantQuota`) become its views through
:func:`carve_regions`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.errors import InvalidArgument, QuotaExceeded, RateLimited
from repro.storage.base import BlockStore, WrapperBlockStore


@dataclass(frozen=True)
class TenantQuota:
    """One ``--tenant-quota`` declaration: region span plus limits."""

    name: str
    blocks: int
    quota_bytes: Optional[int] = None
    rate_ops: Optional[float] = None

    @classmethod
    def parse(cls, text: str) -> "TenantQuota":
        """Parse the CLI grammar ``NAME=BLOCKS[:BYTES[:RATE]]``."""
        name, sep, rest = text.partition("=")
        parts = rest.split(":")
        if not sep or not name or not 1 <= len(parts) <= 3:
            raise InvalidArgument(
                f"bad tenant quota {text!r} "
                "(expected NAME=BLOCKS[:BYTES[:RATE]])"
            )
        try:
            blocks = int(parts[0])
            quota_bytes = int(parts[1]) if len(parts) > 1 and parts[1] else None
            rate_ops = float(parts[2]) if len(parts) > 2 and parts[2] else None
        except ValueError as exc:
            raise InvalidArgument(f"bad tenant quota {text!r}: {exc}") from None
        if blocks <= 0:
            raise InvalidArgument(f"tenant {name!r} needs a positive span")
        return cls(name=name, blocks=blocks, quota_bytes=quota_bytes,
                   rate_ops=rate_ops)


class TokenBucket:
    """Classic token bucket; caller supplies the clock (tests inject one)."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise InvalidArgument("rate must be positive")
        if burst <= 0:
            raise InvalidArgument("burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def try_take(self, n: float) -> bool:
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens < n:
            return False
        self._tokens -= n
        return True


class TenantBlockStore(WrapperBlockStore):
    """A quota- and rate-limited window onto a region of a shared store."""

    scheme = "tenant"

    def __init__(
        self,
        child: BlockStore,
        name: str,
        offset: int = 0,
        num_blocks: Optional[int] = None,
        *,
        quota_blocks: Optional[int] = None,
        quota_bytes: Optional[int] = None,
        rate_ops: Optional[float] = None,
        burst: Optional[float] = None,
        owns_child: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not name:
            raise InvalidArgument("tenant view needs a non-empty name")
        if offset < 0:
            raise InvalidArgument("tenant offset must be >= 0")
        if num_blocks is None:
            num_blocks = child.num_blocks - offset
        if num_blocks <= 0 or offset + num_blocks > child.num_blocks:
            raise InvalidArgument(
                f"tenant region [{offset}, {offset + num_blocks}) does not fit "
                f"in child store of {child.num_blocks} blocks"
            )
        super().__init__(child, num_blocks)
        self.thread_safe = child.capabilities().thread_safe
        self.name = name
        self.offset = offset
        self.quota_blocks = quota_blocks
        self.quota_bytes = quota_bytes
        self.owns_child = owns_child
        self._bucket = (
            TokenBucket(rate_ops, burst if burst is not None else max(rate_ops, 1.0),
                        clock)
            if rate_ops is not None else None
        )
        self._lock = threading.Lock()
        self._written: Optional[set[int]] = None  # lazy; tenant-local numbers
        #: Limit-enforcement counters (fold into ``snapshot().extra``).
        self.quota_denied = 0
        self.rate_denied = 0

    # -- bookkeeping -------------------------------------------------------

    def _written_set(self) -> set[int]:
        """The tenant-local numbers ever written, seeded from the child.

        Seeding makes quotas survive re-serving an existing store: blocks a
        tenant wrote in a previous incarnation still count against it.
        """
        if self._written is None:
            lo, hi = self.offset, self.offset + self.num_blocks
            try:
                existing = self.child.used_block_numbers()
            except NotImplementedError:
                existing = []
            self._written = {b - lo for b in existing if lo <= b < hi}
        return self._written

    def _charge(self, reads: int = 0, writes: Optional[list[int]] = None) -> None:
        """Enforce rate + quota *before* any I/O happens (all-or-nothing)."""
        writes = writes or []
        with self._lock:
            if self._bucket is not None and not self._bucket.try_take(
                reads + len(writes)
            ):
                self.rate_denied += 1
                raise RateLimited(
                    f"tenant {self.name!r}: rate limit exceeded "
                    f"({self._bucket.rate:g} ops/s)"
                )
            if not writes:
                return
            written = self._written_set()
            if self.quota_blocks is not None:
                new = {b for b in writes if b not in written}
                if len(written) + len(new) > self.quota_blocks:
                    self.quota_denied += 1
                    raise QuotaExceeded(
                        f"tenant {self.name!r}: block quota exceeded "
                        f"({len(written)} used of {self.quota_blocks})"
                    )
            if self.quota_bytes is not None:
                incoming = len(writes) * self.block_size
                if self.stats.bytes_written + incoming > self.quota_bytes:
                    self.quota_denied += 1
                    raise QuotaExceeded(
                        f"tenant {self.name!r}: byte budget exceeded "
                        f"({self.stats.bytes_written} written of "
                        f"{self.quota_bytes})"
                    )
            written.update(writes)

    # -- public wrappers (limits enforced before delegation) ----------------

    def read(self, block_no: int) -> bytes:
        self._check_range(block_no)
        self._charge(reads=1)
        return super().read(block_no)

    def write(self, block_no: int, data: bytes) -> None:
        self._check_range(block_no)
        if len(data) > self.block_size:
            raise InvalidArgument(
                f"data ({len(data)} bytes) exceeds block size "
                f"({self.block_size})"
            )
        self._charge(writes=[block_no])
        super().write(block_no, data)

    def read_many(self, block_nos: list[int]) -> list[bytes]:
        block_nos = list(block_nos)
        for block_no in block_nos:
            self._check_range(block_no)
        self._charge(reads=len(block_nos))
        return super().read_many(block_nos)

    def write_many(self, items: list[tuple[int, bytes]]) -> None:
        items = list(items)
        for block_no, data in items:
            self._check_range(block_no)
            if len(data) > self.block_size:
                raise InvalidArgument(
                    f"data ({len(data)} bytes) exceeds block size "
                    f"({self.block_size})"
                )
        self._charge(writes=[block_no for block_no, _ in items])
        super().write_many(items)

    # -- region-mapped internal hooks ---------------------------------------

    def _get(self, block_no: int) -> bytes | None:
        return self.child._get(self.offset + block_no)

    def _put(self, block_no: int, data: bytes) -> None:
        self.child._put(self.offset + block_no, data)

    def _contains(self, block_no: int) -> bool:
        return self.child._contains(self.offset + block_no)

    def _get_many(self, block_nos: list[int]) -> list[bytes | None]:
        return self.child._get_many([self.offset + b for b in block_nos])

    def _put_many(self, items: list[tuple[int, bytes]]) -> None:
        self.child._put_many([(self.offset + b, d) for b, d in items])

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self.owns_child:
            self.child.close()

    # -- introspection -------------------------------------------------------

    def used_blocks(self) -> int:
        with self._lock:
            return len(self._written_set())

    def used_block_numbers(self) -> list[int]:
        with self._lock:
            return sorted(self._written_set())

    def describe(self) -> str:
        limits = []
        if self.quota_blocks is not None:
            limits.append(f"quota={self.quota_blocks}blk")
        if self.quota_bytes is not None:
            limits.append(f"bytes={self.quota_bytes}")
        if self._bucket is not None:
            limits.append(f"rate={self._bucket.rate:g}/s")
        suffix = (" " + ",".join(limits)) if limits else ""
        return (
            f"tenant://{self.name}  blocks [{self.offset}, "
            f"{self.offset + self.num_blocks}) of {self.child.describe()}{suffix}"
        )

    def _extra_stats(self) -> dict[str, float]:
        """Flat ``tenant:<name>:<counter>`` keys (``extra`` maps str->float,
        so the tenant name must ride in the key, not a value)."""
        prefix = f"tenant:{self.name}:"
        with self._lock:
            used = float(len(self._written_set()))
        out = {
            prefix + "offset": float(self.offset),
            prefix + "blocks": float(self.num_blocks),
            prefix + "used": used,
            prefix + "reads": float(self.stats.reads),
            prefix + "writes": float(self.stats.writes),
            prefix + "bytes_read": float(self.stats.bytes_read),
            prefix + "bytes_written": float(self.stats.bytes_written),
            prefix + "quota_denied": float(self.quota_denied),
            prefix + "rate_denied": float(self.rate_denied),
        }
        if self.quota_blocks is not None:
            out[prefix + "quota_blocks"] = float(self.quota_blocks)
        if self.quota_bytes is not None:
            out[prefix + "quota_bytes"] = float(self.quota_bytes)
        if self._bucket is not None:
            out[prefix + "rate_ops"] = float(self._bucket.rate)
        return out


def carve_regions(store: BlockStore,
                  quotas: Iterable[TenantQuota]) -> dict[str, TenantBlockStore]:
    """One view of ``store`` per declared tenant.  Regions are allocated
    sequentially in declaration order, so the ``--tenant-quota`` flags
    *are* the layout."""
    offset = 0
    views: dict[str, TenantBlockStore] = {}
    for quota in quotas:
        if offset + quota.blocks > store.num_blocks:
            raise InvalidArgument(
                f"tenant regions ({offset + quota.blocks} blocks) exceed "
                f"store capacity ({store.num_blocks} blocks)"
            )
        views[quota.name] = TenantBlockStore(
            store, quota.name, offset=offset, num_blocks=quota.blocks,
            quota_blocks=None, quota_bytes=quota.quota_bytes,
            rate_ops=quota.rate_ops, owns_child=False,
        )
        offset += quota.blocks
    return views
