"""The audit log of access decisions — one log, one schema, both planes.

Paper, section 2: "Access to the files may be monitored by the system and
the entity issuing the requests may be identified through its public
key" — and section 4.2: "The system may not know that Alice is trying to
get at a file, but it can log that key A (Alice's key) was used and that
key B (Bob's key) authorized the operation."

Each :class:`AuditRecord` captures exactly that, on both planes: the
requesting key, the ``operation`` and its ``target`` (a file handle on
the DisCFS server, a tenant on a store node), the value policy
``granted``, whether it was ``allowed``, the *authorizing keys* (the
authorizers of every credential that contributed authority, from the
compliance checker's trace), the ``reason`` for a denial and the time
``ts``.  Cache hits reuse the chain recorded when the entry was filled,
deduplicated there once (a :class:`Chain`), so auditing does not force
the slow path.

The log keeps the last ``capacity`` records in memory (what the DisCFS
``AUDITLOG`` procedure reads) and, given a path or stream
(``store-serve --audit-log``), appends each as one JSON object keyed by
those field names.  Without a stream, :meth:`AuditLog.record` does no
JSON work.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Iterable, NamedTuple, Optional, TextIO


class Chain(tuple):
    """Authorizing keys, each once (``Chain(dict.fromkeys(keys))``), which
    :meth:`AuditLog.record` takes as they are."""

    __slots__ = ()


class AuditRecord(NamedTuple):
    """One access decision."""

    principal: str
    operation: str
    target: str
    granted: str  # compliance value, e.g. "RX", "rw" or "false"
    allowed: bool
    #: Authorizer principals of the credentials that carried the decision
    #: (empty when denied or when policy authorized the requester directly).
    authorized_by: tuple[str, ...]
    reason: str
    ts: float

    def format(self, width: int = 28) -> str:
        """One-line log rendering with abbreviated keys."""
        def short(principal: str) -> str:
            return principal if len(principal) <= width else principal[:width] + "..."

        chain = " <- ".join(short(p) for p in self.authorized_by) or "(policy)"
        verdict = "ALLOW" if self.allowed else "DENY "
        why = f" ({self.reason})" if self.reason else ""
        return (f"{self.ts:.3f} {verdict} {self.operation:<8} "
                f"target={self.target:<12} key={short(self.principal)} "
                f"via {chain}{why}")


class AuditLog:
    """A bounded in-memory audit log plus an optional JSON-lines stream.

    ``capacity=0`` keeps nothing in memory (monitoring is a *may* in the
    paper); without a stream :meth:`record` then returns None at
    near-zero cost.  Appending is thread-safe.
    """

    def __init__(self, capacity: int = 10_000, path: Optional[str] = None,
                 stream: Optional[TextIO] = None):
        self.capacity = capacity
        self._records: deque[AuditRecord] = deque(maxlen=capacity)
        self._owns = stream is None and path is not None
        if stream is None and path is not None:
            stream = open(path, "a", encoding="utf-8")
        self._stream = stream
        self._lock = threading.Lock()

    def record(
        self,
        principal: str,
        operation: str,
        target: str,
        granted: str,
        allowed: bool,
        authorized_by: Iterable[str] = (),
        reason: str = "",
    ) -> AuditRecord | None:
        if self.capacity == 0 and self._stream is None:
            return None
        if type(authorized_by) is not Chain:
            authorized_by = Chain(dict.fromkeys(authorized_by))
        entry = AuditRecord(principal, operation, target, granted, allowed,
                            authorized_by, reason, time.time())
        self._records.append(entry)
        if self._stream is not None:
            line = json.dumps(entry._asdict()) + "\n"
            with self._lock:
                if self._stream is not None:  # not closed meanwhile
                    self._stream.write(line)
                    self._stream.flush()
        return entry

    # -- queries ------------------------------------------------------------

    def records(self) -> list[AuditRecord]:
        return list(self._records)

    def by_principal(self, principal: str) -> list[AuditRecord]:
        return [r for r in self._records if r.principal == principal]

    def denials(self) -> list[AuditRecord]:
        return [r for r in self._records if not r.allowed]

    def authorized_through(self, principal: str) -> list[AuditRecord]:
        """Every decision that flowed through ``principal``'s signature —
        the paper's "key B authorized the operation" view."""
        return [r for r in self._records if principal in r.authorized_by]

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        self._records.clear()

    def close(self) -> None:
        with self._lock:
            if self._owns and self._stream is not None:
                self._stream.close()
                self._stream = None
