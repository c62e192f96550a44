"""A block store whose operations wait until the test lets them go.

A straggler, or a node stuck mid-request, whose timing the test owns:
assertions run *while* the operation is held, instead of after a sleep
the machine may or may not outrun.  A hold the test never releases
ends after ``HOLD_LIMIT`` seconds as an outage, so a broken test fails
instead of hanging.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from repro.errors import StoreUnavailable
from repro.storage.base import BlockStore, T, WrapperBlockStore

HOLD_LIMIT = 5.0


class HeldBlockStore(WrapperBlockStore):
    """Pass-through wrapper that holds the operations named in ``ops``
    (``WrapperBlockStore.around`` names) between :meth:`hold` and
    :meth:`release`."""

    scheme = "held"

    def __init__(self, child: BlockStore,
                 ops: Iterable[str] = ("write", "write_many")):
        super().__init__(child)
        self.ops = frozenset(ops)
        self._open = threading.Event()
        self._open.set()

    def hold(self) -> None:
        self._open.clear()

    def release(self) -> None:
        self._open.set()

    def around(self, op: str, fn: Callable[[], T]) -> T:
        if op in self.ops and not self._open.wait(HOLD_LIMIT):
            raise StoreUnavailable(f"held {op} was never released")
        return fn()
