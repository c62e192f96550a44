"""Resource ownership on builder failure paths.

The registry composes stores recursively, so a wrapper constructor
that raises after its child was built must not strand the child (an
fd, an sqlite handle, a TCP connection with no close() left pointing
at it).  These are the regression tests for the windows the
``resource-leak`` lint rule flagged: each one drives the *real* builder
through a failing consumer and asserts every acquired child was closed
on the way out.
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidArgument
from repro.storage import MemoryBlockStore, open_device, parse_spec
from repro.storage.registry import build

BLOCKS = 64
BS = 512


@pytest.fixture
def closed_stores(monkeypatch):
    """Record every MemoryBlockStore that gets closed."""
    closed: list[MemoryBlockStore] = []
    real_close = MemoryBlockStore.close

    def counting_close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(MemoryBlockStore, "close", counting_close)
    return closed


class _Boom(Exception):
    pass


def _raising(*args, **kwargs):
    raise _Boom("consumer constructor failed")


class TestBuilderFailureClosesChildren:
    def test_shard_ctor_failure_closes_built_children(self, closed_stores):
        # Mismatched child block sizes make ShardedBlockStore itself
        # raise — after both children were already built.
        spec = parse_spec("shard://mem://?bs=512;mem://?bs=4096")
        with pytest.raises(InvalidArgument):
            build(spec, num_blocks=BLOCKS, block_size=BS)
        assert len(closed_stores) == 2

    def test_failing_wrapper_ctor_failure_closes_child(
            self, closed_stores, monkeypatch):
        monkeypatch.setattr(
            "repro.storage.replica.FailingBlockStore", _raising
        )
        with pytest.raises(_Boom):
            build(parse_spec("failing://mem://"),
                  num_blocks=BLOCKS, block_size=BS)
        assert len(closed_stores) == 1

    def test_slow_wrapper_ctor_failure_closes_child(
            self, closed_stores, monkeypatch):
        monkeypatch.setattr(
            "repro.storage.replica.DelayedBlockStore", _raising
        )
        with pytest.raises(_Boom):
            build(parse_spec("slow://mem://"),
                  num_blocks=BLOCKS, block_size=BS)
        assert len(closed_stores) == 1

    def test_open_device_adapter_failure_closes_store(
            self, closed_stores, monkeypatch):
        monkeypatch.setattr(
            "repro.storage.registry.StoreBlockDevice", _raising
        )
        with pytest.raises(_Boom):
            open_device("mem://", num_blocks=BLOCKS, block_size=BS)
        assert len(closed_stores) == 1
