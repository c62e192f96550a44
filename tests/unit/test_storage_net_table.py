"""The block-store program as one table: completeness, extension by one
row, and hostile bytes on both sides of the v2 envelope.

Byte-compatibility with the hand-written halves the table replaced is
``tests/property/test_prop_blockstore_wire.py``; here the table's own
schema drives the adversary: for every procedure a well-formed message
is built from the reference encoders and then truncated, extended or
given an out-of-range length, and the only acceptable outcomes are
``GARBAGE_ARGS`` from the server and ``StoreUnavailable`` from the
client.
"""

from __future__ import annotations

import blockstore_wire_reference as ref  # tests/blockstore_wire_reference.py
import pytest

from repro.errors import AuthError, StoreUnavailable
from repro.obs.metrics import get_registry
from repro.rpc.message import (
    AcceptStat,
    CallMessage,
    ReplyMessage,
    encode_call,
    encode_reply,
)
from repro.rpc.server import RPCServer, check_table
from repro.rpc.transport import InProcessTransport
from repro.rpc.xdr import XDREncoder
from repro.storage import MemoryBlockStore, ReplicatedBlockStore
from repro.storage import net
from repro.storage.net import (
    BLOCKSTORE_PROGRAM,
    BLOCKSTORE_VERSION,
    PROCEDURES,
    BlockStoreProgram,
    Procedure,
    RemoteBlockStore,
)

BLOCK = 512
FULL = b"\xab" * BLOCK

#: name -> (well-formed arguments, well-formed result)
SAMPLES = {
    "GEOM": ((), (64, BLOCK, "mem")),
    "READ": ((1,), FULL),
    "WRITE": ((1, b"abc"), None),
    "READ_MANY": (([1, 2],), [FULL, FULL]),
    "WRITE_MANY": (([(1, b"abc"), (2, b"de")],), None),
    "FLUSH": ((), None),
    "USED": ((), 7),
    "CONTAINS": ((1,), True),
    "LIST": ((0, 10), [1, 2, 3]),
    "STATS": ((), "{}"),
    "CHALLENGE": ((), b"n" * 16),
    "SESSION_OPEN": (("id", "t", "rw", ["c"], b"n", "sig"), (b"tok", "rw")),
    "REVOKE": (("key k",), "revoked key k..."),
}

by_name = pytest.mark.parametrize("proc", PROCEDURES, ids=lambda p: p.name)


def serve(program: BlockStoreProgram) -> RPCServer:
    server = RPCServer()
    server.register(program)
    return server


def mount(program: BlockStoreProgram, **options) -> RemoteBlockStore:
    return RemoteBlockStore(InProcessTransport(serve(program).handle),
                            **options)


class TestTable:
    def test_samples_cover_the_table(self):
        assert set(SAMPLES) == {p.name for p in PROCEDURES}

    def test_names_and_rights_are_views_of_the_table(self):
        assert net.PROC_NAMES == {p.number: p.name for p in PROCEDURES}
        assert net.PROC_RIGHTS == {p.number: p.access for p in PROCEDURES}
        assert net.PROC_RIGHTS[net.STATS.number] == "admin"
        assert net.PROC_RIGHTS[net.CHALLENGE.number] is None

    def test_every_procedure_has_a_service_histogram(self):
        BlockStoreProgram(MemoryBlockStore(8, BLOCK))
        names = get_registry().instruments()
        for proc in PROCEDURES:
            assert f"rpc:server:{proc.name}:service_seconds" in names

    @pytest.mark.parametrize("broken", [
        PROCEDURES + (Procedure(2, "ECHO", "r", (), ()),),   # number taken
        PROCEDURES + (Procedure(0, "ECHO", "r", (), ()),),   # NULL's number
        PROCEDURES + (Procedure(14, "ECHO", "r", (), ()),),  # no handler
        PROCEDURES[:-1],                                     # orphan handler
    ])
    def test_an_incomplete_table_does_not_import(self, broken):
        with pytest.raises(TypeError, match="disagree"):
            check_table(BlockStoreProgram, broken)

    def test_a_new_procedure_is_one_row_and_one_handler(self, monkeypatch):
        echo = Procedure(14, "ECHO", "rw", (net.opaque(64),),
                         (net.opaque(64),))

        class Echoing(BlockStoreProgram):
            def _proc_echo(self, store, data):
                return data[::-1]

        monkeypatch.setattr(net, "PROCEDURES", PROCEDURES + (echo,))
        check_table(Echoing, net.PROCEDURES)
        store = mount(Echoing(MemoryBlockStore(8, BLOCK)))
        assert store._call(echo, b"abc") == b"cba"
        # The row's bounds hold on both ends without further code.
        with pytest.raises(StoreUnavailable):
            store._call(echo, b"x" * 65)


def mangled(good: bytes) -> dict[str, bytes]:
    """Every strict prefix of a well-formed message, and one too long."""
    bad = {f"cut at {n}": good[:n] for n in range(len(good))}
    bad["trailing word"] = good + b"\0\0\0\0"
    return bad


def garbage_requests(proc: Procedure) -> dict[str, bytes]:
    args = ref.ARGS[proc.name](*SAMPLES[proc.name][0])
    bad = mangled(ref.request(b"", args))
    bad["missing token"] = args
    bad["oversize token"] = ref.request(b"t" * (net.MAX_TOKEN + 1), args)
    return bad


#: Out-of-range lengths and counts, by procedure (arguments only).
OVERSIZE_ARGS = {
    "WRITE": [ref.ARGS["WRITE"](1, b"x" * (BLOCK + 4))],
    "READ_MANY": [
        ref.ARGS["READ_MANY"](list(range(net.MAX_BATCH_BLOCKS + 1)))],
    "WRITE_MANY": [
        ref.ARGS["WRITE_MANY"]([(1, b"x" * (BLOCK + 4))]),
        ref.ARGS["WRITE_MANY"]([(0, b"")] * (net.MAX_BATCH_BLOCKS + 1)),
    ],
    "SESSION_OPEN": [
        ref.ARGS["SESSION_OPEN"]("i" * (net.MAX_IDENTITY + 1), "t", "rw",
                                 [], b"n", "sig"),
        ref.ARGS["SESSION_OPEN"]("id", "t" * 257, "rw", [], b"n", "sig"),
        ref.ARGS["SESSION_OPEN"]("id", "t", "r" * 33, [], b"n", "sig"),
        ref.ARGS["SESSION_OPEN"]("id", "t", "rw",
                                 ["c"] * (net.MAX_CREDENTIALS + 1),
                                 b"n", "sig"),
        ref.ARGS["SESSION_OPEN"]("id", "t", "rw", [],
                                 b"n" * (net.MAX_TOKEN + 1), "sig"),
    ],
}


class TestHostileRequests:
    """Server side: malformed arguments are GARBAGE_ARGS, nothing else
    (not SYSTEM_ERR, not an exception out of ``handle``)."""

    @pytest.fixture()
    def server(self):
        return serve(BlockStoreProgram(MemoryBlockStore(64, BLOCK)))

    def stat(self, server, proc, args):
        raw = server.handle(encode_call(
            99, BLOCKSTORE_PROGRAM, BLOCKSTORE_VERSION, proc.number, args))
        return ReplyMessage.decode(raw).stat

    @by_name
    def test_well_formed_sample_is_served(self, server, proc):
        args = ref.ARGS[proc.name](*SAMPLES[proc.name][0])
        assert self.stat(server, proc, ref.request(b"", args)) \
            is AcceptStat.SUCCESS

    @by_name
    def test_truncated_extended_or_tokenless(self, server, proc):
        for what, request in garbage_requests(proc).items():
            assert self.stat(server, proc, request) \
                is AcceptStat.GARBAGE_ARGS, what

    @pytest.mark.parametrize("name", sorted(OVERSIZE_ARGS))
    def test_oversize_lengths_and_counts(self, server, name):
        proc = next(p for p in PROCEDURES if p.name == name)
        for args in OVERSIZE_ARGS[name]:
            assert self.stat(server, proc, ref.request(b"", args)) \
                is AcceptStat.GARBAGE_ARGS


class LyingTransport:
    """Serves a real program until ``hostile`` is set; after that every
    call is answered SUCCESS with those bytes as its results."""

    def __init__(self):
        self._server = serve(BlockStoreProgram(MemoryBlockStore(64, BLOCK)))
        self.hostile: bytes | None = None

    def call(self, request: bytes) -> bytes:
        if self.hostile is None:
            return self._server.handle(request)
        xid = CallMessage.decode(request).xid
        return encode_reply(xid, AcceptStat.SUCCESS, self.hostile)

    def close(self) -> None:
        pass


def opaque_of(size: int) -> bytes:
    return XDREncoder().pack_opaque(b"z" * size).getvalue()


def count_of(count: int) -> bytes:
    return XDREncoder().pack_uint(count).getvalue()


#: Out-of-range results, by procedure (after an OK status).
OVERSIZE_RESULTS = {
    "READ": [opaque_of(BLOCK + 4), opaque_of(1000)],
    "READ_MANY": [count_of(net.MAX_BATCH_BLOCKS + 1),
                  count_of(1) + opaque_of(BLOCK + 4)],
    "USED": [b"\0\0"],
    "CONTAINS": [count_of(7)],
    "LIST": [count_of(net.LIST_PAGE + 1)],
    "CHALLENGE": [opaque_of(net.MAX_TOKEN + 1)],
    "SESSION_OPEN": [opaque_of(net.MAX_TOKEN + 1)],
}


class TestHostileReplies:
    """Client side: whatever a node answers, the caller sees
    StoreUnavailable — the promise ``RemoteBlockStore`` makes to
    ``replica://`` and the block device."""

    @pytest.fixture()
    def lying(self):
        transport = LyingTransport()
        return transport, RemoteBlockStore(transport)

    def call(self, store, proc):
        return store._call(proc, *SAMPLES[proc.name][0])

    @by_name
    def test_well_formed_sample_decodes(self, lying, proc):
        transport, store = lying
        result = SAMPLES[proc.name][1]
        transport.hostile = ref.reply(ref.RESULTS[proc.name](result))
        assert self.call(store, proc) == result

    @by_name
    def test_truncated_or_extended(self, lying, proc):
        transport, store = lying
        good = ref.reply(ref.RESULTS[proc.name](SAMPLES[proc.name][1]))
        for reply in mangled(good).values():
            transport.hostile = reply
            with pytest.raises(StoreUnavailable):
                self.call(store, proc)

    @pytest.mark.parametrize("name", sorted(OVERSIZE_RESULTS))
    def test_oversize_lengths_and_counts(self, lying, name):
        transport, store = lying
        proc = next(p for p in PROCEDURES if p.name == name)
        for payload in OVERSIZE_RESULTS[name]:
            transport.hostile = ref.reply(payload)
            with pytest.raises(StoreUnavailable):
                self.call(store, proc)

    def test_a_malformed_reply_is_not_an_xdr_error(self, lying):
        """Shown on the parent of the table: results were decoded after
        ``_call`` had returned, so these three raised ``XDRError`` into
        the composites and the block device."""
        transport, store = lying
        transport.hostile = ref.reply(opaque_of(1000))
        with pytest.raises(StoreUnavailable, match="exceeds maximum"):
            store.read(1)
        transport.hostile = ref.reply(b"\0\0")
        with pytest.raises(StoreUnavailable, match="underrun"):
            store.used_blocks()
        transport.hostile = ref.reply(count_of(7))
        with pytest.raises(StoreUnavailable, match="bool"):
            store._contains(1)

    @by_name
    def test_denials_stay_typed_and_a_garbled_one_is_unavailable(
            self, lying, proc):
        transport, store = lying
        transport.hostile = ref.denial(net.ERR_AUTH, "no")
        with pytest.raises(AuthError, match="no"):
            self.call(store, proc)
        transport.hostile = ref.denial(net.ERR_AUTH, "no")[:-2]
        with pytest.raises(StoreUnavailable):
            self.call(store, proc)
        transport.hostile = ref.denial(77, "unknown status")
        with pytest.raises(StoreUnavailable, match="unknown status"):
            self.call(store, proc)

    def test_the_windowed_path_decodes_the_same_way(self, monkeypatch):
        monkeypatch.setattr(net, "MAX_BATCH_BLOCKS", 2)
        transport = LyingTransport()
        store = RemoteBlockStore(transport, workers=2)
        store.write_many([(n, FULL) for n in range(6)])      # 3 windows
        assert store.read_many(list(range(6))) == [FULL] * 6
        transport.hostile = ref.reply(count_of(2) + opaque_of(3) * 2)
        with pytest.raises(StoreUnavailable, match="block of 3 bytes"):
            store.read_many(list(range(6)))


class ShortBlocks(BlockStoreProgram):
    """A node whose reads come back three bytes long."""

    def _proc_read(self, store, block_no):
        return b"abc"

    def _proc_read_many(self, store, block_nos):
        return [b"abc"] * len(block_nos)


class TestShortBlock:
    """Shown on the parent of the table: only ``max_size`` was checked,
    so ``read()`` handed out a 3-byte "block"."""

    def test_read_and_read_many_refuse_it(self):
        store = mount(ShortBlocks(MemoryBlockStore(64, BLOCK)))
        with pytest.raises(StoreUnavailable, match="block of 3 bytes"):
            store.read(1)
        with pytest.raises(StoreUnavailable, match="block of 3 bytes"):
            store.read_many([1, 2])
        store.batch = False
        with pytest.raises(StoreUnavailable, match="block of 3 bytes"):
            store.read_many([1, 2])

    def test_a_short_request_block_is_still_padded_by_the_server(self):
        store = mount(BlockStoreProgram(MemoryBlockStore(64, BLOCK)))
        store.write(1, b"abc")
        store.write_many([(2, b"de")])
        assert store.read(1) == b"abc".ljust(BLOCK, b"\0")
        assert store.read_many([2]) == [b"de".ljust(BLOCK, b"\0")]

    def test_replica_reads_elsewhere(self):
        honest = [mount(BlockStoreProgram(MemoryBlockStore(64, BLOCK)))
                  for _ in range(2)]
        liar = mount(ShortBlocks(MemoryBlockStore(64, BLOCK)))
        rep = ReplicatedBlockStore([liar, *honest], write_quorum=2,
                                   read_quorum=2, fanout=1)
        rep.write(4, FULL)
        assert rep.read(4) == FULL
        assert rep.read_many([4]) == [FULL]
        assert rep.replica_stats.degraded_reads >= 2
