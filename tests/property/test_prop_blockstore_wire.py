"""The ``PROCEDURES`` table against the hand-written wire reference.

``tests/blockstore_wire_reference.py`` holds the per-procedure pack
sequences the block-store client and server had before both were
derived from one table.  For every procedure and arbitrary in-range
values the table must put the same bytes on the wire and read the same
values back — first codec against codec, then through the real client
stub and server dispatch with the v2 envelope around them.
"""

import blockstore_wire_reference as ref  # tests/blockstore_wire_reference.py
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.message import CallMessage, ReplyMessage
from repro.rpc.server import RPCServer
from repro.rpc.xdr import XDRDecoder, XDREncoder
from repro.storage import MemoryBlockStore
from repro.storage import net
from repro.storage.net import PROCEDURES, BlockStoreProgram, RemoteBlockStore

BLOCK = 512

uints = st.integers(0, (1 << 32) - 1)
short_blocks = st.binary(max_size=BLOCK)          # requests: the server pads
full_blocks = st.binary(min_size=BLOCK, max_size=BLOCK)
tokens = st.binary(max_size=net.MAX_TOKEN)
text = st.text(max_size=40)

#: name -> (strategy for the argument tuple, strategy for the result)
VALUES = {
    "GEOM": (st.tuples(), st.tuples(uints, uints, text)),
    "READ": (st.tuples(uints), full_blocks),
    "WRITE": (st.tuples(uints, short_blocks), st.none()),
    "READ_MANY": (st.tuples(st.lists(uints, max_size=20)),
                  st.lists(full_blocks, max_size=20)),
    "WRITE_MANY": (st.tuples(st.lists(st.tuples(uints, short_blocks),
                                      max_size=20)), st.none()),
    "FLUSH": (st.tuples(), st.none()),
    "USED": (st.tuples(), st.integers(0, (1 << 64) - 1)),
    "CONTAINS": (st.tuples(uints), st.booleans()),
    "LIST": (st.tuples(uints, uints), st.lists(uints, max_size=40)),
    "STATS": (st.tuples(), text),
    "CHALLENGE": (st.tuples(), tokens),
    "SESSION_OPEN": (st.tuples(text, text, st.text(max_size=8),
                               st.lists(text, max_size=4), tokens, text),
                     st.tuples(tokens, text)),
    "REVOKE": (st.tuples(text), text),
}


def test_reference_covers_the_table():
    assert {p.name: p.number for p in PROCEDURES} == ref.NUMBERS
    assert set(VALUES) == set(ref.NUMBERS)


@pytest.mark.parametrize("proc", PROCEDURES, ids=lambda p: p.name)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_table_codec_matches_reference(proc, data):
    args_strategy, result_strategy = VALUES[proc.name]
    args = data.draw(args_strategy)
    result = data.draw(result_strategy)

    enc = XDREncoder()
    proc.pack_args(enc, args)
    wire = enc.getvalue()
    assert wire == ref.ARGS[proc.name](*args)
    dec = XDRDecoder(wire)
    assert proc.unpack_args(dec, BLOCK) == args
    dec.done()

    enc = XDREncoder()
    proc.pack_result(enc, result)
    wire = enc.getvalue()
    assert wire == ref.RESULTS[proc.name](result)
    dec = XDRDecoder(wire)
    assert proc.unpack_result(dec, BLOCK) == result
    dec.done()


class _Tap:
    """In-process transport that keeps what crossed it."""

    def __init__(self, handler):
        self._handler = handler
        self.calls: list[tuple[int, bytes, bytes]] = []

    def call(self, request: bytes) -> bytes:
        response = self._handler(request)
        call = CallMessage.decode(request)
        self.calls.append(
            (call.proc, call.args, ReplyMessage.decode(response).results))
        return response

    def close(self) -> None:
        pass


@settings(max_examples=60, deadline=None)
@given(
    writes=st.lists(st.tuples(st.integers(0, 63), short_blocks),
                    min_size=1, max_size=12),
    reads=st.lists(st.integers(0, 63), min_size=1, max_size=12),
)
def test_stub_and_dispatch_match_reference_envelope(writes, reads):
    """Every message the real client and server exchange is, byte for
    byte, what the hand-written halves would have exchanged for the
    same values."""
    server = RPCServer()
    server.register(BlockStoreProgram(MemoryBlockStore(64, BLOCK)))
    tap = _Tap(server.handle)
    store = RemoteBlockStore(tap)
    expected: list[tuple[str, tuple, object]] = [
        ("GEOM", (), (64, BLOCK, store.remote_description))]

    def expect(name, args, result):
        expected.append((name, args, result))

    block_no, data = writes[0]
    expect("WRITE", (block_no, data), store._call(net.WRITE, block_no, data))
    expect("WRITE_MANY", (writes,), store._call(net.WRITE_MANY, writes))
    expect("READ", (reads[0],), store._call(net.READ, reads[0]))
    expect("READ_MANY", (reads,), store._call(net.READ_MANY, reads))
    expect("CONTAINS", (reads[0],), store._call(net.CONTAINS, reads[0]))
    expect("USED", (), store._call(net.USED))
    expect("LIST", (0, 5), store._call(net.LIST, 0, 5))
    expect("FLUSH", (), store._call(net.FLUSH))
    expect("STATS", (), store._call(net.STATS))
    expect("CHALLENGE", (), store._call(net.CHALLENGE))
    session = ("id", "tenant", "rw", ["c1", "c2"], b"nonce", "sig")
    expect("SESSION_OPEN", session, store._call(net.SESSION_OPEN, *session))

    assert len(tap.calls) == len(expected)
    for (number, sent, received), (name, args, result) in zip(tap.calls,
                                                              expected):
        assert number == ref.NUMBERS[name]
        assert sent == ref.request(b"", ref.ARGS[name](*args)), name
        assert received == ref.reply(ref.RESULTS[name](result)), name
