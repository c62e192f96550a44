"""Property tests: the buffered record reader against the reference reader.

A fake socket hands a byte stream over in chunk sizes hypothesis chooses,
so records arrive whole, split anywhere, or several to one receive.  The
reader (``repro.rpc.transport._RecordReader``) must return exactly the
records the two-loop reference (``tests/rpc_record_reference.py``) returns,
fail where it fails, and hand out records that later receives cannot
change.
"""

from __future__ import annotations

import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpc_record_reference as ref  # tests/rpc_record_reference.py
from repro.errors import TransportError
from repro.rpc import transport
from repro.rpc.transport import _RecordReader

_LAST = 0x80000000


class ChunkedSocket:
    """Delivers ``stream`` in receives of the given sizes (cycled), then
    reports the peer closed (a receive of 0 bytes)."""

    def __init__(self, stream: bytes, sizes: list[int]):
        self._stream = stream
        self._pos = 0
        self._sizes = sizes
        self._turn = 0

    def _next(self, limit: int) -> bytes:
        size = self._sizes[self._turn % len(self._sizes)]
        self._turn += 1
        out = self._stream[self._pos:self._pos + min(size, limit)]
        self._pos += len(out)
        return out

    def recv(self, n: int) -> bytes:
        return self._next(n)

    def recv_into(self, view) -> int:
        out = self._next(len(view))
        view[:len(out)] = out
        return len(out)

    @property
    def unread(self) -> int:
        return len(self._stream) - self._pos


def frame(fragments: list[bytes]) -> bytes:
    """One record: each fragment behind its marker, the last one flagged."""
    out = b""
    for i, fragment in enumerate(fragments):
        last = _LAST if i == len(fragments) - 1 else 0
        out += struct.pack(">I", last | len(fragment)) + fragment
    return out


fragments_st = st.lists(
    st.one_of(st.binary(max_size=64), st.binary(min_size=1000, max_size=5000)),
    min_size=1, max_size=4)
records_st = st.lists(fragments_st, min_size=1, max_size=6)
sizes_st = st.lists(st.integers(min_value=1, max_value=1 << 17),
                    min_size=1, max_size=8)


def read_all(read, count: int):
    """``count`` records (the ones returned so far, with the error that
    ended the run, or None)."""
    got = []
    try:
        for _ in range(count):
            got.append(read())
    except TransportError as exc:
        return got, exc
    return got, None


@settings(max_examples=300, deadline=None)
@given(records_st, sizes_st)
def test_reader_returns_the_reference_records(records, sizes):
    stream = b"".join(frame(r) for r in records)
    want = [b"".join(r) for r in records]
    reader = _RecordReader(ChunkedSocket(stream, sizes))
    got, err = read_all(reader.read, len(records))
    ref_sock = ChunkedSocket(stream, sizes)
    ref_got, ref_err = read_all(lambda: ref.reference_recv_record(ref_sock),
                                len(records))
    assert err is None and ref_err is None
    assert got == ref_got == want
    assert all(isinstance(record, bytearray) for record in got)
    # The stream is drained: the next read is the peer's close, for both.
    with pytest.raises(TransportError, match="closed"):
        reader.read()


@settings(max_examples=200, deadline=None)
@given(records_st, sizes_st, st.data())
def test_close_mid_record_is_a_transport_error(records, sizes, data):
    """Cut the stream anywhere inside its last record — mid-marker or
    mid-body: the records before the cut come back, then TransportError,
    exactly as with the reference."""
    stream = b"".join(frame(r) for r in records)
    last_start = len(stream) - len(frame(records[-1]))
    cut = data.draw(st.integers(min_value=last_start, max_value=len(stream) - 1))
    truncated = stream[:cut]
    got, err = read_all(_RecordReader(ChunkedSocket(truncated, sizes)).read,
                        len(records))
    ref_sock = ChunkedSocket(truncated, sizes)
    ref_got, ref_err = read_all(lambda: ref.reference_recv_record(ref_sock),
                                len(records))
    assert got == ref_got == [b"".join(r) for r in records[:-1]]
    assert isinstance(err, TransportError) and isinstance(ref_err, TransportError)
    assert "closed mid-record" in str(err)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3000), min_size=1,
                max_size=4),
       sizes_st)
def test_oversize_record_is_refused(lengths, sizes):
    """Over the cap — in one fragment or summed over several — the reader
    refuses the record where the reference does."""
    cap = 4096
    fragments = [bytes([i]) * n for i, n in enumerate(lengths)]
    stream = frame(fragments)
    with mock.patch.object(transport, "MAX_RECORD", cap):
        got, err = read_all(_RecordReader(ChunkedSocket(stream, sizes)).read, 1)
        ref_got, ref_err = read_all(
            lambda: ref.reference_recv_record(ChunkedSocket(stream, sizes)), 1)
    if sum(lengths) > cap:
        assert "implausible" in str(err) and "implausible" in str(ref_err)
        assert got == ref_got == []
    else:
        assert err is None and got == ref_got == [b"".join(fragments)]


@settings(max_examples=200, deadline=None)
@given(records_st, sizes_st)
def test_returned_records_outlive_later_receives(records, sizes):
    """Each record is a buffer of its own: receiving the records behind
    it leaves it as it was, and scribbling on it changes no other."""
    want = [b"".join(r) for r in records]
    reader = _RecordReader(ChunkedSocket(b"".join(frame(r) for r in records),
                                         sizes))
    first = reader.read()
    rest = [reader.read() for _ in records[1:]]
    assert first == want[0]
    first[:] = b"\xff" * len(first)
    assert rest == want[1:]


@settings(max_examples=200, deadline=None)
@given(records_st, sizes_st)
def test_buffered_counts_what_was_pipelined_behind(records, sizes):
    """After each record, every byte behind it is either buffered or not
    yet received; a stream sent at once and no larger than one receive
    is all buffered."""
    stream = b"".join(frame(r) for r in records)
    fits = len(stream) <= _RecordReader.CHUNK
    sock = ChunkedSocket(stream, [len(stream)] if fits else sizes)
    reader = _RecordReader(sock)
    behind = len(stream)
    for record in records:
        reader.read()
        behind -= len(frame(record))
        assert reader.buffered + sock.unread == behind
        if fits:
            assert reader.buffered == behind
