"""Ablation: the compiled XDR codec against the field-by-field one.

``repro.rpc`` and ``repro.nfs`` move every fixed run of words as one
``struct`` record and decode at a cursor; the word-at-a-time codec they
replaced is kept as ``tests/xdr_reference.py``.  Both marshal the same
NFS WRITE here, in the same process — client encodes the call, server
decodes it, server encodes the attrstat reply, client decodes that; no
transport, no filesystem — so the assertion is a ratio and does not
depend on the machine: the compiled codec must be at least 2x the
reference.  Equality of the bytes on the wire is asserted first.
"""

import sys
from pathlib import Path
from time import perf_counter

import pytest

from repro.fs.inode import FileType, Inode
from repro.nfs import protocol as nfs
from repro.rpc.message import (
    AcceptStat,
    CallMessage,
    ReplyMessage,
    encode_call,
    encode_reply,
)
from repro.rpc.xdr import XDRDecoder, XDREncoder

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
import xdr_reference as ref  # noqa: E402

XID = 0x5EED
FH = nfs.FileHandle(ino=12, generation=3)
OFFSET = 5 * nfs.MAX_DATA
DATA = bytes(range(256)) * (nfs.MAX_DATA // 256)
INODE = Inode(ino=12, ftype=FileType.REGULAR, mode=0o644, uid=1000, gid=100,
              size=6 * nfs.MAX_DATA, generation=3, atime=1064000000.25,
              mtime=1064000001.5, ctime=1064000002.75)
REPORTED_MODE = 0o600
BLOCK = 8192


def compiled_write():
    """One WRITE through the program's codec; returns what each side
    decoded and the two records."""
    enc = XDREncoder()
    nfs.pack_write_args(enc, FH, OFFSET, DATA)
    request = encode_call(XID, nfs.NFS_PROGRAM, nfs.NFS_VERSION,
                          nfs.Proc.WRITE, enc.getvalue())

    dec = XDRDecoder(request)
    call = CallMessage.unpack(dec)
    served = nfs.unpack_write_args(dec)
    enc = XDREncoder()
    nfs.pack_attrstat_ok(enc, nfs.fattr_words(INODE, BLOCK, REPORTED_MODE))
    results = enc.getvalue()
    reply = encode_reply(call.xid, AcceptStat.SUCCESS, results)

    dec = XDRDecoder(reply)
    header = ReplyMessage.unpack(dec)
    nfs.raise_for_status(dec.unpack_enum())
    attr = nfs.unpack_fattr(dec)
    dec.done()
    return request, reply, served, (header.xid, header.stat), attr


def reference_write():
    """The same WRITE through the field-by-field reference."""
    request = ref.encode_call(XID, nfs.NFS_PROGRAM, nfs.NFS_VERSION,
                              nfs.Proc.WRITE, ref.write_args(FH, OFFSET, DATA))

    call = ref.decode_call(request)
    served = ref.decode_write_args(call["args"])
    results = ref.attrstat_ok(INODE, REPORTED_MODE, BLOCK)
    reply = ref.encode_reply(call["xid"], AcceptStat.SUCCESS, results)

    header = ref.decode_reply(reply)
    attr = ref.decode_attrstat(header["results"])
    return request, reply, served, (header["xid"], header["stat"]), attr


def best_of(fn, repeats: int = 15, loops: int = 200) -> float:
    """Seconds per call: the fastest of ``repeats`` timings of ``loops`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (perf_counter() - start) / loops)
    return best


def test_compiled_write_is_twice_the_reference():
    assert compiled_write() == reference_write()
    compiled = best_of(compiled_write)
    reference = best_of(reference_write)
    ratio = reference / compiled
    print(f"\nNFS WRITE marshalling, {len(DATA)} B: compiled "
          f"{compiled * 1e6:.1f} us, field-by-field {reference * 1e6:.1f} us, "
          f"{ratio:.1f}x")
    assert ratio >= 2.0


@pytest.mark.benchmark(group="ablation-xdr")
@pytest.mark.parametrize("codec", [compiled_write, reference_write],
                         ids=["compiled", "reference"])
def test_write_marshalling(benchmark, codec):
    request, reply, *_ = benchmark(codec)
    assert len(request) == 40 + 48 + len(DATA) and len(reply) == 24 + 72
