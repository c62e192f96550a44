"""Property tests: XDR round-trips for arbitrary values."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.xdr import XDRDecoder, XDREncoder


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_uint_roundtrip(value):
    enc = XDREncoder()
    enc.pack_uint(value)
    dec = XDRDecoder(enc.getvalue())
    assert dec.unpack_uint() == value
    dec.done()


@settings(max_examples=200)
@given(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1))
def test_int_roundtrip(value):
    enc = XDREncoder()
    enc.pack_int(value)
    assert XDRDecoder(enc.getvalue()).unpack_int() == value


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_uhyper_roundtrip(value):
    enc = XDREncoder()
    enc.pack_uhyper(value)
    assert XDRDecoder(enc.getvalue()).unpack_uhyper() == value


@settings(max_examples=200)
@given(st.binary(max_size=2048))
def test_opaque_roundtrip(data):
    enc = XDREncoder()
    enc.pack_opaque(data)
    encoded = enc.getvalue()
    assert len(encoded) % 4 == 0  # always aligned
    dec = XDRDecoder(encoded)
    assert dec.unpack_opaque() == data
    dec.done()


@settings(max_examples=200)
@given(st.text(max_size=512))
def test_string_roundtrip(text):
    enc = XDREncoder()
    enc.pack_string(text)
    assert XDRDecoder(enc.getvalue()).unpack_string() == text


@settings(max_examples=100)
@given(st.lists(st.binary(max_size=64), max_size=32))
def test_array_roundtrip(items):
    enc = XDREncoder()
    enc.pack_array(items, lambda e, b: e.pack_opaque(b))
    assert XDRDecoder(enc.getvalue()).unpack_array(
        lambda d: d.unpack_opaque()
    ) == items


@settings(max_examples=100)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("uint"), st.integers(0, (1 << 32) - 1)),
            st.tuples(st.just("string"), st.text(max_size=64)),
            st.tuples(st.just("opaque"), st.binary(max_size=64)),
            st.tuples(st.just("bool"), st.booleans()),
        ),
        max_size=20,
    )
)
def test_heterogeneous_sequence_roundtrip(fields):
    """Any interleaving of types round-trips (alignment invariant)."""
    enc = XDREncoder()
    for kind, value in fields:
        getattr(enc, f"pack_{kind}")(value)
    dec = XDRDecoder(enc.getvalue())
    for kind, value in fields:
        assert getattr(dec, f"unpack_{kind}")() == value
    dec.done()


# ---------------------------------------------------------------------------
# The compiled codec against the field-by-field reference
# (tests/xdr_reference.py): the same bytes out, the same values back.
# ---------------------------------------------------------------------------

import pytest  # noqa: E402
import xdr_reference as ref  # noqa: E402  (tests/xdr_reference.py)

from repro.errors import XDRError  # noqa: E402
from repro.fs.inode import FileType, Inode  # noqa: E402
from repro.nfs import protocol as nfs  # noqa: E402
from repro.rpc.message import (  # noqa: E402
    AcceptStat,
    AuthFlavor,
    CallMessage,
    ReplyMessage,
    encode_call,
    encode_reply,
)

U32 = st.integers(0, (1 << 32) - 1)
#: Mostly in range, sometimes one past either end.
LOOSE_U32 = st.one_of(U32, st.sampled_from([-1, 1 << 32, 1 << 40]))
FH = st.builds(nfs.FileHandle, ino=st.integers(0, (1 << 64) - 1),
               generation=st.integers(0, (1 << 64) - 1))
PAYLOAD = st.one_of(st.binary(max_size=67),
                    st.binary(min_size=nfs.MAX_DATA - 3, max_size=nfs.MAX_DATA))
SCALARS = st.one_of(
    st.tuples(st.just("uint"), U32),
    st.tuples(st.just("int"), st.integers(-(1 << 31), (1 << 31) - 1)),
    st.tuples(st.just("uhyper"), st.integers(0, (1 << 64) - 1)),
    st.tuples(st.just("hyper"), st.integers(-(1 << 63), (1 << 63) - 1)),
    st.tuples(st.just("enum"), st.integers(-(1 << 31), (1 << 31) - 1)),
    st.tuples(st.just("bool"), st.booleans()),
    st.tuples(st.just("string"), st.text(max_size=40)),
    st.tuples(st.just("opaque"), st.binary(max_size=40)),
)


def both(fn_new, fn_ref):
    """Results of the two codecs, or XDRError for the one that raised it."""
    out = []
    for fn in (fn_new, fn_ref):
        try:
            out.append(fn())
        except XDRError:
            out.append(XDRError)
    return out


@settings(max_examples=200)
@given(st.lists(SCALARS, max_size=24))
def test_primitives_match_reference(fields):
    enc, renc = XDREncoder(), ref.ReferenceEncoder()
    for kind, value in fields:
        getattr(enc, f"pack_{kind}")(value)
        getattr(renc, f"pack_{kind}")(value)
    wire = enc.getvalue()
    assert wire == renc.getvalue()
    assert len(enc) == len(wire)
    # A record that arrived over TCP is a bytearray; it decodes the same.
    for record in (wire, bytearray(wire)):
        dec, rdec = XDRDecoder(record), ref.ReferenceDecoder(wire)
        for kind, value in fields:
            got = getattr(dec, f"unpack_{kind}")()
            assert got == getattr(rdec, f"unpack_{kind}")() == value
            assert type(got) is not bytearray
        dec.done()


@settings(max_examples=100)
@given(kind=st.sampled_from(["uint", "int", "uhyper", "hyper"]),
       value=st.integers(-(1 << 65), 1 << 65))
def test_out_of_range_integers_raise_like_reference(kind, value):
    new, old = both(
        lambda: getattr(XDREncoder(), f"pack_{kind}")(value).getvalue(),
        lambda: getattr(ref.ReferenceEncoder(), f"pack_{kind}")(value).getvalue())
    assert new == old


@settings(max_examples=200)
@given(xid=U32, prog=U32, vers=U32, proc=U32, args=st.binary(max_size=64),
       flavor=st.sampled_from(list(AuthFlavor)),
       # Empty (an untraced call), a trace context's 25 bytes, the cap.
       body=st.one_of(st.just(b""), st.binary(min_size=25, max_size=25),
                      st.binary(max_size=400)))
def test_call_matches_reference(xid, prog, vers, proc, args, flavor, body):
    wire = encode_call(xid, prog, vers, proc, args, flavor, body)
    assert wire == ref.encode_call(xid, prog, vers, proc, args, flavor, body)
    call = CallMessage.decode(wire)
    assert call == CallMessage(prog, vers, proc, args, xid, flavor, body)
    assert call.encode() == wire
    assert ref.decode_call(wire) == dict(
        xid=xid, prog=prog, vers=vers, proc=proc, args=args,
        auth_flavor=flavor, auth_body=body)
    # The server's view: header only, decoder left on the arguments.
    dec = XDRDecoder(wire)
    assert CallMessage.unpack(dec).xid == xid
    assert dec.remaining == len(args)


@settings(max_examples=100)
@given(xid=U32, stat=st.sampled_from(list(AcceptStat)),
       results=st.binary(max_size=64))
def test_reply_matches_reference(xid, stat, results):
    wire = encode_reply(xid, stat, results)
    assert wire == ref.encode_reply(xid, stat, results)
    reply = ReplyMessage.decode(wire)
    assert reply == ReplyMessage(xid, stat, results)
    assert reply.stat is stat
    assert ref.decode_reply(wire) == dict(xid=xid, stat=stat, results=results)


@settings(max_examples=50)
@given(field=st.integers(0, 3), value=st.sampled_from([-1, 1 << 32]))
def test_header_fields_out_of_range_are_xdr_errors(field, value):
    words = [1, 2, 3]
    words.insert(field, value)  # xid, prog, vers, proc
    with pytest.raises(XDRError):
        encode_call(*words)
    with pytest.raises(XDRError):
        encode_reply(value, AcceptStat.SUCCESS)


INODES = st.builds(
    Inode,
    ino=LOOSE_U32,
    ftype=st.sampled_from(list(FileType)),
    mode=st.integers(0, 0o177777),
    uid=LOOSE_U32, gid=LOOSE_U32, nlink=LOOSE_U32,
    # Past 4 GiB the size is clamped; far past it the block count overflows.
    size=st.one_of(st.integers(0, 1 << 20), st.integers(0, 1 << 46)),
    generation=st.integers(1, 1 << 40),
    atime=st.floats(0, 1 << 34), mtime=st.floats(0, 1 << 34),
    ctime=st.floats(0, 1 << 34),
)


@settings(max_examples=300)
@given(inode=INODES, block_size=st.sampled_from([512, 4096, 8192]))
def test_fattr_matches_reference(inode, block_size):
    new, old = both(
        lambda: XDREncoder().pack_struct(
            nfs.FATTR, *nfs.fattr_words(inode, block_size)).getvalue(),
        lambda: _ref_fattr(inode, block_size))
    assert new == old
    if new is XDRError:
        return
    enc = XDREncoder()
    nfs.pack_fattr(enc, inode, block_size)
    assert enc.getvalue() == new
    assert nfs.unpack_fattr(XDRDecoder(new)) == \
        ref.unpack_fattr(ref.ReferenceDecoder(new))


def _packed(pack, *values):
    enc = XDREncoder()
    pack(enc, *values)
    return enc.getvalue()


def _ref_fattr(inode, block_size):
    enc = ref.ReferenceEncoder()
    ref.pack_fattr(enc, inode, block_size)
    return enc.getvalue()


@settings(max_examples=200)
@given(inode=INODES, reported=st.integers(0, 0o7777), data=PAYLOAD)
def test_reported_mode_leaves_the_inode_alone(inode, reported, data):
    """attrstat and readres with the controller's mode: the parent wrote
    it into the inode around the pack, the compiled server passes it."""
    before = inode.mode
    words = nfs.fattr_words(inode, 8192, reported)
    assert inode.mode == before
    new, old = both(
        lambda: _packed(nfs.pack_attrstat_ok, words),
        lambda: ref.attrstat_ok(inode, reported, 8192))
    assert new == old
    if new is XDRError:
        return
    assert ref.decode_attrstat(new).permission_bits == reported
    dec = XDRDecoder(new)
    assert dec.unpack_enum() == nfs.NFSStat.NFS_OK
    assert nfs.unpack_fattr(dec) == ref.decode_attrstat(new)
    dec.done()

    enc = XDREncoder()
    nfs.pack_read_ok(enc, words, data)
    wire = enc.getvalue()
    assert wire == ref.read_ok(inode, reported, 8192, data)
    dec = XDRDecoder(wire)
    assert dec.unpack_enum() == nfs.NFSStat.NFS_OK
    assert nfs.unpack_read_ok(dec) == ref.decode_read_ok(wire) == data
    dec.done()


@settings(max_examples=200)
@given(inode=INODES, fh=FH)
def test_diropres_matches_reference(inode, fh):
    inode.ino, inode.generation = fh.ino, fh.generation
    try:
        new = _packed(nfs.pack_diropok, inode, nfs.fattr_words(inode, 8192))
    except XDRError:
        return  # an ino past 32 bits has a handle but no fattr.fileid
    renc = ref.ReferenceEncoder()
    renc.pack_enum(nfs.NFSStat.NFS_OK)
    ref.pack_fhandle(renc, fh)
    ref.pack_fattr(renc, inode, 8192)
    assert new == renc.getvalue()
    dec, rdec = XDRDecoder(new), ref.ReferenceDecoder(new)
    assert dec.unpack_enum() == rdec.unpack_enum()
    assert nfs.unpack_diropok(dec) == \
        (ref.unpack_fhandle(rdec), ref.unpack_fattr(rdec))
    dec.done()


OPTIONAL_U32 = st.one_of(st.none(), st.integers(0, (1 << 32) - 2))
OPTIONAL_TIME = st.one_of(st.none(), st.floats(0, (1 << 32) - 2))


@settings(max_examples=300)
@given(sattr=st.builds(nfs.SAttr, mode=OPTIONAL_U32, uid=OPTIONAL_U32,
                       gid=OPTIONAL_U32, size=OPTIONAL_U32,
                       atime=OPTIONAL_TIME, mtime=OPTIONAL_TIME))
def test_sattr_matches_reference(sattr):
    enc, renc = XDREncoder(), ref.ReferenceEncoder()
    nfs.pack_sattr(enc, sattr)
    ref.pack_sattr(renc, sattr)
    wire = enc.getvalue()
    assert wire == renc.getvalue()
    out = nfs.unpack_sattr(XDRDecoder(wire))
    assert out == ref.unpack_sattr(ref.ReferenceDecoder(wire))
    for name in ("mode", "uid", "gid", "size"):
        assert getattr(out, name) == getattr(sattr, name)
    for name in ("atime", "mtime"):
        assert (getattr(out, name) is None) == (getattr(sattr, name) is None)


@settings(max_examples=200)
@given(fh=FH, offset=U32, count=U32, data=PAYLOAD, name=st.text(max_size=40))
def test_nfs_args_match_reference(fh, offset, count, data, name):
    enc = XDREncoder()
    nfs.pack_read_args(enc, fh, offset, count)
    wire = enc.getvalue()
    assert wire == ref.read_args(fh, offset, count)
    dec = XDRDecoder(wire)
    assert nfs.unpack_read_args(dec) == ref.decode_read_args(wire) \
        == (fh, offset, count)
    dec.done()

    enc = XDREncoder()
    nfs.pack_write_args(enc, fh, offset, data)
    wire = enc.getvalue()
    assert wire == ref.write_args(fh, offset, data)
    dec = XDRDecoder(bytearray(wire))
    got = nfs.unpack_write_args(dec)
    assert got == ref.decode_write_args(wire) == (fh, offset, data)
    assert type(got[2]) is bytes
    dec.done()

    enc = XDREncoder()
    nfs.pack_fhandle(enc, fh)
    enc.pack_string(name)
    wire = enc.getvalue()
    assert wire == ref.lookup_args(fh, name)
    dec = XDRDecoder(wire)
    assert nfs.unpack_fhandle(dec) == fh
    assert dec.unpack_string(nfs.MAX_NAME) == name
    dec.done()
    assert fh.encode() == wire[:nfs.FHSIZE]
    assert nfs.FileHandle.decode(wire[:nfs.FHSIZE]) == fh


def test_oversized_write_is_rejected_like_reference():
    fh = nfs.FileHandle(1, 1)
    wire = ref.write_args(fh, 0, bytes(nfs.MAX_DATA + 4))
    with pytest.raises(XDRError):
        ref.decode_write_args(wire)
    with pytest.raises(XDRError):
        nfs.unpack_write_args(XDRDecoder(wire))
