"""The NFS and MOUNT procedure rows against the hand-written wire reference.

``tests/nfs_wire_reference.py`` holds the argument packers the NFS and
mount clients had and the reply packers their servers had before both
ends were derived from one row per procedure.  Held to it here:

* every row's codecs, for arbitrary in-range values, on the success and
  the error arm;
* every stub's exchange with the real server through a tapping
  transport, byte for byte, including replies that report a failure;
* hostile bytes on both ends: a strict prefix of a call's arguments, a
  trailing word or an oversize length is ``GARBAGE_ARGS`` under the
  call's xid, and a truncated, extended or ill-typed reply raises
  ``XDRError`` or ``NFSError`` out of the stub, nothing else.
"""

from __future__ import annotations

import nfs_wire_reference as ref  # tests/nfs_wire_reference.py
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NFSError, XDRError
from repro.fs.ffs import FFS
from repro.fs.vfs import VFS
from repro.nfs.client import NFSClient
from repro.nfs.mount import MOUNT_PROCEDURES, MountClient, MountProgram
from repro.nfs.protocol import (
    MAX_DATA,
    MAX_NAME,
    MAX_PATH,
    MOUNT_PROGRAM,
    MOUNT_VERSION,
    NFS_PROGRAM,
    NFS_VERSION,
    PROCEDURES,
    FAttr,
    FileHandle,
    NFSStat,
    SAttr,
    fattr_words,
)
from repro.nfs.server import AccessDeniedSignal, AllowAllController, NFSProgram
from repro.rpc.message import (
    AcceptStat,
    CallMessage,
    ReplyMessage,
    encode_call,
    encode_reply,
)
from repro.rpc.server import RPCServer
from repro.rpc.transport import InProcessTransport
from repro.rpc.xdr import XDRDecoder, XDREncoder

ROWS = {proc.name: proc for proc in PROCEDURES + MOUNT_PROCEDURES}
ATTRSTAT = {"GETATTR", "SETATTR", "WRITE"}
DIROPRES = {"LOOKUP", "CREATE", "MKDIR"}

uints = st.integers(0, 0xFFFFFFFF)
#: sattr values; all-ones is the wire's "no change", i.e. None.
settable = st.none() | st.integers(0, 0xFFFFFFFE)
handles = st.builds(FileHandle, st.integers(0, (1 << 64) - 1),
                    st.integers(0, (1 << 64) - 1))
sattrs = st.builds(SAttr, settable, settable, settable, settable, settable,
                   settable)
names = st.text(max_size=20)
text = st.text(max_size=40)
lines = st.lists(text, max_size=4)
fattrs = st.tuples(st.integers(0, 5), *[uints] * 14)
diropres = st.tuples(handles, fattrs, st.none() | text)
void = st.none()

#: name -> (strategy for the argument tuple, strategy for what the
#: server replies with on success)
VALUES = {
    "GETATTR": (st.tuples(handles), fattrs),
    "SETATTR": (st.tuples(handles, sattrs), fattrs),
    "LOOKUP": (st.tuples(handles, names), diropres),
    "READLINK": (st.tuples(handles), text),
    "READ": (st.tuples(handles, uints, st.integers(0, MAX_DATA)),
             st.tuples(fattrs, st.binary(max_size=64))),
    "WRITE": (st.tuples(handles, uints, st.binary(max_size=64)), fattrs),
    "CREATE": (st.tuples(handles, names, sattrs), diropres),
    "REMOVE": (st.tuples(handles, names), void),
    "RENAME": (st.tuples(handles, names, handles, names), void),
    "LINK": (st.tuples(handles, handles, names), void),
    "SYMLINK": (st.tuples(handles, names, text, sattrs), void),
    "MKDIR": (st.tuples(handles, names, sattrs), diropres),
    "RMDIR": (st.tuples(handles, names), void),
    "READDIR": (st.tuples(handles, uints, uints),
                st.tuples(st.lists(st.tuples(uints, names, uints),
                                   max_size=5), st.booleans())),
    "STATFS": (st.tuples(handles), st.tuples(uints, uints, uints, uints, uints)),
    "SUBMITCRED": (st.tuples(text), text),
    "REVOKE": (st.tuples(text), text),
    "LISTCREDS": (st.tuples(), lines),
    "AUDITLOG": (st.tuples(uints), lines),
    "MNT": (st.tuples(text), handles),
    "UMNT": (st.tuples(text), void),
}


def client_view(name: str, value):
    """What the client's decoder makes of the server's ``value``."""
    if name in ATTRSTAT:
        return FAttr.from_words(value)
    if name in DIROPRES:
        fh, words, credential = value
        return FileHandle(fh.ino, fh.generation), FAttr.from_words(words), \
            credential
    if name == "READ":
        return value[1]  # the attributes are skipped
    return value


# -- the rows' codecs -------------------------------------------------------


def test_reference_covers_the_rows():
    assert {p.name: p.number for p in PROCEDURES} == ref.NUMBERS
    assert {p.name: p.number for p in MOUNT_PROCEDURES} == ref.MOUNT_NUMBERS
    assert set(VALUES) == set(ROWS)


@pytest.mark.parametrize("name", sorted(ROWS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_row_codec_matches_reference(name, data):
    proc = ROWS[name]
    args_strategy, reply_strategy = VALUES[name]
    args = data.draw(args_strategy)
    value = data.draw(reply_strategy)

    enc = XDREncoder()
    proc.pack_args(enc, args)
    wire = enc.getvalue()
    assert wire == ref.ARGS[name](*args)
    dec = XDRDecoder(wire)
    assert proc.unpack_args(dec) == args
    dec.done()

    enc = XDREncoder()
    proc.pack_result(enc, value)
    wire = enc.getvalue()
    assert wire == ref.REPLIES[name](value)
    dec = XDRDecoder(wire)
    assert proc.unpack_result(dec) == client_view(name, value)
    dec.done()


@pytest.mark.parametrize("name", sorted(set(ROWS) - {"UMNT"}))
@settings(max_examples=20, deadline=None)
@given(status=st.sampled_from([s for s in NFSStat if s != NFSStat.NFS_OK]))
def test_error_arm_raises_its_status(name, status):
    with pytest.raises(NFSError) as excinfo:
        ROWS[name].unpack_result(XDRDecoder(ref.error(status)))
    assert excinfo.value.status == status


# -- whole exchanges --------------------------------------------------------


class Scripted(AllowAllController):
    """A controller with answers of its own, so replies carry creator
    credentials, a reported mode that is not the inode's and extension
    results; with ``deny`` set, every decision is a denial."""

    MODE = 0o640

    def __init__(self) -> None:
        self.deny = False

    def _decide(self) -> None:
        if self.deny:
            raise AccessDeniedSignal("scripted denial")

    def check(self, ctx, op, fh, inode) -> None:
        self._decide()

    def check_lookup(self, ctx, dir_fh, dir_inode, child) -> None:
        self._decide()

    def effective_mode(self, ctx, inode) -> int:
        return self.MODE

    def on_create(self, ctx, inode):
        return f"credential for inode {inode.ino}"

    def submit_credential(self, ctx, text) -> str:
        self._decide()
        return f"accepted {len(text)} characters"

    def revoke(self, ctx, payload) -> str:
        self._decide()
        return f"revoked {payload}"

    def list_credentials(self, ctx) -> list[str]:
        return ["first", "second"]

    def list_audit(self, ctx, limit) -> list[str]:
        self._decide()
        return [f"record {n}" for n in range(min(limit, 3))]


class Tap:
    """In-process transport that keeps what crossed it."""

    def __init__(self, handler):
        self._handler = handler
        self.calls: list[tuple[int, int, bytes, bytes]] = []

    def call(self, request: bytes) -> bytes:
        response = self._handler(request)
        call = CallMessage.decode(request)
        self.calls.append((call.prog, call.proc, call.args,
                           ReplyMessage.decode(response).results))
        return response

    def close(self) -> None:
        pass


labels = st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1,
                 max_size=12)


@settings(max_examples=25, deadline=None)
@given(label=labels, data=st.binary(max_size=MAX_DATA), offset=st.integers(0, 1 << 16),
       count=st.integers(0, MAX_DATA), mode=st.integers(0, 0o7777),
       target=st.text(max_size=60), message=text,
       limit=st.integers(0, 10))
def test_every_stub_exchange_matches_reference(label, data, offset, count,
                                                mode, target, message, limit):
    """Every message the real clients and servers exchange — success and
    failure replies — is, byte for byte, what the hand-written halves
    would have exchanged for the same values."""
    vfs = VFS(FFS())
    controller = Scripted()
    server = RPCServer()
    server.register(NFSProgram(vfs, controller))
    server.register(MountProgram(vfs, exports=["/", "/missing"]))
    tap = Tap(server.handler_for("tester"))
    mounter = MountClient(tap)
    root = mounter.mount("/")
    nfs = NFSClient(tap, root)
    expected: list[tuple[str, tuple, bytes]] = []

    def words(fh: FileHandle) -> tuple[int, ...]:
        inode = vfs.getattr(fh.file_id())
        return fattr_words(inode, vfs.fs.block_size, Scripted.MODE)

    def sent(name: str, args: tuple, reply) -> None:
        expected.append((name, args, reply if isinstance(reply, bytes)
                         else ref.REPLIES[name](reply)))

    def refused(name: str, args: tuple, status: NFSStat, call) -> None:
        with pytest.raises(NFSError) as excinfo:
            call()
        assert excinfo.value.status == status
        sent(name, args, ref.error(status))

    sent("MNT", ("/",), root)
    mounter.unmount("/")
    sent("UMNT", ("/",), None)
    nfs.getattr(root)
    sent("GETATTR", (root,), words(root))

    fname, dname, sname, hname, rname, ename = (
        f"{kind}-{label}" for kind in "fdshre")
    fh, _attr, credential = nfs.create(root, fname, SAttr(mode=mode))
    sent("CREATE", (root, fname, SAttr(mode=mode)),
         (fh, words(fh), credential))
    nfs.setattr(fh, SAttr(mode=0o600, atime=7))
    sent("SETATTR", (fh, SAttr(mode=0o600, atime=7)), words(fh))
    nfs.write(fh, offset, data)
    sent("WRITE", (fh, offset, data), words(fh))
    got = nfs.read(fh, offset, count)
    sent("READ", (fh, offset, count), (words(fh), got))
    looked, _attr = nfs.lookup(root, fname)
    sent("LOOKUP", (root, fname), (looked, words(looked), None))
    dfh, _attr, credential = nfs.mkdir(root, dname)
    sent("MKDIR", (root, dname, SAttr()), (dfh, words(dfh), credential))
    nfs.symlink(root, sname, target)
    sent("SYMLINK", (root, sname, target, SAttr()), None)
    sfh, _attr = nfs.lookup(root, sname)
    sent("LOOKUP", (root, sname), (sfh, words(sfh), None))
    sent("READLINK", (sfh,), nfs.readlink(sfh))
    nfs.link(fh, dfh, hname)
    sent("LINK", (fh, dfh, hname), None)
    nfs.rename(root, fname, dfh, rname)
    sent("RENAME", (root, fname, dfh, rname), None)
    sent("READDIR", (dfh, 0, MAX_DATA), nfs.readdir(dfh))
    nfs.remove(dfh, hname)
    sent("REMOVE", (dfh, hname), None)
    efh, _attr, credential = nfs.create(root, ename)
    sent("CREATE", (root, ename, SAttr()), (efh, words(efh), credential))
    nfs.remove(root, ename)
    sent("REMOVE", (root, ename), None)
    efh, _attr, credential = nfs.mkdir(root, ename, SAttr(mode=0o700))
    sent("MKDIR", (root, ename, SAttr(mode=0o700)),
         (efh, words(efh), credential))
    nfs.rmdir(root, ename)
    sent("RMDIR", (root, ename), None)
    sent("STATFS", (root,), tuple(nfs.statfs().values()))
    sent("SUBMITCRED", (message,), nfs.submit_credential(message))
    sent("REVOKE", (message,), nfs.revoke(message))
    sent("LISTCREDS", (), nfs.list_credentials())
    sent("AUDITLOG", (limit,), nfs.audit_log(limit))

    # The error arm: every decision a denial, then a stale handle and
    # the mount program's own two refusals.
    controller.deny = True
    acces = NFSStat.NFSERR_ACCES
    refused("GETATTR", (fh,), acces, lambda: nfs.getattr(fh))
    refused("SETATTR", (fh, SAttr()), acces, lambda: nfs.setattr(fh, SAttr()))
    refused("LOOKUP", (dfh, rname), acces, lambda: nfs.lookup(dfh, rname))
    refused("READLINK", (sfh,), acces, lambda: nfs.readlink(sfh))
    refused("READ", (fh, 0, 1), acces, lambda: nfs.read(fh, 0, 1))
    refused("WRITE", (fh, 0, b"x"), acces, lambda: nfs.write(fh, 0, b"x"))
    refused("CREATE", (root, "c", SAttr()), acces,
            lambda: nfs.create(root, "c"))
    refused("REMOVE", (dfh, rname), acces, lambda: nfs.remove(dfh, rname))
    refused("RENAME", (dfh, rname, root, "r"), acces,
            lambda: nfs.rename(dfh, rname, root, "r"))
    refused("LINK", (fh, root, "l"), acces, lambda: nfs.link(fh, root, "l"))
    refused("SYMLINK", (root, "s", "t", SAttr()), acces,
            lambda: nfs.symlink(root, "s", "t"))
    refused("MKDIR", (root, "m", SAttr()), acces, lambda: nfs.mkdir(root, "m"))
    refused("RMDIR", (root, dname), acces, lambda: nfs.rmdir(root, dname))
    refused("READDIR", (root, 0, MAX_DATA), acces, lambda: nfs.readdir(root))
    refused("STATFS", (root,), acces, nfs.statfs)
    refused("SUBMITCRED", ("c",), acces, lambda: nfs.submit_credential("c"))
    refused("REVOKE", ("k",), acces, lambda: nfs.revoke("k"))
    refused("AUDITLOG", (limit,), acces, lambda: nfs.audit_log(limit))
    controller.deny = False
    nfs.remove(dfh, rname)
    sent("REMOVE", (dfh, rname), None)
    refused("GETATTR", (fh,), NFSStat.NFSERR_STALE, lambda: nfs.getattr(fh))
    refused("MNT", ("/missing",), NFSStat.NFSERR_NOENT,
            lambda: mounter.mount("/missing"))
    refused("MNT", (f"/{dname}",), acces, lambda: mounter.mount(f"/{dname}"))

    assert len(tap.calls) == len(expected)
    numbers = {NFS_PROGRAM: ref.NUMBERS, MOUNT_PROGRAM: ref.MOUNT_NUMBERS}
    for (prog, number, args, results), (name, values, reply) in zip(
            tap.calls, expected):
        assert numbers[prog][name] == number, name
        assert args == ref.ARGS[name](*values), name
        assert results == reply, name


# -- hostile bytes ----------------------------------------------------------

FH = FileHandle(7, 3)
WORDS = (1, 0o100644, 1, 0, 0, 3, 4096, 1, 7, 1, 0, 2, 0, 3, 0)

#: name -> (well-formed arguments, a success value, the stub call)
SAMPLES = {
    "GETATTR": ((FH,), WORDS, lambda c, m: c.getattr(FH)),
    "SETATTR": ((FH, SAttr(mode=0o600)), WORDS,
                lambda c, m: c.setattr(FH, SAttr(mode=0o600))),
    "LOOKUP": ((FH, "a"), (FH, WORDS, None), lambda c, m: c.lookup(FH, "a")),
    "READLINK": ((FH,), "/t", lambda c, m: c.readlink(FH)),
    "READ": ((FH, 0, 16), (WORDS, b"abc"), lambda c, m: c.read(FH, 0, 16)),
    "WRITE": ((FH, 0, b"abc"), WORDS, lambda c, m: c.write(FH, 0, b"abc")),
    "CREATE": ((FH, "a", SAttr()), (FH, WORDS, "cred"),
               lambda c, m: c.create(FH, "a")),
    "REMOVE": ((FH, "a"), None, lambda c, m: c.remove(FH, "a")),
    "RENAME": ((FH, "a", FH, "b"), None,
               lambda c, m: c.rename(FH, "a", FH, "b")),
    "LINK": ((FH, FH, "a"), None, lambda c, m: c.link(FH, FH, "a")),
    "SYMLINK": ((FH, "a", "/t", SAttr()), None,
                lambda c, m: c.symlink(FH, "a", "/t")),
    "MKDIR": ((FH, "a", SAttr()), (FH, WORDS, None),
              lambda c, m: c.mkdir(FH, "a")),
    "RMDIR": ((FH, "a"), None, lambda c, m: c.rmdir(FH, "a")),
    "READDIR": ((FH, 0, MAX_DATA), ([(7, "a", 1), (8, "b", 2)], True),
                lambda c, m: c.readdir(FH)),
    "STATFS": ((FH,), (MAX_DATA, 4096, 100, 50, 50), lambda c, m: c.statfs()),
    "SUBMITCRED": (("cred",), "ok", lambda c, m: c.submit_credential("cred")),
    "REVOKE": (("key k",), "ok", lambda c, m: c.revoke("key k")),
    "LISTCREDS": ((), ["x", "y"], lambda c, m: c.list_credentials()),
    "AUDITLOG": ((5,), ["x", "y"], lambda c, m: c.audit_log(5)),
    "MNT": (("/",), FH, lambda c, m: m.mount("/")),
    "UMNT": (("/",), None, lambda c, m: m.unmount("/")),
}

by_name = pytest.mark.parametrize("name", sorted(SAMPLES))


def test_samples_cover_the_reference():
    assert set(SAMPLES) == set(ref.NUMBERS) | set(ref.MOUNT_NUMBERS)


def request(name: str, args: bytes, xid: int = 99) -> bytes:
    if name in ref.MOUNT_NUMBERS:
        return encode_call(xid, MOUNT_PROGRAM, MOUNT_VERSION,
                           ref.MOUNT_NUMBERS[name], args)
    return encode_call(xid, NFS_PROGRAM, NFS_VERSION, ref.NUMBERS[name], args)


def good_args(name: str) -> bytes:
    return ref.ARGS[name](*SAMPLES[name][0])


def _long(limit: int) -> str:
    return "n" * (limit + 1)


#: Out-of-range lengths, by procedure (arguments only).
OVERSIZE_ARGS = {
    "LOOKUP": [ref.ARGS["LOOKUP"](FH, _long(MAX_NAME))],
    "READ": [ref.ARGS["READ"](FH, 0, MAX_DATA + 1)],
    "WRITE": [ref.ARGS["WRITE"](FH, 0, b"x" * (MAX_DATA + 1))],
    "CREATE": [ref.ARGS["CREATE"](FH, _long(MAX_NAME), SAttr())],
    "REMOVE": [ref.ARGS["REMOVE"](FH, _long(MAX_NAME))],
    "RENAME": [ref.ARGS["RENAME"](FH, _long(MAX_NAME), FH, "b"),
               ref.ARGS["RENAME"](FH, "a", FH, _long(MAX_NAME))],
    "LINK": [ref.ARGS["LINK"](FH, FH, _long(MAX_NAME))],
    "SYMLINK": [ref.ARGS["SYMLINK"](FH, _long(MAX_NAME), "/t", SAttr()),
                ref.ARGS["SYMLINK"](FH, "a", _long(MAX_PATH), SAttr())],
    "MKDIR": [ref.ARGS["MKDIR"](FH, _long(MAX_NAME), SAttr())],
    "RMDIR": [ref.ARGS["RMDIR"](FH, _long(MAX_NAME))],
    "SUBMITCRED": [ref.ARGS["SUBMITCRED"](_long(1 << 20))],
    "REVOKE": [ref.ARGS["REVOKE"](_long(1 << 20))],
    "MNT": [ref.ARGS["MNT"](_long(MAX_PATH))],
    "UMNT": [ref.ARGS["UMNT"](_long(MAX_PATH))],
}


class TestHostileRequests:
    """Server side: malformed arguments are GARBAGE_ARGS under the
    call's own xid — not SYSTEM_ERR, not a reply that pretends the
    bytes were the call."""

    @pytest.fixture(scope="class")
    def server(self):
        vfs = VFS(FFS())
        server = RPCServer()
        server.register(NFSProgram(vfs))
        server.register(MountProgram(vfs))
        return server

    def reply(self, server, name, args):
        return ReplyMessage.decode(server.handle(request(name, args)))

    @by_name
    def test_well_formed_sample_is_served(self, server, name):
        assert self.reply(server, name, good_args(name)).stat \
            is AcceptStat.SUCCESS

    @by_name
    def test_every_strict_prefix(self, server, name):
        good = good_args(name)
        for cut in range(len(good)):
            assert self.reply(server, name, good[:cut]).stat \
                is AcceptStat.GARBAGE_ARGS, cut

    @by_name
    @pytest.mark.parametrize("tail", [b"\0\0\0\0", b"trailing!!!"],
                             ids=["word", "11 bytes"])
    def test_trailing_bytes(self, server, name, tail):
        reply = self.reply(server, name, good_args(name) + tail)
        assert (reply.xid, reply.stat) == (99, AcceptStat.GARBAGE_ARGS)

    def test_getattr_of_the_root_with_a_word_more(self, server):
        root = MountClient(InProcessTransport(server.handle)).mount("/")
        args = ref.ARGS["GETATTR"](root)
        assert ReplyMessage.decode(server.handle(request(
            "GETATTR", args))).results[:4] == ref.error(NFSStat.NFS_OK)
        reply = self.reply(server, "GETATTR", args + b"\0\0\0\0")
        assert (reply.xid, reply.stat) == (99, AcceptStat.GARBAGE_ARGS)

    @pytest.mark.parametrize("name", sorted(OVERSIZE_ARGS))
    def test_oversize_lengths(self, server, name):
        for args in OVERSIZE_ARGS[name]:
            assert self.reply(server, name, args).stat \
                is AcceptStat.GARBAGE_ARGS


class LyingTransport:
    """Answers every call SUCCESS, with ``hostile`` as its results."""

    def __init__(self) -> None:
        self.hostile = b""

    def call(self, request: bytes) -> bytes:
        xid = CallMessage.decode(request).xid
        return encode_reply(xid, AcceptStat.SUCCESS, self.hostile)

    def close(self) -> None:
        pass


def good_reply(name: str) -> bytes:
    return ref.REPLIES[name](SAMPLES[name][1])


class TestHostileReplies:
    """Client side: whatever the server answers, a stub raises
    ``XDRError`` or ``NFSError`` — never another exception, and never a
    value made of the wrong bytes."""

    @pytest.fixture()
    def lying(self):
        transport = LyingTransport()
        return transport, (NFSClient(transport, FH), MountClient(transport))

    def call(self, clients, name):
        return SAMPLES[name][2](*clients)

    @by_name
    def test_well_formed_reply_decodes(self, lying, name):
        transport, clients = lying
        transport.hostile = good_reply(name)
        self.call(clients, name)

    @by_name
    def test_truncated_or_extended(self, lying, name):
        transport, clients = lying
        good = good_reply(name)
        for reply in [good[:cut] for cut in range(len(good))] + \
                [good + b"\0\0\0\0"]:
            transport.hostile = reply
            with pytest.raises((XDRError, NFSError)):
                self.call(clients, name)

    @pytest.mark.parametrize("name", sorted(ATTRSTAT | DIROPRES))
    def test_unknown_ftype(self, lying, name):
        transport, clients = lying
        value = SAMPLES[name][1]
        bad = (9, *WORDS[1:])
        value = bad if name in ATTRSTAT else (value[0], bad, value[2])
        transport.hostile = ref.REPLIES[name](value)
        with pytest.raises(XDRError, match="ftype"):
            self.call(clients, name)

    def test_read_longer_than_max_data(self, lying):
        transport, clients = lying
        transport.hostile = ref.REPLIES["READ"]((WORDS, b"x" * (MAX_DATA + 4)))
        with pytest.raises(XDRError, match="exceeds maximum"):
            self.call(clients, "READ")

    @pytest.mark.parametrize("name", sorted(set(SAMPLES) - {"UMNT"}))
    def test_failure_status(self, lying, name):
        transport, clients = lying
        transport.hostile = ref.error(NFSStat.NFSERR_STALE)
        with pytest.raises(NFSError) as excinfo:
            self.call(clients, name)
        assert excinfo.value.status == NFSStat.NFSERR_STALE
