"""Differential: one access decision per NFS call answers as two did.

Two DisCFS servers start from the same tree, keys, credentials and
clock.  One runs :class:`~repro.core.server.DisCFSController`, whose
check hands the reply its mode bits; the other runs
``tests/nfs_access_reference.py``'s controller, which decides again for
every fattr.  Each random NFS call goes to both, and the replies must be
the same bytes, apart from the fattr time words, which FFS stamps from
the wall clock.  At the end both audit logs must hold the same records,
apart from ``ts``.

Credential sets mix handle-bound grants, subtree (``ANCESTORS``) grants
and grants whose Conditions read ``OPERATION``, for a key or for the
guest principal; the requester is the key, the guest or nobody, and the
key may be revoked.  Both handle schemes and cache capacities 0 and 128
are drawn.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfs_access_reference import reference_server  # tests/nfs_access_reference.py
from repro.core.admin import Administrator, identity_of
from repro.core.handles import HandleScheme
from repro.core.server import DisCFSServer
from repro.errors import ReproError
from repro.nfs.client import NFSClient
from repro.nfs.mount import MountClient
from repro.nfs.protocol import FileHandle, Proc, SAttr
from repro.rpc.message import CallMessage, ReplyMessage

GUEST = "GUEST"
NOW = 1_000_000.0
NAMES = ("a", "b", "f0", "f1", "d1", "s")
#: The tree both servers start from; grants name these paths.
PATHS = ("/", "/d1", "/d1/f1", "/d2", "/f0", "/d1/s")

#: Where a successful reply's fattr starts (after the status word, and a
#: file handle for a diropres); its last six words are the times.
FATTR_AT = {Proc.GETATTR: 4, Proc.SETATTR: 4, Proc.WRITE: 4, Proc.READ: 4,
            Proc.LOOKUP: 36, Proc.CREATE: 36, Proc.MKDIR: 36}
TIMES = slice(44, 68)


def without_times(request: bytes, reply: bytes) -> bytes:
    at = FATTR_AT.get(CallMessage.decode(request).proc)
    results = ReplyMessage.decode(reply).results
    if at is None or results[:4] != bytes(4):
        return reply
    start = len(reply) - len(results) + at
    return (reply[:start + TIMES.start] + bytes(TIMES.stop - TIMES.start)
            + reply[start + TIMES.stop:])


class Twin:
    """A transport that sends each call to both servers, checks that the
    replies agree, and hands the client the first."""

    def __init__(self, handler, reference):
        self._handler, self._reference = handler, reference

    def call(self, request: bytes) -> bytes:
        reply = self._handler(request)
        expected = self._reference(request)
        assert without_times(request, reply) == \
            without_times(request, expected), CallMessage.decode(request)
        return reply

    def close(self) -> None:
        pass


# Licensee: the requester (twice as likely) or the other principal.
grants = st.lists(st.tuples(
    st.sampled_from((True, True, False)),
    st.sampled_from(PATHS[:5]),
    st.sampled_from(("R", "W", "X", "RX", "RW", "WX", "RWX")),
    st.sampled_from(("plain", "subtree", "read", "write", "getattr")),
), min_size=1, max_size=4)

handle = st.integers(0, 8)  # mostly the starting tree and the stale handle
name = st.sampled_from(NAMES)
read = st.tuples(st.just("read"), handle, st.integers(0, 8),
                 st.integers(0, 16))
write = st.tuples(st.just("write"), handle, st.integers(0, 8),
                  st.binary(max_size=16))
# The calls whose reply carries the checked file's fattr come up most.
calls = st.lists(st.one_of(
    read, write, read, write,
    st.tuples(st.just("getattr"), handle),
    st.tuples(st.just("setattr"), handle, st.integers(0, 0o777)),
    st.tuples(st.just("lookup"), handle, name),
    st.tuples(st.just("create"), handle, name),
    st.tuples(st.just("mkdir"), handle, name),
    st.tuples(st.just("remove"), handle, name),
    st.tuples(st.just("rmdir"), handle, name),
    st.tuples(st.just("rename"), handle, name, handle, name),
    st.tuples(st.just("link"), handle, handle, name),
    st.tuples(st.just("symlink"), handle, name),
    st.tuples(st.just("readlink"), handle),
    st.tuples(st.just("readdir"), handle),
    st.tuples(st.just("statfs")),
), min_size=3, max_size=30)


def _tree(server: DisCFSServer) -> None:
    fs = server.fs
    d1 = fs.mkdir(fs.root_ino, "d1")
    fs.mkdir(fs.root_ino, "d2")
    fs.write(fs.create(d1.ino, "f1").ino, 0, b"first file")
    fs.write(fs.create(fs.root_ino, "f0").ino, 0, b"zero")
    fs.symlink(d1.ino, "s", "/d1/f1")


def _credential(administrator, server, licensee, path, rights, kind) -> str:
    options = {"subtree": True} if kind == "subtree" else \
        {} if kind == "plain" else \
        {"extra_condition": f'OPERATION == "{kind}"'}
    return administrator.grant_inode(
        licensee, server.fs.namei(path, follow_symlinks=False), rights=rights,
        scheme=server.handle_scheme, **options)


def _apply(nfs: NFSClient, pool: list[FileHandle], call: tuple) -> None:
    kind, *args = call

    def fh(index: int) -> FileHandle:
        return pool[index % len(pool)]

    if kind == "getattr":
        nfs.getattr(fh(args[0]))
    elif kind == "setattr":
        nfs.setattr(fh(args[0]), SAttr(mode=args[1]))
    elif kind == "lookup":
        pool.append(nfs.lookup(fh(args[0]), args[1])[0])
    elif kind == "read":
        nfs.read(fh(args[0]), args[1], args[2])
    elif kind == "write":
        nfs.write(fh(args[0]), args[1], args[2])
    elif kind == "create":
        pool.append(nfs.create(fh(args[0]), args[1])[0])
    elif kind == "mkdir":
        pool.append(nfs.mkdir(fh(args[0]), args[1])[0])
    elif kind == "remove":
        nfs.remove(fh(args[0]), args[1])
    elif kind == "rmdir":
        nfs.rmdir(fh(args[0]), args[1])
    elif kind == "rename":
        nfs.rename(fh(args[0]), args[1], fh(args[2]), args[3])
    elif kind == "link":
        nfs.link(fh(args[0]), fh(args[1]), args[2])
    elif kind == "symlink":
        nfs.symlink(fh(args[0]), args[1], "/d1/f1")
    elif kind == "readlink":
        nfs.readlink(fh(args[0]))
    elif kind == "readdir":
        nfs.readdir(fh(args[0]))
    else:
        nfs.statfs()


@settings(max_examples=100, deadline=None)
@example(scheme=HandleScheme.INODE_GENERATION, capacity=128, requester="key",
         revoked=False,
         grants=[(True, "/d1/f1", "RW", "read"), (True, "/f0", "RX", "plain")],
         calls=[("read", 2, 0, 4), ("write", 2, 0, b"x"), ("getattr", 2),
                ("read", 4, 0, 4), ("setattr", 4, 0o600)])
@example(scheme=HandleScheme.INODE, capacity=0, requester="guest",
         revoked=False, grants=[(True, "/d1", "RWX", "subtree")],
         calls=[("read", 2, 0, 4), ("rename", 1, "f1", 3, "f1"),
                ("read", 2, 0, 4), ("write", 2, 0, b"x"),
                ("rename", 3, "f1", 6, "x"), ("link", 2, 6, "x")])
@given(scheme=st.sampled_from(HandleScheme),
       capacity=st.sampled_from((0, 128)),
       requester=st.sampled_from(("key", "guest", "nobody")),
       revoked=st.sampled_from((False, False, False, True)),
       grants=grants, calls=calls)
def test_one_decision_answers_as_two(admin_key, bob_key, carol_key, scheme,
                                     capacity, requester, revoked, grants,
                                     calls):
    """``requester``: the key, the guest principal (an anonymous call on a
    server that has one) or nobody (an anonymous call on one without)."""
    administrator = Administrator(admin_key)
    bob = identity_of(bob_key)
    options = dict(admin_identity=administrator.identity, issuer_key=carol_key,
                   handle_scheme=scheme, cache_capacity=capacity,
                   clock=lambda: NOW,
                   guest_principal=None if requester == "nobody" else GUEST)
    servers = (DisCFSServer(**options), reference_server(**options))
    for server in servers:
        administrator.trust_server(server)
        _tree(server)
    for to_requester, path, rights, kind in grants:
        licensee = bob if to_requester == (requester != "guest") else GUEST
        text = _credential(administrator, servers[0], licensee, path, rights,
                           kind)
        for server in servers:
            server.accept_credential(text)
    if revoked:
        for server in servers:
            server.engine.revoke(f"key {bob}")

    identity = bob if requester == "key" else None
    transport = Twin(*(server.handler(identity) for server in servers))
    root = MountClient(transport).mount("/")
    nfs = NFSClient(transport, root)
    fs = servers[0].fs
    pool = [FileHandle.of(fs.namei(path, follow_symlinks=False))
            for path in PATHS] + [FileHandle(ino=999, generation=1)]
    for call in calls:
        try:
            _apply(nfs, pool, call)
        except ReproError:
            pass  # a denial or a filesystem error, the same on both sides
    new, old = ([r._replace(ts=0.0) for r in server.audit.records()]
                for server in servers)
    assert new == old
