"""The four workloads: seeded inputs, deployment, one round, checks.

A workload object is made once per run.  Its constructor *generates the
inputs* from the seed — file bodies, the source tree's text, the op
schedule, the share positions — and touches nothing of the program.
``build`` then sets up one DisCFS deployment (the program's work only:
seeded keys, mkfs, population, node start, credential grant + submit);
``round`` drives it from one closed-loop client thread through
``DisCFSClient``; ``close`` tears it down.  The runner builds a fresh
deployment for every round, so every round issues the same calls against
the same starting state.  Sizes and op counts are the constants in
:data:`SIZES`.

Each class's docstring says why the workload exists and which layers it
loads; README.md carries the longer version.
"""

from __future__ import annotations

import hashlib
import random
import threading
from array import array
from contextlib import nullcontext
from itertools import zip_longest
from math import ceil
from pathlib import Path
from time import perf_counter_ns

from repro.core.admin import Administrator, identity_of, make_user_keypair
from repro.core.client import DisCFSClient
from repro.core.credentials import CredentialIssuer
from repro.core.server import DisCFSServer
from repro.errors import NFSError
from repro.fs import persist
from repro.nfs.protocol import NFSStat
from repro.storage import iter_stores, open_device, open_store, serve_store
from repro.storage.spec import cached, file, journal, mem, remote, replica

BLOCK = 8192
HALF = BLOCK // 2
#: Distinct 8 KiB bodies a run writes; prime, so strides never alias.
POOL = 61

#: Rounds per run.  Fixed: every round issues the same ops in the same
#: order, and an op's time is the fastest of its ROUNDS repetitions.
ROUNDS = 6

#: The ``--seconds`` the "full" op counts below were fitted to on a 2-core
#: machine: the measured rounds take about that long.  Another
#: ``--seconds`` scales each workload's ``SCALED`` count, never ROUNDS.
RUN_SECONDS = 20

#: Size constants.  "full" is what BENCHMARK.json measures; "smoke" is the
#: same code at a size the test suite can afford.
SIZES = {
    "bonnie-durable": {
        "full": dict(file_blocks=8192, sync_every=64, home_files=128,
                     shares=20),
        "smoke": dict(file_blocks=128, sync_every=8, home_files=2, shares=2),
    },
    "policy-search": {
        # Twice the share cycles of the others: they carry this workload's
        # only writes, and the median of 20 did not repeat within a tenth.
        "full": dict(dirs=24, files=14, walks=3, home_files=128, shares=40),
        "smoke": dict(dirs=3, files=4, walks=1, home_files=2, shares=2),
    },
    "secure-share": {
        "full": dict(users=8, home_files=3, cycles=24),
        "smoke": dict(users=3, home_files=1, cycles=2),
    },
    "replica-remote": {
        "full": dict(files=64, file_blocks=32, ops=4000, home_files=128,
                     shares=20),
        "smoke": dict(files=4, file_blocks=4, ops=60, home_files=2, shares=2),
    },
}

#: The per-round count of each workload that ``--seconds`` scales, and the
#: multiple it is kept to.
SCALED = {
    "bonnie-durable": ("file_blocks", 1024),
    "policy-search": ("walks", 1),
    "secure-share": ("cycles", 1),
    "replica-remote": ("ops", 100),
}


def sizes_for(name: str, size: str, seconds: float = RUN_SECONDS) -> dict:
    """The size constants of one run; ``seconds`` scales a full run's
    round length and nothing else."""
    out = dict(SIZES[name][size])
    if size == "full":
        key, multiple = SCALED[name]
        out[key] = multiple * max(
            1, round(out[key] * seconds / RUN_SECONDS / multiple))
    return out


def percentile_ms(samples_ns, q: float) -> float:
    """Nearest-rank percentile of nanosecond samples, in ms (0 if empty)."""
    ordered = sorted(samples_ns)
    if not ordered:
        return 0.0
    return ordered[max(0, ceil(q * len(ordered)) - 1)] / 1e6


class Meter:
    """Times client-visible calls and counts what went wrong.

    An *op* is one call of class ``read``, ``write`` or ``meta``; a
    share cycle and a denial probe are timed in classes of their own.
    A failure is an exception, a content mismatch, or a probe that the
    server allowed.
    """

    OPS = ("read", "write", "meta")
    KINDS = OPS + ("share", "probe")
    STEPS = ("create", "delegate", "attach", "submit", "first_read")

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        # Packed arrays: the runner keeps every round's meter until the
        # run ends, and lists of ints would show in ``peak_rss_mib``.
        self.samples = {k: array("q") for k in self.KINDS}
        #: ``perf_counter_ns`` at the end of every op, in issue order; the
        #: runner brackets them with the round's start and end.
        self.ends = array("q")
        self.steps: dict[str, list[int]] = {k: [] for k in self.STEPS}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.user_bytes = 0

    def percentile_ms(self, q: float, *kinds: str) -> float:
        """Nearest-rank percentile over the given classes (0 if empty)."""
        return percentile_ms(
            (ns for kind in kinds for ns in self.samples[kind]), q)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def op(self, kind: str, fn, *args):
        """Run ``fn(*args)`` as one timed op; None if it raised."""
        self.attempted += 1
        try:
            # Two copies of the timed call: the untraced path is the one
            # the end-to-end numbers come from and carries nothing extra.
            if self.recorder is not None:
                with self.recorder.span("op." + kind):
                    start = perf_counter_ns()
                    result = fn(*args)
                    elapsed = perf_counter_ns() - start
            else:
                start = perf_counter_ns()
                result = fn(*args)
                elapsed = perf_counter_ns() - start
        except Exception as exc:
            self.fail(f"{kind} {getattr(fn, '__name__', fn)}: {exc!r}")
            return None
        self.samples[kind].append(elapsed)
        self.ends.append(start + elapsed)
        return result

    def write(self, client: DisCFSClient, fh, offset: int, data: bytes):
        self.user_bytes += len(data)
        return self.op("write", client.write, fh, offset, data)

    def read_checked(self, client: DisCFSClient, fh, offset: int,
                     expected: bytes, what: str) -> None:
        data = self.op("read", client.read, fh, offset, len(expected))
        if data is not None:
            self.check(data == expected, f"{what}: content mismatch")

    def denied(self, fn, *args) -> None:
        """A probe the server must refuse with NFSERR_ACCES."""
        self.attempted += 1
        start = perf_counter_ns()
        span = self.recorder.span("op.probe") if self.recorder \
            else nullcontext()
        try:
            with span:
                fn(*args)
        except NFSError as exc:
            self.samples["probe"].append(perf_counter_ns() - start)
            self.check(exc.status == NFSStat.NFSERR_ACCES,
                       f"probe refused with {exc.status}, not ACCES")
        except Exception as exc:
            self.fail(f"probe raised {exc!r}")
        else:
            self.fail(f"probe {getattr(fn, '__name__', fn)} was allowed")


class Deployment:
    """One DisCFS server on a store stack, with its administrator."""

    def __init__(self, key_for, spec, num_blocks: int, secure: bool = False,
                 nodes=()) -> None:
        self.secure = secure
        self.nodes = list(nodes)
        self.admin = Administrator(key_for("admin"))
        self.device = open_device(spec, num_blocks=num_blocks)
        self.server = DisCFSServer(
            admin_identity=self.admin.identity,
            device=self.device,
            issuer_key=key_for("issuer"),
            server_key=key_for("server"),
        )
        self.admin.trust_server(self.server)
        self.fs = self.server.fs
        #: False once the durability check has crashed the store stack.
        self.device_open = True
        self.clients: list[DisCFSClient] = []

    def connect(self, key) -> DisCFSClient:
        """A fresh attached connection (IKE first on a secure deployment)."""
        client = DisCFSClient.connect(self.server, key, secure=self.secure)
        if self.secure:
            client.transport.handshake()
        client.attach("/")
        return client

    def resident(self, key, credentials: list[str]) -> DisCFSClient:
        """A connection that lives as long as the deployment."""
        client = self.connect(key)
        client.submit_credentials(credentials)
        self.clients.append(client)
        return client

    def grant_root(self, key, rights: str, subtree: bool) -> str:
        return self.admin.grant_inode(
            identity_of(key), self.fs.iget(self.fs.root_ino), rights=rights,
            scheme=self.server.handle_scheme, subtree=subtree,
        )

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.device_open:
            self.device.close()
        for node in self.nodes:
            node.close()
            node.store.close()


class Workload:
    """Common machinery: keys, the share cycle and the counters."""

    name = ""

    def __init__(self, seed: int, size: dict) -> None:
        self.seed = seed
        self.size = size
        rng = self._rng("bodies")
        self.pool = [rng.randbytes(BLOCK) for _ in range(POOL)]
        self.meter = Meter()
        self.dep: Deployment | None = None
        self.owner: DisCFSClient | None = None
        self.keys: dict[str, object] = {}
        #: name -> body of every file in the root directory that a client
        #: of this deployment created (home files, shared files).
        self.shared: dict[str, bytes] = {}
        #: ms the journal spent replaying in the durability check.
        self.replay_ms = 0.0

    # -- lifecycle ---------------------------------------------------------

    def build(self, workdir: Path) -> None:
        """Set up a fresh deployment under ``workdir``."""
        self.keys = {}
        self.shared = {}
        self._threads_before = set(threading.enumerate())
        self._build(workdir)

    def _build(self, workdir: Path) -> None:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """End-of-run checks (untimed); failures land in the meter."""

    def close(self) -> None:
        if self.dep is None:
            return
        self.dep.close()
        self.dep = None
        # A store node's accept loop notices the close within its 0.2 s
        # poll; until it ends it keeps the node's store alive, and the
        # next deployment's memory would come on top of this one's.
        for thread in set(threading.enumerate()) - self._threads_before:
            thread.join(timeout=2.0)

    def _rng(self, *label) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{label}")

    def key_for(self, label: str):
        """The DSA key a principal of this deployment uses — a function
        of the seed, generated once per build."""
        if label not in self.keys:
            self.keys[label] = make_user_keypair(
                f"discfs-e2e/{self.seed}/{label}".encode())
        return self.keys[label]

    def _share_positions(self, span: int) -> set[int]:
        """Seeded fixed positions (out of ``span`` steps) of a round's
        share cycles."""
        return set(self._rng("shares").sample(range(span),
                                              self.size["shares"]))

    def _owner_and_peers(self) -> None:
        """The owner's resident connection and home files, and the four
        peers' keys.  The owner creates its home files through the
        client, so each one costs the server a creator credential."""
        owner_key = self.key_for("owner")
        self.owner = self.dep.resident(
            owner_key, [self.dep.grant_root(owner_key, "RWX", True)])
        for f in range(self.size["home_files"]):
            name, body = f"home{f:03d}", self.pool[f % POOL][:HALF]
            fh, _cred = self.owner.create(self.owner.root, name)
            self.owner.write(fh, 0, body)
            self.shared[name] = body
        for p in range(4):
            self.key_for(f"peer{p}")

    # -- the share cycle ---------------------------------------------------

    def share_cycle(self, owner: DisCFSClient, peer_key, name: str,
                    body: bytes):
        """Time to first access of a newly shared file.

        Owner creates (the server mints the creator credential) and
        writes; owner delegates read access with its own signature; the
        peer opens a fresh connection and attaches; the peer submits the
        two-credential chain (signatures verified, policy cache
        flushed); the peer looks the file up and reads it back.  The
        write, the lookup and the read also count as ops of their class.
        Returns ``(owner's handle, peer connection, peer's handle)``, or
        None when a step failed.
        """
        meter = self.meter
        meter.attempted += 1
        peer = None
        span = meter.recorder.span("op.share") if meter.recorder \
            else nullcontext()
        try:
            with span:
                t0 = perf_counter_ns()
                fh, credential = owner.create(owner.root, name)
                wrote = meter.write(owner, fh, 0, body)
                t1 = perf_counter_ns()
                grant = owner.delegate(credential, identity_of(peer_key),
                                       rights="R")
                t2 = perf_counter_ns()
                peer = self.dep.connect(peer_key)
                t3 = perf_counter_ns()
                peer.submit_credentials([credential, grant])
                t4 = perf_counter_ns()
                found = meter.op("meta", peer.lookup, peer.root, name)
                data = found and meter.op("read", peer.read, found[0], 0,
                                          len(body))
                t5 = perf_counter_ns()
            if wrote is None or data is None:
                raise RuntimeError("a step of the cycle failed")
        except Exception as exc:
            meter.fail(f"share cycle {name}: {exc!r}")
            if peer is not None:
                peer.close()
            return None
        meter.samples["share"].append(t5 - t0)
        for step, ns in zip(Meter.STEPS, (t1 - t0, t2 - t1, t3 - t2,
                                          t4 - t3, t5 - t4)):
            meter.steps[step].append(ns)
        meter.check(data == body, f"share cycle {name}: first read mismatch")
        self.shared[name] = body
        return fh, peer, found[0]

    def _plain_share(self, serial: int) -> None:
        """The share cycle as the three plain workloads interleave it."""
        result = self.share_cycle(self.owner, self.keys[f"peer{serial % 4}"],
                                  f"s{serial}", self.pool[serial % POOL][:HALF])
        if result is not None:
            result[1].close()

    # -- counters ----------------------------------------------------------

    def stores(self):
        return list(iter_stores(self.dep.device.store))

    def store_bytes_written(self) -> int:
        """Bytes that reached leaf stores and journal logs so far."""
        total = 0
        for store in self.stores():
            if not store.child_stores():
                total += store.stats.bytes_written
            elif store.scheme == "journal":
                total += journal_log_bytes(store)
        return total


def journal_log_bytes(store) -> int:
    """Bytes a ``journal://`` layer has appended to its log.

    Per transaction a DATA record (13-byte head, u32 count, u32 number +
    image per block, u32 crc) and a COMMIT record (13 + 4); a 16-byte
    header per log reset.  ``test_e2e_smoke.py`` holds this against the
    size of a real log.
    """
    stats = store.journal_stats
    return (stats.transactions * 38
            + stats.blocks_journaled * (4 + store.block_size)
            + (stats.checkpoints + 1) * 16)


# ---------------------------------------------------------------------------


class BonnieDurable(Workload):
    """Bonnie's block phases on one file 16x the block cache.

    Sequential output (the file is created by it), rewrite (read, modify,
    write back) and sequential input of one 64 MiB file in 8 KiB ops, a
    getattr every 64 ops, on ``cached(journal(file), capacity=512)``.  One
    principal and one handle, so the policy cache always hits and
    ``ipsec`` is absent: ``nfs`` + ``rpc`` (XDR of 8 KiB payloads) + ``fs``
    + ``storage.journal``/``cached``/``file`` do the work, and it is the
    only workload where the journal's double write shows in
    ``store_bytes_per_user_byte``.

    The deployment runs a syncer: after every ``sync_every`` client
    writes the loop calls ``device.flush()`` on the server side, between
    two timed ops — driven by op count, not by a timer.  The dirty blocks
    then reach the journal as one transaction with one ``fsync``.  The
    program has no syncer of its own; left to the write-back cache every
    dirty block reaches the journal alone, with an ``fsync`` each, and on
    the checkout's disk (where the benchmark driver confines the stores)
    an ``fsync`` costs 0.2-0.6 ms and drifts by half within a minute,
    which drowned every timing of this workload.  That per-eviction path
    is what the durability check at the end exercises.
    """

    name = "bonnie-durable"

    def _build(self, workdir: Path) -> None:
        blocks = self.size["file_blocks"]
        self.cache_blocks = blocks // 16
        self.spec = cached(
            journal(file(str(workdir / "bonnie.img"), blocks=blocks + 2048)),
            capacity=self.cache_blocks,
        )
        self.dep = Deployment(self.key_for, self.spec, blocks + 2048)
        self._owner_and_peers()
        self.fh, _cred = self.owner.create(self.owner.root, "bonnie.dat")
        persist.sync(self.dep.fs)  # the populated volume's first checkpoint
        #: block -> index into the body pool of what the file holds.
        self.model: list[int] = []
        self.writes = 0

    def _write(self, b: int) -> None:
        self.meter.write(self.owner, self.fh, b * BLOCK,
                         self.pool[self.model[b]])
        self.writes += 1
        if self.writes % self.size["sync_every"] == 0:
            self.dep.device.flush()  # the syncer (see the class docstring)

    def round(self) -> None:
        meter, owner, fh = self.meter, self.owner, self.fh
        blocks = self.size["file_blocks"]
        shares = self._share_positions(4 * blocks)
        step = 0
        serial = 0

        def tick() -> None:
            nonlocal step, serial
            step += 1
            if step % 64 == 0:
                meter.op("meta", owner.getattr, fh)
            if step in shares:
                self._plain_share(serial)
                serial += 1

        for b in range(blocks):  # sequential output
            self.model.append((b + self.seed) % POOL)
            self._write(b)
            tick()
        for b in range(blocks):  # rewrite
            meter.read_checked(owner, fh, b * BLOCK, self.pool[self.model[b]],
                               f"rewrite block {b}")
            tick()
            self.model[b] = (self.model[b] + 1) % POOL
            self._write(b)
            tick()
        for b in range(blocks):  # sequential input
            meter.read_checked(owner, fh, b * BLOCK, self.pool[self.model[b]],
                               f"read block {b}")
            tick()
        attr = meter.op("meta", owner.getattr, fh)
        if attr is not None:
            meter.check(attr.size == blocks * BLOCK, "bonnie.dat size")

    def verify(self) -> None:
        """Durability: checkpoint, overwrite a tail, crash, recover.

        After the filesystem checkpoint, 2C blocks are overwritten
        through the client with the syncer off (C = block-cache
        capacity).  The write-back cache has by then evicted the first C
        of them into the journal, a transaction and an ``fsync`` each —
        committed but not checkpointed — and still holds the rest dirty.
        ``abandon()`` drops the journal as a crash would; reopening the
        same spec replays it.  Every file must then read back: the
        evicted blocks with their new content, the dirty ones with old
        or new, everything else as the model says.
        """
        meter, dep = self.meter, self.dep
        cap = self.cache_blocks
        persist.sync(dep.fs)
        old = list(self.model)
        for b in range(2 * cap):
            self.model[b] = (old[b] + 5) % POOL
            self.owner.write(self.fh, b * BLOCK, self.pool[self.model[b]])
        for store in self.stores():
            if hasattr(store, "abandon"):
                store.abandon()
            elif not store.child_stores():
                store.close()  # the descriptor a crash would drop
        dep.device_open = False

        device = open_device(self.spec, num_blocks=dep.device.num_blocks)
        try:
            for store in iter_stores(device.store):
                stats = getattr(store, "journal_stats", None)
                if stats is not None:
                    self.replay_ms = stats.replay_seconds * 1000.0
                    meter.check(stats.replayed_blocks >= cap,
                                "journal replayed fewer blocks than evicted")
            fs = persist.load(device)
            data = fs.read_file("/bonnie.dat")
            meter.attempted += len(self.model)
            meter.check(len(data) == len(self.model) * BLOCK,
                        "recovered bonnie.dat has the wrong size")
            for b, want in enumerate(self.model):
                got = data[b * BLOCK:(b + 1) * BLOCK]
                ok = got == self.pool[want] or (
                    cap <= b < 2 * cap and got == self.pool[old[b]])
                meter.check(ok, f"recovered block {b} is wrong")
            for name, body in self.shared.items():
                meter.attempted += 1
                meter.check(fs.read_file("/" + name) == body,
                            f"recovered {name} is wrong")
        finally:
            device.close()


class PolicySearch(Workload):
    """The source-tree search, by four interleaved principals.

    readdir, lookup, getattr and a whole-file 8 KiB read per file of a
    seeded tree on ``mem://``, line and byte totals checked against the
    manifest.  One principal walking alone hits a 128-entry policy cache
    nine times in ten; four principals stepped round-robin one file at a
    time, holding delegation chains of depth 1-4, push thousands of
    (principal, handle, op) keys through it, so ``core`` + ``keynote``
    become most of the op while ``storage`` and ``ipsec`` do nothing.
    Share cycles flush the cache mid-walk.
    """

    name = "policy-search"

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__(seed, size)
        rng = self._rng("tree")
        #: directory -> [(file name, content)]; every file is 8 KiB.
        self.tree = {
            f"d{d:02d}": [(f"f{f:02d}.c", self._source_text(rng))
                          for f in range(size["files"])]
            for d in range(size["dirs"])
        }
        #: path -> sha256 of every file.
        self.manifest = {f"{dname}/{fname}": hashlib.sha256(content).digest()
                         for dname, entries in self.tree.items()
                         for fname, content in entries}
        self.lines = sum(content.count(b"\n") for entries in self.tree.values()
                         for _fname, content in entries)

    @staticmethod
    def _source_text(rng: random.Random) -> bytes:
        words = ("static", "int", "struct", "proc", "error", "return",
                 "splx(s);", "if", "vp", "!=", "NULL", "{", "}", "for")
        out = bytearray()
        while len(out) < BLOCK:
            out += " ".join(rng.choices(words, k=rng.randint(2, 9))).encode()
            out += b"\n"
        return bytes(out[:BLOCK - 1]) + b"\n"

    def _build(self, workdir: Path) -> None:
        dep = self.dep = Deployment(self.key_for, mem(),
                                    2 * len(self.manifest) + 4096)
        for dname, entries in self.tree.items():
            dep.fs.makedirs(f"/src/{dname}")
            for fname, content in entries:
                dep.fs.write_file(f"/src/{dname}/{fname}", content)
        self._owner_and_peers()
        # Principal k holds a chain of k+1 credentials down from the
        # administrator; each submits its own link.
        self.walkers: list[tuple[DisCFSClient, object]] = []
        keys = [self.key_for(f"walker{k}") for k in range(4)]
        link = dep.grant_root(keys[0], "RX", True)
        for k, key in enumerate(keys):
            if k:
                link = CredentialIssuer(keys[k - 1]).delegate(
                    link, identity_of(key))
            client = dep.resident(key, [link])
            src_fh, _attr = client.walk("/src")
            self.walkers.append((client, src_fh))

    def _walk(self, client: DisCFSClient, src_fh):
        """One principal's search; yields after every file."""
        meter = self.meter
        lines = nbytes = 0
        listing = meter.op("meta", client.readdir, src_fh) or []
        for _ino, dname in listing:
            if dname in (".", ".."):
                continue
            found = meter.op("meta", client.lookup, src_fh, dname)
            if found is None:
                continue
            dir_fh = found[0]
            for _ino, fname in meter.op("meta", client.readdir, dir_fh) or []:
                if fname in (".", ".."):
                    continue
                found = meter.op("meta", client.lookup, dir_fh, fname)
                attr = found and meter.op("meta", client.getattr, found[0])
                data = attr and meter.op("read", client.read, found[0], 0,
                                         attr.size)
                if data is not None:
                    meter.check(hashlib.sha256(data).digest()
                                == self.manifest[f"{dname}/{fname}"],
                                f"{dname}/{fname}: content mismatch")
                    lines += data.count(b"\n")
                    nbytes += len(data)
                yield
        meter.check(lines == self.lines,
                    "search line total differs from the manifest")
        meter.check(nbytes == BLOCK * len(self.manifest),
                    "search byte total differs from the manifest")

    def round(self) -> None:
        shares = self._share_positions(self.size["walks"] * len(self.manifest))
        step = serial = 0
        for _walk in range(self.size["walks"]):
            searches = [self._walk(c, fh) for c, fh in self.walkers]
            for _ in zip_longest(*searches):
                if step in shares:
                    self._plain_share(serial)
                    serial += 1
                step += 1


class SecureShare(Workload):
    """Sharing between users who each sit behind their own IKE/ESP channel.

    Every cycle is a share cycle whose peer opens a *fresh* secure
    connection, followed by two getattrs and four reads by the peer, two
    4 KiB writes by the owner, a write by the read-only peer and a read
    by a credential-less stranger (both must be refused).  The paper's
    headline use: ``ipsec`` + ``crypto`` (stream cipher, DSA) +
    ``keynote`` parse/verify dominate and ``fs``/``storage`` are noise.
    """

    name = "secure-share"

    def _build(self, workdir: Path) -> None:
        dep = self.dep = Deployment(self.key_for, mem(), 16384, secure=True)
        self.users = []
        for u in range(self.size["users"]):
            key = self.key_for(f"user{u}")
            # Rights on the root directory itself, not the subtree: a
            # user can create and look up there, and reaches other
            # users' files only through what they delegate.
            client = dep.resident(key, [dep.grant_root(key, "RWX", False)])
            for f in range(self.size["home_files"]):
                fh, _cred = client.create(client.root, f"u{u}_home{f}")
                client.write(fh, 0, self.pool[(u + f) % POOL][:HALF])
            self.users.append((key, client))
        self.stranger = dep.resident(self.key_for("stranger"), [])

    def round(self) -> None:
        meter = self.meter
        users = self.users
        for cycle in range(self.size["cycles"]):
            _owner_key, owner = users[cycle % len(users)]
            peer_key, _resident = users[(cycle + 1) % len(users)]
            parts = [self.pool[(self.seed + cycle + i) % POOL][:HALF]
                     for i in range(3)]
            name = f"c{cycle}"
            result = self.share_cycle(owner, peer_key, name, parts[0])
            if result is None:
                continue
            fh, peer, peer_fh = result
            meter.op("meta", peer.getattr, peer_fh)
            meter.write(owner, fh, HALF, parts[1])
            meter.write(owner, fh, 2 * HALF, parts[2])
            attr = meter.op("meta", peer.getattr, peer_fh)
            if attr is not None:
                meter.check(attr.size == 3 * HALF, f"{name}: size after writes")
            for part in (0, 1, 2, 0):
                meter.read_checked(peer, peer_fh, part * HALF, parts[part],
                                   f"{name} part {part}")
            meter.denied(peer.write, peer_fh, 0, parts[1])
            meter.denied(self.stranger.read, fh, 0, HALF)
            self.shared[name] = b"".join(parts)
            peer.close()

    def verify(self) -> None:
        """The refused write left every shared file as its owner wrote it."""
        for name, body in self.shared.items():
            self.meter.attempted += 1
            self.meter.check(self.dep.fs.read_file("/" + name) == body,
                             f"{name}: final content is wrong")


class ReplicaRemote(Workload):
    """Random point access on a three-node quorum over loopback TCP.

    Files on ``replica(remote x3, w=2, r=2)``, the nodes being in-process
    ``serve_store(mem://)`` listeners on 127.0.0.1; seeded uniform-random
    8 KiB ops, 50 % read / 40 % write / 10 % meta.  The only workload
    where ``storage.replica`` + ``storage.remote``/``storage.net`` +
    ``rpc`` over TCP dominate, and it touches ``fs``/``storage`` by point
    access where ``bonnie-durable`` streams.  The one client thread is
    the load generator; lanes and node threads belong to the system.
    """

    name = "replica-remote"

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__(seed, size)
        ops = size["ops"]
        rng = self._rng("ops")
        kinds = ["read"] * (ops // 2) + ["write"] * (ops * 2 // 5)
        kinds += ["meta"] * (ops - len(kinds))
        rng.shuffle(kinds)
        #: (kind, file, block, body a write puts there)
        self.schedule = [
            (kind, rng.randrange(size["files"]),
             rng.randrange(size["file_blocks"]), rng.randrange(POOL))
            for kind in kinds
        ]

    def _build(self, workdir: Path) -> None:
        files, per_file = self.size["files"], self.size["file_blocks"]
        blocks = files * per_file + 2048
        nodes = [serve_store(open_store(mem(), num_blocks=blocks), workers=1)
                 for _ in range(3)]
        spec = replica(*(remote(f"127.0.0.1:{n.address[1]}") for n in nodes),
                       w=2, r=2)
        try:
            dep = self.dep = Deployment(self.key_for, spec, blocks, nodes=nodes)
        except Exception:
            for node in nodes:
                node.close()
            raise
        self.store = dep.device.store
        self.model = []
        for f in range(files):
            self.model.append([(f + b) % POOL for b in range(per_file)])
            dep.fs.write_file(f"/file{f:03d}", b"".join(
                self.pool[i] for i in self.model[f]))
        self._owner_and_peers()
        self.handles = [self.owner.lookup(self.owner.root, f"file{f:03d}")[0]
                        for f in range(files)]

    def round(self) -> None:
        meter, owner = self.meter, self.owner
        per_file = self.size["file_blocks"]
        shares = self._share_positions(len(self.schedule))
        serial = 0
        for step, (kind, f, b, body) in enumerate(self.schedule):
            fh = self.handles[f]
            if kind == "read":
                meter.read_checked(owner, fh, b * BLOCK,
                                   self.pool[self.model[f][b]],
                                   f"file{f:03d} block {b}")
            elif kind == "write":
                self.model[f][b] = body
                meter.write(owner, fh, b * BLOCK, self.pool[body])
            else:
                attr = meter.op("meta", owner.getattr, fh)
                if attr is not None:
                    meter.check(attr.size == per_file * BLOCK, "file size")
            if step in shares:
                self._plain_share(serial)
                serial += 1

    def store_bytes_written(self) -> int:
        # The third copy of a w=2 write lands in the background.
        self.store.drain()
        return super().store_bytes_written()

    def verify(self) -> None:
        """Drain the lanes, read everything back, no quorum ever missed."""
        meter = self.meter
        self.store.drain()
        for f, fh in enumerate(self.handles):
            for b, want in enumerate(self.model[f]):
                meter.attempted += 1
                try:
                    data = self.owner.read(fh, b * BLOCK, BLOCK)
                except Exception as exc:
                    meter.fail(f"read-back file{f:03d}/{b}: {exc!r}")
                    continue
                meter.check(data == self.pool[want],
                            f"read-back file{f:03d} block {b} is wrong")
        stats = self.store.replica_stats
        meter.check(stats.degraded_writes == 0 and stats.child_failures == 0,
                    "a replica write fell short of all three nodes")


WORKLOADS = {cls.name: cls for cls in
             (BonnieDurable, PolicySearch, SecureShare, ReplicaRemote)}
