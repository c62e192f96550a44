"""The traced run: which callables get spans, and the per-layer metrics.

:func:`install` puts span wrappers around the public callables of every
layer between ``DisCFSClient`` and the leaf stores; :func:`layer_metrics`
folds one traced round into the numbers named in :data:`PER_LAYER`;
:func:`layer_table` renders the self-time-per-layer table.

A layer's ``self_ms_per_op`` is the self time of all its spans in the
round — share cycles and probes included, time in other threads
included — divided by the number of read/write/meta ops.  Its share in
the table is that self time over the self time of all layers; the
driver's own time (``bench``) is listed but left out of the shares.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from .spans import Recorder, Span, adopt_orphans, fold, roots
from .workloads import journal_log_bytes

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = [
    ("op.p95_ms", "ms", "lower"),
    ("nfs.client.self_ms_per_op", "ms", "lower"),
    ("nfs.server.self_ms_per_op", "ms", "lower"),
    ("nfs.rpcs_per_op", "count", "lower"),
    ("rpc.self_ms_per_op", "ms", "lower"),
    ("rpc.bytes_per_op", "B", "lower"),
    ("rpc.tcp.rtt_p50_ms", "ms", "lower"),
    ("ipsec.self_ms_per_op", "ms", "lower"),
    ("ipsec.bytes_sealed_per_op", "B", "lower"),
    ("ipsec.ike.handshake_ms", "ms", "lower"),
    ("crypto.self_ms_per_op", "ms", "lower"),
    ("crypto.cipher.us_per_kib", "us", "lower"),
    ("crypto.dsa.sign_ms", "ms", "lower"),
    ("crypto.dsa.verify_ms", "ms", "lower"),
    ("crypto.dsa.signs_per_share", "count", "lower"),
    ("crypto.dsa.verifies_per_share", "count", "lower"),
    ("keynote.self_ms_per_op", "ms", "lower"),
    ("keynote.parse_ms", "ms", "lower"),
    ("keynote.query_ms", "ms", "lower"),
    ("keynote.queries_per_op", "count", "lower"),
    ("keynote.session_assertions", "count", "lower"),
    ("core.check.self_ms_per_op", "ms", "lower"),
    ("core.audit.self_ms_per_op", "ms", "lower"),
    ("core.accept_credential_ms", "ms", "lower"),
    ("core.mint_credential_ms", "ms", "lower"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.cache.evictions", "count", "lower"),
    ("core.cache.flushes", "count", "lower"),
    ("share.create_ms", "ms", "lower"),
    ("share.delegate_ms", "ms", "lower"),
    ("share.attach_ms", "ms", "lower"),
    ("share.submit_ms", "ms", "lower"),
    ("share.first_read_ms", "ms", "lower"),
    ("fs.self_ms_per_op", "ms", "lower"),
    ("fs.blockdev.blocks_read_per_op", "count", "lower"),
    ("fs.blockdev.blocks_written_per_op", "count", "lower"),
    ("fs.blockdev.batched_share", "ratio", "higher"),
    ("storage.mem.self_ms_per_op", "ms", "lower"),
    ("storage.cached.self_ms_per_op", "ms", "lower"),
    ("storage.cached.hit_ratio", "ratio", "higher"),
    ("storage.cached.evictions", "count", "lower"),
    ("storage.journal.self_ms_per_op", "ms", "lower"),
    ("storage.journal.fsyncs_per_kwrite", "count", "lower"),
    ("storage.journal.log_bytes_per_user_byte", "ratio", "lower"),
    ("storage.journal.checkpoints", "count", "lower"),
    ("storage.journal.replay_ms", "ms", "lower"),
    ("storage.file.self_ms_per_op", "ms", "lower"),
    ("storage.replica.self_ms_per_op", "ms", "lower"),
    ("storage.replica.background_writes_share", "ratio", "lower"),
    ("storage.replica.read_repairs", "count", "lower"),
    ("storage.replica.degraded_ops", "count", "lower"),
    ("storage.remote.self_ms_per_op", "ms", "lower"),
    ("storage.remote.round_trips_per_op", "count", "lower"),
    ("storage.remote.bytes_per_round_trip", "B", "lower"),
    ("storage.net.self_ms_per_op", "ms", "lower"),
    ("storage.net.queue_wait_p50_ms", "ms", "lower"),
    ("storage.net.service_p50_ms", "ms", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
]

#: Rows of the layer table, in path order.
LAYERS = ("nfs", "rpc", "ipsec", "crypto", "core", "keynote", "fs",
          "storage.cached", "storage.journal", "storage.file", "storage.mem",
          "storage.replica", "storage.remote", "storage.net")

#: Orphan span prefix -> prefix of the spans that may adopt it.  A
#: ``remote://`` write rides the RPC client's executor thread and a
#: store node answers on its connection thread; neither inherits the
#: caller's context.
ADOPTION = {"rpc.tcp.": "storage.remote.", "rpc.server.": "rpc.tcp."}


def install(recorder: Recorder) -> None:
    """Wrap the layers' public callables.  Call before the deployment is
    built: a bound method captured earlier (a transport's handler) would
    bypass the wrapper."""
    from repro.core.audit import AuditLog
    from repro.core.cache import PolicyCache
    from repro.core.credentials import CredentialIssuer
    from repro.core.server import DisCFSController, DisCFSServer
    from repro.crypto.cipher import StreamCipher
    from repro.crypto.dsa import DSAKeyPair, DSAPublicKey
    from repro.crypto.hashes import hmac_digest
    from repro.fs.ffs import FFS
    from repro.fs.vfs import VFS
    from repro.ipsec.channel import SecureChannelServer, SecureTransport
    from repro.keynote.parser import parse_assertion
    from repro.keynote.session import KeyNoteSession
    from repro.keynote.signing import sign_assertion, verify_assertion
    from repro.nfs.client import NFSClient
    from repro.nfs.mount import MountClient
    from repro.rpc.client import RPCClient
    from repro.rpc.server import RPCProgram, RPCServer
    from repro.rpc.transport import InProcessTransport, TCPTransport
    from repro.storage.adapter import StoreBlockDevice
    from repro.storage.base import BlockStore

    patch = recorder.patch

    def wire_bytes(args, result):
        return len(args[1]) + len(result)

    def batch_len(args, _result):
        return len(args[1])

    for method in ("getattr", "setattr", "lookup", "read", "write", "create",
                   "mkdir", "remove", "readdir", "submit_credential"):
        patch(NFSClient, method, f"nfs.client.{method}")
    patch(MountClient, "mount", "nfs.client.mount")
    patch(RPCProgram, "dispatch", lambda program: (
        "storage.net.dispatch" if program.name == "blockstore"
        else "nfs.server.dispatch"))

    patch(RPCClient, "call", "rpc.client.call")
    patch(RPCClient, "call_async", "rpc.client.call_async")
    patch(InProcessTransport, "call", "rpc.inproc.call", wire_bytes)
    patch(TCPTransport, "call", "rpc.tcp.call", wire_bytes)
    patch(RPCServer, "handle", "rpc.server.handle", wire_bytes)

    patch(SecureTransport, "call", "ipsec.client.call")
    patch(SecureTransport, "handshake", "ipsec.ike.handshake")
    patch(SecureChannelServer, "handle", "ipsec.server.handle")

    patch(StreamCipher, "process", "crypto.cipher.process", batch_len)
    patch(DSAKeyPair, "sign", "crypto.dsa.sign")
    patch(DSAPublicKey, "verify", "crypto.dsa.verify")
    recorder.patch_function(hmac_digest, "crypto.hmac")

    for method in ("check", "check_lookup", "effective_mode", "on_create"):
        patch(DisCFSController, method, f"core.controller.{method}")
    for method in ("rights_for", "accept_credential",
                   "mint_creator_credential"):
        patch(DisCFSServer, method, f"core.server.{method}")
    for method in ("get", "put", "flush"):
        patch(PolicyCache, method, f"core.cache.{method}")
    patch(AuditLog, "record", "core.audit.record")
    for method in ("grant", "delegate"):
        patch(CredentialIssuer, method, f"core.credentials.{method}")

    patch(KeyNoteSession, "query_with_trace", "keynote.session.query")
    patch(KeyNoteSession, "add_credential", "keynote.session.add_credential")
    recorder.patch_function(parse_assertion, "keynote.parse_assertion")
    recorder.patch_function(sign_assertion, "keynote.sign_assertion")
    recorder.patch_function(verify_assertion, "keynote.verify_assertion")

    for method in ("getattr", "setattr", "lookup", "readdir", "create",
                   "mkdir", "remove", "read", "write", "truncate"):
        patch(VFS, method, f"fs.vfs.{method}")
    for method in ("lookup", "readdir", "create", "read", "write"):
        patch(FFS, method, f"fs.ffs.{method}")
    patch(StoreBlockDevice, "read_blocks", "fs.blockdev.read_blocks",
          batch_len)
    patch(StoreBlockDevice, "write_blocks", "fs.blockdev.write_blocks",
          batch_len)
    for method in ("read_block", "write_block", "flush"):
        patch(StoreBlockDevice, method, f"fs.blockdev.{method}")

    for method in ("read", "write", "read_many", "write_many"):
        patch(BlockStore, method,
              lambda store, m=method: f"storage.{store.scheme}.{m}")
    pending = [BlockStore]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "flush" in vars(cls):
            patch(cls, "flush", lambda store: f"storage.{store.scheme}.flush")


def counters(workload) -> dict[str, float]:
    """The program's own cumulative counters, flat; absent layers read 0."""
    dep = workload.dep
    out: dict[str, float] = defaultdict(float)
    cache = dep.server.cache.stats
    out.update({
        "core.cache.hits": cache.hits, "core.cache.misses": cache.misses,
        "core.cache.evictions": cache.evictions,
        "core.cache.flushes": cache.flushes,
        "fs.blockdev.reads": dep.device.stats.reads,
        "fs.blockdev.writes": dep.device.stats.writes,
    })
    for store in workload.stores():
        for key, value in store.snapshot().extra.items():
            if not key.startswith("lat:"):
                out[f"{store.scheme}.{key}"] += value
        if store.scheme == "journal":
            out["journal.log_bytes"] += journal_log_bytes(store)
    return out


def counters_delta(before: dict[str, float], after: dict[str, float],
                   workload) -> dict[str, float]:
    delta: dict[str, float] = defaultdict(float)
    for key, value in after.items():
        delta[key] = value - before.get(key, 0)
    session = workload.dep.server.session
    delta["keynote.assertions"] = len(session.credentials) \
        + len(session.policies)
    return delta


class RoundTrace:
    """What a traced round leaves behind: its spans, and what the
    program's own counters moved by while it ran."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.spans: list[Span] = []
        self.delta: dict[str, float] = {}

    def begin(self, workload) -> None:
        self.recorder.clear()  # the build's spans
        self._before = counters(workload)

    def end(self, workload) -> None:
        self.delta = counters_delta(self._before, counters(workload),
                                    workload)
        self.spans = self.recorder.spans()


def layer_of(name: str) -> str:
    head, _, rest = name.partition(".")
    if head in ("op", "share"):
        return "bench"
    if head == "storage":
        return "storage." + rest.partition(".")[0]
    return head


class Folded:
    """One traced round, folded: self times by span name and by layer."""

    def __init__(self, spans: list[Span]) -> None:
        adopt_orphans(spans, ADOPTION)
        by_id = {s.id: s for s in spans}
        # A store node's RPC server is the same class as the NFS
        # server's; tell them apart by what they dispatched to.
        for span in spans:
            if span.name == "storage.net.dispatch" and span.parent is not None:
                by_id[span.parent].name = "storage.net.handle"
        self.spans = spans
        self.by_id = by_id
        self.self_ns = fold(spans)
        self.top = roots(spans)
        self.by_name: dict[str, list[Span]] = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)
        self.ops = sum(len(self.by_name.get(f"op.{kind}", ()))
                       for kind in ("read", "write", "meta"))
        self.shares = len(self.by_name.get("op.share", ()))
        self.layer_ns: dict[str, int] = {}
        for span in spans:
            layer = layer_of(span.name)
            self.layer_ns[layer] = self.layer_ns.get(layer, 0) \
                + self.self_ns[span.id]

    def named(self, *prefixes: str) -> list[Span]:
        return [s for name, group in self.by_name.items()
                if name.startswith(prefixes) for s in group]

    def self_ms_per_op(self, *prefixes: str) -> float:
        total = sum(self.self_ns[s.id] for s in self.named(*prefixes))
        return total / 1e6 / max(self.ops, 1)

    def mean_ms(self, name: str) -> float:
        group = self.by_name.get(name, ())
        return sum(s.duration for s in group) / 1e6 / len(group) \
            if group else 0.0

    def per_share(self, name: str) -> float:
        inside = sum(1 for s in self.by_name.get(name, ())
                     if self.top[s.id].name == "op.share")
        return inside / max(self.shares, 1)


def _p50_ms(durations: list[int]) -> float:
    return median(durations) / 1e6 if durations else 0.0


def layer_metrics(folded: Folded, delta: dict[str, float], meter,
                  replay_ms: float, overhead_pct: float) -> dict[str, float]:
    """Values of :data:`PER_LAYER` for one traced round.

    ``delta`` is what the program's own counters moved by during the
    round (:func:`counters_delta`); ``meter`` is the round's meter.
    """
    f = folded
    ops = max(f.ops, 1)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def step_ms(step: str) -> float:
        return _p50_ms(meter.steps[step])

    inproc = f.by_name.get("rpc.inproc.call", [])
    sealed = [s for s in inproc if s.parent is not None
              and f.by_id[s.parent].name == "ipsec.client.call"]
    nfs_handles = f.by_name.get("rpc.server.handle", [])
    tcp = f.by_name.get("rpc.tcp.call", [])
    cipher = f.by_name.get("crypto.cipher.process", [])
    node_handles = f.by_name.get("storage.net.handle", [])
    moved = f.named("fs.blockdev.read_blocks", "fs.blockdev.write_blocks")
    single = len(f.by_name.get("fs.blockdev.read_block", ())) \
        + len(f.by_name.get("fs.blockdev.write_block", ()))
    batched = sum(s.value for s in moved if s.value > 1)
    blocks_moved = sum(s.value for s in moved) + single
    replica_writes = len(f.named("storage.replica.write"))

    values = {
        "op.p95_ms": meter.percentile_ms(0.95, *meter.OPS),
        "nfs.client.self_ms_per_op": f.self_ms_per_op("nfs.client."),
        "nfs.server.self_ms_per_op": f.self_ms_per_op("nfs.server."),
        "nfs.rpcs_per_op": len(f.by_name.get("nfs.server.dispatch", ())) / ops,
        "rpc.self_ms_per_op": f.self_ms_per_op("rpc."),
        "rpc.bytes_per_op": sum(s.value for s in nfs_handles) / ops,
        "rpc.tcp.rtt_p50_ms": _p50_ms([s.duration for s in tcp]),
        "ipsec.self_ms_per_op": f.self_ms_per_op("ipsec."),
        "ipsec.bytes_sealed_per_op": sum(s.value for s in sealed) / ops,
        "ipsec.ike.handshake_ms": f.mean_ms("ipsec.ike.handshake"),
        "crypto.self_ms_per_op": f.self_ms_per_op("crypto."),
        "crypto.cipher.us_per_kib": ratio(
            sum(s.duration for s in cipher) / 1e3,
            sum(s.value for s in cipher) / 1024),
        "crypto.dsa.sign_ms": f.mean_ms("crypto.dsa.sign"),
        "crypto.dsa.verify_ms": f.mean_ms("crypto.dsa.verify"),
        "crypto.dsa.signs_per_share": f.per_share("crypto.dsa.sign"),
        "crypto.dsa.verifies_per_share": f.per_share("crypto.dsa.verify"),
        "keynote.self_ms_per_op": f.self_ms_per_op("keynote."),
        "keynote.parse_ms": f.mean_ms("keynote.parse_assertion"),
        "keynote.query_ms": f.mean_ms("keynote.session.query"),
        "keynote.queries_per_op":
            len(f.by_name.get("keynote.session.query", ())) / ops,
        "keynote.session_assertions": delta["keynote.assertions"],
        "core.check.self_ms_per_op": f.self_ms_per_op(
            "core.controller.", "core.server.rights_for", "core.cache."),
        "core.audit.self_ms_per_op": f.self_ms_per_op("core.audit."),
        "core.accept_credential_ms":
            f.mean_ms("core.server.accept_credential"),
        "core.mint_credential_ms":
            f.mean_ms("core.server.mint_creator_credential"),
        "core.cache.hit_ratio": ratio(
            delta["core.cache.hits"],
            delta["core.cache.hits"] + delta["core.cache.misses"]),
        "core.cache.evictions": delta["core.cache.evictions"],
        "core.cache.flushes": delta["core.cache.flushes"],
        "share.create_ms": step_ms("create"),
        "share.delegate_ms": step_ms("delegate"),
        "share.attach_ms": step_ms("attach"),
        "share.submit_ms": step_ms("submit"),
        "share.first_read_ms": step_ms("first_read"),
        "fs.self_ms_per_op": f.self_ms_per_op("fs."),
        "fs.blockdev.blocks_read_per_op": delta["fs.blockdev.reads"] / ops,
        "fs.blockdev.blocks_written_per_op": delta["fs.blockdev.writes"] / ops,
        "fs.blockdev.batched_share": ratio(batched, blocks_moved),
        "storage.mem.self_ms_per_op": f.self_ms_per_op("storage.mem."),
        "storage.cached.self_ms_per_op": f.self_ms_per_op("storage.cached."),
        "storage.cached.hit_ratio": ratio(
            delta["cached.hits"], delta["cached.hits"] + delta["cached.misses"]),
        "storage.cached.evictions": delta["cached.evictions"],
        "storage.journal.self_ms_per_op": f.self_ms_per_op("storage.journal."),
        "storage.journal.fsyncs_per_kwrite": ratio(
            1000 * delta["journal.journal_fsyncs"], len(meter.samples["write"])),
        "storage.journal.log_bytes_per_user_byte": ratio(
            delta["journal.log_bytes"], meter.user_bytes),
        "storage.journal.checkpoints": delta["journal.checkpoints"],
        "storage.journal.replay_ms": replay_ms,
        "storage.file.self_ms_per_op": f.self_ms_per_op("storage.file."),
        "storage.replica.self_ms_per_op": f.self_ms_per_op("storage.replica."),
        "storage.replica.background_writes_share": ratio(
            delta["replica.background_writes"], 3 * replica_writes),
        "storage.replica.read_repairs": delta["replica.repaired_blocks"],
        "storage.replica.degraded_ops": (
            delta["replica.degraded_writes"] + delta["replica.degraded_reads"]
            + delta["replica.child_failures"]),
        "storage.remote.self_ms_per_op": f.self_ms_per_op("storage.remote."),
        "storage.remote.round_trips_per_op": len(tcp) / ops,
        "storage.remote.bytes_per_round_trip": ratio(
            sum(s.value for s in tcp), len(tcp)),
        "storage.net.self_ms_per_op": f.self_ms_per_op("storage.net."),
        # From the client's send to the node's handler: wire, accept
        # loop and worker-pool queue together.
        "storage.net.queue_wait_p50_ms": _p50_ms(
            [s.start - f.by_id[s.parent].start for s in node_handles
             if s.parent is not None]),
        "storage.net.service_p50_ms": _p50_ms(
            [s.duration for s in node_handles]),
        "obs.trace_overhead_pct": overhead_pct,
    }
    return values


def layer_table(folded: Folded) -> str:
    """self_ms_per_op and share of layer time per layer, top two named."""
    ops = max(folded.ops, 1)
    rows = [(layer, folded.layer_ns.get(layer, 0)) for layer in LAYERS]
    total = sum(ns for _layer, ns in rows) or 1
    lines = [f"{'layer':<18}{'self_ms_per_op':>16}{'share':>9}"]
    for layer, ns in rows:
        lines.append(f"{layer:<18}{ns / 1e6 / ops:>16.4f}{ns / total:>9.1%}")
    lines.append(f"{'(bench driver)':<18}"
                 f"{folded.layer_ns.get('bench', 0) / 1e6 / ops:>16.4f}")
    first, second = sorted(rows, key=lambda row: -row[1])[:2]
    lines.append(
        f"top two: {first[0]} ({first[1] / total:.1%}), "
        f"{second[0]} ({second[1] / total:.1%}) of "
        f"{total / 1e6 / ops:.4f} ms layer time per op"
    )
    return "\n".join(lines)
