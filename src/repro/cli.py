"""The discfs command-line tool: the workflows the paper describes
operationally -- key management, credential issuance, delegation and
inspection (the "send it via email" artifacts), running a server, and
client file operations over the secure channel.

Each subcommand is one :class:`Command` row, declared by :func:`command`
on its handler: name, help, ``add_argument`` specs and a ``client`` flag.
The parser, the command list ``discfs --help`` prints and :func:`main`'s
dispatch are derived from :data:`COMMANDS`.  A client row also takes
:data:`CLIENT_ARGS`, and :func:`main` hands its handler the connected
:class:`DisCFSClient` and closes it after.  Malformed values are usage
errors (exit 2) through each argument's ``type=``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.admin import Administrator
from repro.core.client import DisCFSClient
from repro.core.credentials import CredentialIssuer, extract_grant
from repro.core.server import DisCFSServer
from repro.crypto.dsa import generate_dsa_keypair
from repro.crypto.keycodec import decode_key, encode_private_key, encode_public_key
from repro.crypto.numbers import seeded_random_bits
from repro.crypto.rsa import generate_rsa_keypair
from repro.errors import ReproError
from repro.ipsec.channel import SecureTransport
from repro.ipsec.ike import IKEInitiator
from repro.keynote.parser import parse_assertion
from repro.keynote.signing import verify_assertion
from repro.rpc.transport import TCPTransport, serve_tcp


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write(path: str, text: str, secret: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    if secret:
        os.chmod(path, 0o600)


def _principal_arg(value: str) -> str:
    """A principal given inline, or the path of a file holding one."""
    return _read(value).strip() if os.path.exists(value) else value


def _load_keypair(path: str):
    key = decode_key(_read(path).strip())
    if not hasattr(key, "sign"):
        raise ReproError(f"{path} holds a public key; a private key is needed")
    return key


#: One ``add_argument`` call as data: ``(flags, options)``.
Arg = tuple[tuple[str, ...], dict[str, Any]]


def arg(*flags: str, **options: Any) -> Arg:
    return flags, options


@dataclass(frozen=True)
class Command:
    """One ``discfs`` subcommand.  ``run(args)`` returns the exit code; a
    ``client`` row's ``run(client, args)`` gets the connected client."""

    name: str
    help: str
    run: Callable[..., int]
    args: tuple[Arg, ...]
    client: bool


#: Every subcommand, in declaration (and ``discfs --help``) order.
COMMANDS: list[Command] = []


def command(name: str, help: str, *args: Arg, client: bool = False):
    """Declare the decorated handler as the subcommand ``name``."""

    def declare(run: Callable[..., int]) -> Callable[..., int]:
        COMMANDS.append(Command(name, help, run, args, client))
        return run

    return declare


def _hours(spec: str) -> tuple[int, int]:
    """``--hours START-END``: the daily window a credential is valid in."""
    start, _, end = spec.partition("-")
    if not (start.isdecimal() and end.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected START-END, not {spec!r}")
    return int(start), int(end)


def _host_port(spec: str) -> tuple[str, int]:
    host, _, port = spec.partition(":")
    if not (port.isdecimal() and 0 < int(port) < 65536):
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, not {spec!r}")
    return host, int(port)


def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"expected a positive integer, not {text!r}")
    return int(text)


#: What every client row takes before its own arguments.
CLIENT_ARGS: tuple[Arg, ...] = (
    arg("--server", required=True, metavar="HOST:PORT", type=_host_port),
    arg("--key", required=True, help="private key file"),
    arg("--attach", default="/", help="remote path to mount"),
    arg("--credential", action="append", metavar="FILE",
        help="credential file to submit (repeatable)"),
)


# ---------------------------------------------------------------------------
# Key management
# ---------------------------------------------------------------------------


@command("keygen", "generate a keypair",
         arg("--out", required=True),
         arg("--algorithm", choices=("dsa", "rsa"), default="dsa"),
         arg("--bits", type=int, default=1024, help="RSA modulus bits"),
         arg("--seed", help="deterministic seed (tests/demos only)"))
def cmd_keygen(args) -> int:
    rand = seeded_random_bits(args.seed.encode()) if args.seed else None
    if args.algorithm == "dsa":
        key = generate_dsa_keypair(rand=rand) if rand else generate_dsa_keypair()
    else:
        key = (generate_rsa_keypair(args.bits, rand=rand) if rand
               else generate_rsa_keypair(args.bits))
    _write(args.out, encode_private_key(key) + "\n", secret=True)
    print(f"wrote {args.algorithm.upper()} private key to {args.out}")
    print(f"identity: {encode_public_key(key)[:48]}...")
    return 0


@command("identity", "print a key file's principal",
         arg("--key", required=True))
def cmd_identity(args) -> int:
    key = decode_key(_read(args.key).strip())
    public = getattr(key, "public", key)
    print(encode_public_key(public))
    return 0


# ---------------------------------------------------------------------------
# Credentials
# ---------------------------------------------------------------------------


@command("issue", "issue a credential",
         arg("--key", required=True, help="issuer private key file"),
         arg("--licensee", required=True,
             help="principal id or file containing one"),
         arg("--handle", required=True),
         arg("--rights", default="RWX"),
         arg("--comment", default=""),
         arg("--subtree", action="store_true"),
         arg("--expires-at", type=int, default=None),
         arg("--hours", type=_hours, help="e.g. 9-17"),
         arg("--out"))
def cmd_issue(args) -> int:
    issuer = CredentialIssuer(_load_keypair(args.key))
    text = issuer.grant(
        _principal_arg(args.licensee), handle=args.handle,
        rights=args.rights, comment=args.comment, subtree=args.subtree,
        expires_at=args.expires_at, hours=args.hours,
    )
    _emit_credential(text, args.out)
    return 0


@command("delegate", "re-grant a credential",
         arg("--key", required=True, help="delegator private key file"),
         arg("--credential", required=True, help="original credential"),
         arg("--licensee", required=True),
         arg("--rights", default=None),
         arg("--comment", default=""),
         arg("--expires-at", type=int, default=None),
         arg("--out"))
def cmd_delegate(args) -> int:
    issuer = CredentialIssuer(_load_keypair(args.key))
    licensee = _principal_arg(args.licensee)
    text = issuer.delegate(
        _read(args.credential), licensee, rights=args.rights,
        comment=args.comment, expires_at=args.expires_at,
    )
    _emit_credential(text, args.out)
    return 0


def _emit_credential(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
        print(f"credential written to {out}")
    else:
        sys.stdout.write(text)


@command("inspect", "pretty-print a credential",
         arg("--credential", required=True))
def cmd_inspect(args) -> int:
    assertion = parse_assertion(_read(args.credential))
    print(f"authorizer : {assertion.authorizer[:64]}...")
    for principal in sorted(assertion.licensee_principals()):
        print(f"licensee   : {principal[:64]}...")
    try:
        handle, rights, subtree = extract_grant(assertion)
        print(f"handle     : {handle}{'  (subtree)' if subtree else ''}")
        print(f"rights     : {rights.value} (octal {rights.octal})")
    except ReproError:
        print("handle     : (no HANDLE condition — not a file credential)")
    if assertion.comment:
        print(f"comment    : {assertion.comment}")
    print(f"signed     : {'yes' if assertion.is_signed else 'no'}")
    return 0


@command("verify", "verify a credential signature",
         arg("--credential", required=True))
def cmd_verify(args) -> int:
    assertion = parse_assertion(_read(args.credential))
    try:
        verify_assertion(assertion)
    except ReproError as exc:
        print(f"INVALID: {exc}")
        return 1
    print("signature OK")
    return 0


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


def _wait_for_stop() -> Callable[[], None]:
    """Install a SIGTERM handler now and return the wait for it (or for
    Ctrl-C).  Servers call this before announcing readiness: a manager
    that stops them at once must still get a clean shutdown."""
    stop = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda _signum, _frame: stop.set())
    except ValueError:  # pragma: no cover - off the main thread
        pass

    def wait() -> None:
        try:
            stop.wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass

    return wait


def _import_host_tree(server: DisCFSServer, host_dir: str) -> int:
    """Copy a host directory tree into the server's filesystem."""
    imported = 0
    host_dir = os.path.abspath(host_dir)
    for dirpath, _dirnames, filenames in os.walk(host_dir):
        rel = os.path.relpath(dirpath, host_dir)
        base = "" if rel == "." else "/" + rel.replace(os.sep, "/")
        if base:
            server.fs.makedirs(base)
        for filename in filenames:
            with open(os.path.join(dirpath, filename), "rb") as f:
                server.fs.write_file(f"{base}/{filename}", f.read())
            imported += 1
    return imported


@command("serve", "run a DisCFS server",
         arg("--admin-identity", required=True,
             help="administrator principal (or file containing it)"),
         arg("--trust-key",
             help="admin private key file: auto-install server trust"),
         arg("--import-dir", help="host directory to import"),
         arg("--host", default="127.0.0.1"),
         arg("--port", type=int, default=0),
         arg("--cache", type=int, default=128),
         arg("--backend", default="mem://", metavar="URI",
             help="storage backend URI: mem://, file://PATH, cached://URI, "
                  "remote://HOST:PORT, replica://N, journal://URI "
                  "(default mem://; see `discfs backends`)"),
         arg("--oneshot", action="store_true", help=argparse.SUPPRESS))
def cmd_serve(args) -> int:
    from repro.fs import persist
    from repro.fs.ffs import FFS
    from repro.storage import open_device

    admin_identity = _principal_arg(args.admin_identity)
    # Restore a previous checkpoint when the backend holds one (what makes
    # `--backend file:///var/lib/discfs.img` survive restarts); otherwise
    # build a fresh filesystem on the backend.
    device = open_device(args.backend)
    try:
        fs = persist.load(device)
        print(f"restored filesystem checkpoint from {args.backend}")
    except ReproError:
        fs = FFS(device)
    server = DisCFSServer(admin_identity=admin_identity,
                          cache_capacity=args.cache,
                          fs=fs)
    if args.trust_key:
        # Convenience for single-host demos: holding the admin's private
        # key lets the CLI install the server-issuer delegation directly.
        Administrator(_load_keypair(args.trust_key)).trust_server(server)
    if args.import_dir:
        n = _import_host_tree(server, args.import_dir)
        print(f"imported {n} files from {args.import_dir}")
    tcp = serve_tcp(server.secure_channel().handle,
                    host=args.host, port=args.port)
    host, port = tcp.address

    def checkpoint() -> None:
        persist.sync(server.fs)
        server.fs.device.flush()

    # Checkpoint on SIGTERM (process managers, `docker stop`) as well as
    # Ctrl-C, so durable backends keep their state however the server is
    # shut down.
    wait_for_stop = None if args.oneshot else _wait_for_stop()
    print(f"DisCFS serving on {host}:{port} "
          f"(issuer identity {server.issuer_identity[:40]}..., "
          f"backend {args.backend})")
    if wait_for_stop is not None:  # --oneshot (the tests) exits at once
        wait_for_stop()
    checkpoint()
    tcp.close()
    return 0


#: ``store-serve`` bind addresses that never leave the machine — anything
#: else is reachable by peers and demands --policy (or an explicit
#: --insecure acknowledgement).
_LOOPBACK_HOSTS = ("127.0.0.1", "localhost", "::1")


@command("store-serve", "export a storage backend over RPC (remote://)",
         arg("--backend", default="mem://", metavar="URI",
             help="backend URI to serve (default mem://)"),
         arg("--host", default="127.0.0.1"),
         arg("--port", type=int, default=0),
         arg("--blocks", type=_positive_int, default=None,
             help="store size in blocks (default: registry default)"),
         arg("--bs", type=_positive_int, default=None,
             help="block size in bytes (default 8192)"),
         arg("--workers", type=int, default=4,
             help="threads per node for a pipelined backlog: "
                  "pipelined clients (remote://...?workers=N) overlap "
                  "calls on one connection; 0 = answer each "
                  "connection's requests in turn (default 4)"),
         arg("--policy", metavar="FILE",
             help="KeyNote policy file: require an authenticated "
                  "SESSION_OPEN (clients mount with "
                  "remote://...#cred=FILE&key=FILE) and authorize "
                  "every call against the session's rights"),
         arg("--tenant-quota", action="append", metavar="SPEC",
             help="carve a private tenant region on the served "
                  "store: NAME=BLOCKS[:BYTES[:RATE]] (repeatable; "
                  "needs --policy)"),
         arg("--audit-log", metavar="FILE",
             help="append one JSON line per auth decision "
                  "(needs --policy)"),
         arg("--insecure", action="store_true",
             help="serve a non-loopback address WITHOUT --policy "
                  "(anyone reaching the port gets full read/write)"),
         arg("--metrics-port", type=int, default=None, metavar="PORT",
             help="also serve /metrics (Prometheus text), "
                  "/metrics.json and /trace.json over HTTP on this "
                  "port (0 = ephemeral; announced on a second line)"),
         arg("--trace-log", metavar="FILE",
             help="append one JSON line per recorded span "
                  "(feed the files to: discfs store-trace)"),
         arg("--oneshot", action="store_true", help=argparse.SUPPRESS))
def cmd_store_serve(args) -> int:
    """Serve one storage backend over RPC (the ``remote://`` server side)."""
    from repro.storage import DEFAULT_NUM_BLOCKS, open_store
    from repro.storage.base import DEFAULT_BLOCK_SIZE
    from repro.core.audit import AuditLog
    from repro.storage.auth import StoreAuthGate, TenantQuota
    from repro.storage.net import serve_store

    if (args.host not in _LOOPBACK_HOSTS and not args.policy
            and not args.insecure):
        print(
            f"store-serve: refusing to bind {args.host} without --policy.\n"
            f"An open block store on a non-loopback address gives every "
            f"peer that can\nreach the port full read/write on the backend. "
            f"Either gate it:\n"
            f"    discfs store-serve --host {args.host} --policy "
            f"POLICY_FILE ...\n"
            f"or accept the exposure explicitly with --insecure.",
            file=sys.stderr,
        )
        return 2

    gate = None
    if args.policy:
        audit = AuditLog(path=args.audit_log) if args.audit_log else None
        gate = StoreAuthGate(
            _read(args.policy),
            tenants=[TenantQuota.parse(q) for q in args.tenant_quota or []],
            audit=audit,
        )
    elif args.tenant_quota:
        raise ReproError("--tenant-quota needs --policy: tenants only exist "
                         "inside an authenticated session")
    elif args.audit_log:
        raise ReproError("--audit-log needs --policy: an open server makes "
                         "no auth decisions to log")

    if args.trace_log:
        from repro.obs import configure_tracing

        configure_tracing(log_path=args.trace_log)

    store = open_store(
        args.backend,
        num_blocks=args.blocks if args.blocks else DEFAULT_NUM_BLOCKS,
        block_size=args.bs if args.bs else DEFAULT_BLOCK_SIZE,
    )
    server = serve_store(store, host=args.host, port=args.port,
                         workers=args.workers, gate=gate)
    host, port = server.address

    metrics_server = None
    if args.metrics_port is not None:
        from repro.obs.exposition import serve_metrics

        metrics_server = serve_metrics(host=args.host,
                                       port=args.metrics_port)

    wait_for_stop = None if args.oneshot else _wait_for_stop()
    # The announce line is machine-readable: the integration tests (and a
    # two-terminal walkthrough) parse host:port out of it.
    auth = (f"keynote, {len(gate.tenants)} tenant(s)" if gate is not None
            else "open")
    print(f"block store serving on {host}:{port} "
          f"(backend {args.backend}, "
          f"{store.num_blocks}x{store.block_size}B, auth {auth})", flush=True)
    if metrics_server is not None:
        # A second machine-readable line, deliberately separate so the
        # announce-line parsers above keep working unchanged.
        mhost, mport = metrics_server.address
        print(f"metrics serving on {mhost}:{mport} "
              f"(/metrics /metrics.json /trace.json)", flush=True)
    if wait_for_stop is not None:  # --oneshot (the tests) exits at once
        wait_for_stop()
    if metrics_server is not None:
        metrics_server.close()
    server.close()
    store.close()
    return 0


@command("store-issue",
         "issue a storage-plane credential (tenant + r/rw/admin rights)",
         arg("--key", required=True, help="issuer private key file"),
         arg("--licensee", required=True,
             help="principal id or file containing one"),
         arg("--tenant", default="",
             help="tenant the grant is scoped to (empty: whole store)"),
         arg("--rights", default="rw", choices=("r", "rw", "admin")),
         arg("--comment", default=""),
         arg("--expires-at", type=int, default=None,
             help="unix time after which the credential is dead"),
         arg("--out"))
def cmd_store_issue(args) -> int:
    """Issue a KeyNote credential for the *storage* plane: the artifact a
    client presents at SESSION_OPEN (``remote://...#cred=FILE``)."""
    from repro.storage.auth import issue_store_credential

    text = issue_store_credential(
        _load_keypair(args.key), _principal_arg(args.licensee), args.tenant,
        rights=args.rights, expires_at=args.expires_at, comment=args.comment,
    )
    _emit_credential(text, args.out)
    return 0


@command("store-inspect",
         "print a backend's live topology (capabilities + stats per layer)",
         arg("backend", metavar="URI", help="backend URI to mount and inspect"),
         arg("--json", action="store_true",
             help="emit the topology tree as JSON"),
         arg("--parse", action="store_true",
             help="validate and canonicalize the URI without "
                  "mounting anything"),
         arg("--exercise", action="store_true",
             help="read block 0 twice first so the stats are "
                  "non-zero (demos; never writes)"))
def cmd_store_inspect(args) -> int:
    """Mount a backend and print the live topology (the control plane's
    ``describe`` tree: per-layer capabilities + stats snapshots)."""
    import json as _json

    from repro.storage import describe, open_store, parse_spec

    spec = parse_spec(args.backend)
    if args.parse:
        print(f"spec ok: {spec.to_uri()}")
        return 0
    store = open_store(spec)
    try:
        if args.exercise:
            # Two reads of block 0 so counters (and a cache hit) show up
            # in demos.  Reads only: inspection must NEVER mutate the
            # backend — block 0 of a real image is the superblock.
            store.read(0)
            store.read(0)
        tree = describe(store)
        if args.json:
            print(_json.dumps(tree.to_dict(), indent=2))
        else:
            print(f"backend: {spec.to_uri()}")
            print(tree.render())
            tenants, latencies, auth_denied = _regroup(tree)
            _print_table(("tenant", "region", "used", "reads", "writes",
                          "bytes-w", "limits", "denied"),
                         [_tenant_row(name, fields)
                          for name, fields in sorted(tenants.items())])
            _print_table(("layer", "op", "count", "p50(ms)", "p95(ms)",
                          "p99(ms)"),
                         [(*layer_op, str(int(fields.get("count", 0))),
                           *(f"{fields.get(q, 0.0):.3f}"
                             for q in ("p50", "p95", "p99")))
                          for layer_op, fields in sorted(latencies.items())])
            if auth_denied:
                print(f"auth: {int(auth_denied)} request(s) denied")
    finally:
        store.close()
    return 0


def _regroup(tree) -> tuple[dict[str, dict[str, float]],
                           dict[tuple[str, ...], dict[str, float]], float]:
    """Regroup every node's flat ``tenant:<name>:<field>`` and
    ``lat:<layer>:<op>:<field>`` stats extras (a gated server's STATS fold
    in every tenant view's) per tenant and per (layer, op), and total
    ``auth_denied``.  A key missing a segment is ignored, not guessed at."""
    tenants: dict[str, dict[str, float]] = {}
    latencies: dict[tuple[str, ...], dict[str, float]] = {}
    auth_denied = 0.0
    for node in tree.walk():
        for snap in (node.stats, node.remote):
            if snap is None:
                continue
            auth_denied += snap.extra.get("auth_denied", 0.0)
            for key, value in snap.extra.items():
                row, _, field_name = key.rpartition(":")
                kind, _, name = row.partition(":")
                layer_op = tuple(name.split(":"))
                if not (name and field_name):
                    continue
                if kind == "tenant":
                    tenants.setdefault(name, {})[field_name] = value
                elif kind == "lat" and len(layer_op) == 2 and all(layer_op):
                    latencies.setdefault(layer_op, {})[field_name] = value
    return tenants, latencies, auth_denied


def _tenant_row(name: str, fields: dict[str, float]) -> tuple[str, ...]:
    offset, blocks = int(fields.get("offset", 0)), int(fields.get("blocks", 0))
    limits = ",".join(
        spec.format(fields[key]) for key, spec in (
            ("quota_blocks", "{:.0f}blk"), ("quota_bytes", "{:.0f}B"),
            ("rate_ops", "{:g}/s"),
        ) if key in fields
    )
    denied = fields.get("quota_denied", 0) + fields.get("rate_denied", 0)
    return (name, f"[{offset},{offset + blocks})",
            *(str(int(fields.get(key, 0)))
              for key in ("used", "reads", "writes", "bytes_written")),
            limits or "-", str(int(denied)))


def _print_table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> None:
    """Rows (if any) under a header after a blank line, in left-aligned
    columns two spaces apart, trailing blanks trimmed."""
    if not rows:
        return
    table = [header, *rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(header))]
    print()
    for row in table:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


@command("store-trace",
         "reconstruct cross-node span trees from --trace-log span files",
         arg("files", nargs="+", metavar="SPANS.jsonl",
             help="JSON-lines span files (store-serve --trace-log "
                  "output, one per node, plus any client logs)"),
         arg("--trace", metavar="ID",
             help="only show traces whose id starts with ID"),
         arg("--slow-ms", type=float, default=None,
             help="flag spans at or above this duration (default 100)"),
         arg("--json", action="store_true",
             help="emit the reconstructed trees as JSON"))
def cmd_store_trace(args) -> int:
    """Join span logs (``store-serve --trace-log`` / client JSONL files)
    into per-trace trees: client call → per-node server spans, with the
    queue-wait vs. service-time split and slow ops flagged."""
    import json as _json
    from collections import defaultdict

    from repro.storage.metered import DEFAULT_SLOW_MS

    slow_ms = args.slow_ms if args.slow_ms is not None else DEFAULT_SLOW_MS
    spans: list[dict] = []
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = _json.loads(line)
                except ValueError:
                    print(f"{path}:{lineno}: skipping unparsable line",
                          file=sys.stderr)
                    continue
                if isinstance(record, dict) and record.get("trace_id") \
                        and record.get("span_id"):
                    spans.append(record)

    traces: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        traces[span["trace_id"]].append(span)
    selected = sorted(
        (tid for tid in traces
         if not args.trace or tid.startswith(args.trace)),
        key=lambda tid: min(s.get("start", 0.0) for s in traces[tid]),
    )
    if not selected:
        print("no matching traces", file=sys.stderr)
        return 1

    def tree(members: list[dict]):
        """(roots, children) with orphans — spans whose parent was never
        recorded, e.g. the caller's root context — promoted to roots."""
        by_id = {s["span_id"]: s for s in members}
        children: dict[str, list[dict]] = defaultdict(list)
        roots = []
        for span in sorted(members, key=lambda s: s.get("start", 0.0)):
            parent = span.get("parent_id", "")
            if parent and parent in by_id:
                children[parent].append(span)
            else:
                roots.append(span)
        return roots, children

    if args.json:
        def nest(span, children):
            out = dict(span)
            out["children"] = [nest(c, children)
                               for c in children[span["span_id"]]]
            return out

        payload = []
        for tid in selected:
            roots, children = tree(traces[tid])
            payload.append({"trace_id": tid,
                            "spans": [nest(r, children) for r in roots]})
        print(_json.dumps(payload, indent=2))
        return 0

    def render(span, children, depth):
        queue = span.get("queue_ms", 0.0)
        queue_part = f" (queue {queue:.3f}ms)" if queue else ""
        status = span.get("status", "ok")
        status_part = f" [{status.upper()}]" if status != "ok" else ""
        slow_part = " <-- SLOW" \
            if span.get("duration_ms", 0.0) >= slow_ms else ""
        print(f"{'  ' * depth}{span.get('kind', '?'):6s} "
              f"{span.get('name', '?')} @ {span.get('node', '?')}  "
              f"{span.get('duration_ms', 0.0):.3f}ms"
              f"{queue_part}{status_part}{slow_part}")
        for child in children[span["span_id"]]:
            render(child, children, depth + 1)

    for tid in selected:
        members = traces[tid]
        starts = [s.get("start", 0.0) for s in members]
        ends = [s.get("start", 0.0) + s.get("duration_ms", 0.0) / 1000.0
                for s in members]
        nodes = {s.get("node", "?") for s in members}
        print(f"trace {tid}  ({len(members)} span(s), {len(nodes)} "
              f"node(s), {(max(ends) - min(starts)) * 1000.0:.3f}ms)")
        roots, children = tree(members)
        for root in roots:
            render(root, children, 1)
        print()
    return 0


@command("backends", "list storage-backend URI schemes")
def cmd_backends(args) -> int:
    """List storage schemes with the usage examples their specs declare."""
    from repro.storage.spec import backend_rows

    for scheme, uri, meaning in backend_rows():
        print(f"{scheme:<8} {uri}  --  {meaning}")
    return 0


@command("journal-inspect", "dump/verify a journal:// write-ahead log",
         arg("journal", help="path to the journal file"),
         arg("--records", action="store_true",
             help="also list every record in the log"))
def cmd_journal_inspect(args) -> int:
    """Dump and verify a write-ahead journal file."""
    from repro.storage import inspect_journal

    info = inspect_journal(args.journal)
    print(f"journal    : {info.path}")
    print(f"block size : {info.block_size}")
    print(f"log size   : {info.size} bytes")
    if args.records:
        for record in info.records:
            detail = (f"{record.blocks:>5} blocks" if record.blocks
                      else " " * 11)
            print(f"  @{record.offset:<10} seq={record.seq:<8} "
                  f"{record.kind_name:<7} {detail}  crc ok")
    blocks = f" ({info.committed_blocks} blocks)" if info.committed else ""
    print(f"committed  : {info.committed} transaction(s){blocks}")
    uncommitted = (", ".join(f"seq={s}" for s in info.uncommitted)
                   if info.uncommitted else "none")
    print(f"uncommitted: {uncommitted}")
    if info.torn_offset is None:
        print("torn tail  : none (log is clean)")
    else:
        print(f"torn tail  : {info.size - info.torn_offset} byte(s) "
              f"discarded from offset {info.torn_offset} on replay")
    return 0


@command("lint", "run the project-specific static analyzers (discfs-lint)",
         arg("paths", nargs="*", metavar="PATH",
             help="files or directories to lint (default: src/repro)"),
         arg("--rule", action="append", metavar="RULE",
             help="run only this rule (repeatable; see --list-rules)"),
         arg("--json", action="store_true",
             help="machine-readable findings"),
         arg("--list-rules", action="store_true",
             help="list available rules and exit"))
def cmd_lint(args) -> int:
    import json
    from pathlib import Path

    from repro.analysis import all_checkers, run_lint

    if args.list_rules:
        for name, factory in sorted(all_checkers().items()):
            print(f"{name:20s} {factory.description}")
        return 0

    root = Path.cwd()
    paths = [Path(p) for p in (args.paths or ["src/repro"])]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {missing[0]}", file=sys.stderr)
        return 2

    try:
        result = run_lint(paths, root, rules=args.rule)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return result.exit_code

    for finding in result.findings:
        print(finding.render())
    print(f"discfs-lint: {result.files_checked} file(s), "
          f"{len(result.findings)} finding(s)")
    return result.exit_code


# ---------------------------------------------------------------------------
# Client operations
# ---------------------------------------------------------------------------


def _connect(args) -> DisCFSClient:
    raw = TCPTransport(*args.server)
    key = _load_keypair(args.key)
    client = DisCFSClient(SecureTransport(raw, IKEInitiator(key)), key)
    client.attach(args.attach)
    for path in args.credential or ():
        client.submit_credential(_read(path))
    return client


@command("ls", "list a remote directory",
         arg("path", nargs="?", default="/"), client=True)
def cmd_ls(client: DisCFSClient, args) -> int:
    fh, _ = client.walk(args.path)
    for _ino, name in client.readdir(fh):
        if name not in (".", ".."):
            print(name)
    return 0


@command("cat", "print a remote file", arg("path"), client=True)
def cmd_cat(client: DisCFSClient, args) -> int:
    sys.stdout.buffer.write(client.read_path(args.path))
    return 0


@command("put", "upload a local file",
         arg("local"),
         arg("path"),
         arg("--save-credential", metavar="FILE",
             help="store the creator credential here"),
         client=True)
def cmd_put(client: DisCFSClient, args) -> int:
    with open(args.local, "rb") as f:
        data = f.read()
    client.write_path(args.path, data)
    print(f"wrote {len(data)} bytes to {args.path}")
    if client.wallet and args.save_credential:
        _write(args.save_credential, client.wallet[-1])
        print(f"creator credential saved to {args.save_credential}")
    return 0


@command("rm", "remove a remote file", arg("path"), client=True)
def cmd_rm(client: DisCFSClient, args) -> int:
    directory, _, name = args.path.strip("/").rpartition("/")
    dir_fh, _ = client.walk(directory) if directory else (client.root, None)
    client.remove(dir_fh, name)
    print(f"removed {args.path}")
    return 0


@command("stat", "print a remote file's handle and rights", arg("path"),
         client=True)
def cmd_stat(client: DisCFSClient, args) -> int:
    """Print a remote file's handle (what credentials bind rights to)."""
    from repro.core.handles import HandleScheme

    fh, attr = client.walk(args.path)
    print(f"handle     : {HandleScheme.INODE_GENERATION.render(fh)}")
    print(f"handle(ino): {HandleScheme.INODE.render(fh)}")
    print(f"type       : {'dir' if attr.is_dir else 'file'}")
    print(f"size       : {attr.size}")
    print(f"mode       : {attr.permission_bits:03o} (your granted rights)")
    return 0


@command("submit", "submit credential files", arg("files", nargs="+"),
         client=True)
def cmd_submit(client: DisCFSClient, args) -> int:
    for path in args.files:
        message = client.submit_credential(_read(path))
        print(f"{path}: {message}")
    return 0


@command("audit", "dump the server audit log (admin)",
         arg("--limit", type=int, default=100), client=True)
def cmd_audit(client: DisCFSClient, args) -> int:
    for line in client.nfs.audit_log(limit=args.limit):
        print(line)
    return 0


@command("revoke", "administrator revocation",
         arg("kind", choices=("key", "credential")),
         arg("value", help="principal/file (key) or credential file"),
         client=True)
def cmd_revoke(client: DisCFSClient, args) -> int:
    if args.kind == "key":
        value = _principal_arg(args.value)
    else:
        value = parse_assertion(_read(args.value)).signature
    print(client.nfs.revoke(f"{args.kind} {value}"))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    clients = ", ".join(row.name for row in COMMANDS if row.client)
    parser = argparse.ArgumentParser(
        prog="discfs", description=__doc__.partition("\n\n")[0],
        epilog=f"client commands ({clients}) connect with "
               f"--server HOST:PORT --key KEYFILE",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for row in COMMANDS:
        p = sub.add_parser(row.name, help=row.help)
        for flags, options in (CLIENT_ARGS if row.client else ()) + row.args:
            p.add_argument(*flags, **options)
        p.set_defaults(row=row)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    row: Command = args.row
    try:
        if not row.client:
            return row.run(args)
        with contextlib.closing(_connect(args)) as client:
            return row.run(client, args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
