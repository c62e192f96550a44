"""The ``discfs`` command-line tool.

Wraps the library in the workflows the paper describes operationally:
key management, credential issuance/delegation/inspection (the
"send it via email" artifacts), running a server, and client file
operations over the secure channel.

Commands
--------
==================  ====================================================
``keygen``          generate a DSA (or RSA) keypair into a key file
``identity``        print a key file's public principal identifier
``issue``           issue a credential (issuer key -> licensee id)
``delegate``        re-grant an existing credential to another key
``inspect``         pretty-print a credential's fields
``verify``          check a credential's signature
``serve``           run a DisCFS server on a TCP port, optionally
                    importing a host directory into its filesystem;
                    ``--backend URI`` picks the storage backend
``store-serve``     export a storage backend over RPC on a TCP port —
                    the node other servers reach as ``remote://``;
                    ``--policy FILE`` gates every call behind a KeyNote
                    session, ``--tenant-quota`` carves tenant regions,
                    ``--metrics-port`` serves Prometheus/JSON metrics,
                    ``--trace-log`` appends spans for ``store-trace``
``store-issue``     issue a storage-plane credential (tenant + rights)
``store-inspect``   mount a backend URI and print its live topology:
                    per-layer capabilities and stats (``--json`` for
                    machines, ``--parse`` to validate without mounting)
``store-trace``     reconstruct cross-node span trees from the JSON-line
                    files ``store-serve --trace-log`` (and traced
                    clients) append, flagging slow operations
``reshard``         migrate a mounted ``shard://`` ring to a new layout,
                    moving only the blocks whose ring owner changed
``backends``        list the registered storage-backend URI schemes
``journal-inspect`` dump and verify a ``journal://`` write-ahead log
``ls/cat/put/rm``   client operations against a running server
``stat``            print a remote file's handle and granted rights
``submit``          submit credential files to a server
``revoke``          administrator revocation (key or credential)
``audit``           dump the server's audit log (administrator only)
==================  ====================================================

Every client command takes ``--server HOST:PORT --key KEYFILE`` and
optionally ``--credential FILE`` (repeatable).  See
``tests/unit/test_cli.py`` for end-to-end invocations.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
import threading
from typing import Callable

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


# ---------------------------------------------------------------------------
# Key management
# ---------------------------------------------------------------------------


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


def cmd_identity(args) -> int:
    key = decode_key(_read(args.key).strip())
    public = getattr(key, "public", key)
    print(encode_public_key(public))
    return 0


# ---------------------------------------------------------------------------
# Credentials
# ---------------------------------------------------------------------------


def cmd_issue(args) -> int:
    issuer = CredentialIssuer(_load_keypair(args.key))
    text = issuer.grant(
        _principal_arg(args.licensee), handle=args.handle,
        rights=args.rights, comment=args.comment, subtree=args.subtree,
        expires_at=args.expires_at, hours=_parse_hours(args.hours),
    )
    _emit_credential(text, args.out)
    return 0


def cmd_delegate(args) -> int:
    issuer = CredentialIssuer(_load_keypair(args.key))
    licensee = _principal_arg(args.licensee)
    text = issuer.delegate(
        _read(args.credential), licensee, rights=args.rights,
        comment=args.comment, expires_at=args.expires_at,
    )
    _emit_credential(text, args.out)
    return 0


def _parse_hours(spec: str | None):
    if not spec:
        return None
    start, _, end = spec.partition("-")
    return (int(start), int(end))


def _emit_credential(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
        print(f"credential written to {out}")
    else:
        sys.stdout.write(text)


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


def cmd_store_inspect(args) -> int:
    """Mount a backend and print the live topology (the control plane's
    ``describe`` tree: per-layer capabilities + stats snapshots)."""
    import json as _json

    from repro.storage import (
        describe,
        latency_usage,
        open_store,
        parse_spec,
        render_latency_table,
        render_tenant_table,
        tenant_usage,
    )

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
            # A gated server folds its auth verdicts and every tenant
            # view's counters into the STATS extras; local tenant://
            # mounts publish the same flat keys.  Regroup them into the
            # per-tenant usage table.
            tenants: dict[str, dict[str, float]] = {}
            latencies: dict[tuple[str, str], dict[str, float]] = {}
            auth_denied = 0.0
            for node in tree.walk():
                for snap in (node.stats, node.remote):
                    if snap is None:
                        continue
                    auth_denied += snap.extra.get("auth_denied", 0.0)
                    for name, fields in tenant_usage(snap.extra).items():
                        tenants.setdefault(name, {}).update(fields)
                    for key, fields in latency_usage(snap.extra).items():
                        latencies.setdefault(key, {}).update(fields)
            if tenants:
                print()
                print(render_tenant_table(tenants))
            if latencies:
                print()
                print(render_latency_table(latencies))
            if auth_denied:
                print(f"auth: {int(auth_denied)} request(s) denied")
    finally:
        store.close()
    return 0


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


def cmd_reshard(args) -> int:
    """Migrate a shard:// ring to a new layout (the control plane's
    flagship: only blocks whose consistent-hash owner changed move)."""
    from repro.storage import open_store, parse_spec, reshard

    old_spec = parse_spec(args.old)
    new_spec = parse_spec(args.new)
    store = open_store(old_spec)
    try:
        report = reshard(store, old_spec, new_spec,
                         verify=not args.no_verify)
        store.flush()
    finally:
        store.close()
    pct = report.moved_fraction * 100.0
    print(f"resharded {args.old}")
    print(f"       -> {args.new}")
    print(f"moved      : {report.moved_blocks}/{report.total_blocks} "
          f"blocks ({pct:.1f}%)")
    print(f"children   : {report.reused_children} reused, "
          f"{report.added_children} added, "
          f"{report.removed_children} removed")
    print(f"verified   : {'yes' if report.verified else 'skipped'}")
    print(f"wall-clock : {report.seconds * 1000:.1f} ms")
    return 0


def cmd_backends(args) -> int:
    """List storage schemes with the usage examples their specs declare."""
    from repro.storage.spec import backend_rows

    for scheme, uri, meaning in backend_rows():
        print(f"{scheme:<8} {uri}  --  {meaning}")
    return 0


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


# ---------------------------------------------------------------------------
# Client operations
# ---------------------------------------------------------------------------


def _connect(args) -> DisCFSClient:
    host, _, port = args.server.partition(":")
    raw = TCPTransport(host, int(port))
    key = _load_keypair(args.key)
    client = DisCFSClient(SecureTransport(raw, IKEInitiator(key)), key)
    client.attach(args.attach)
    for path in args.credential or ():
        client.submit_credential(_read(path))
    return client


def cmd_ls(args) -> int:
    with contextlib.closing(_connect(args)) as client:
        fh, _ = client.walk(args.path)
        for _ino, name in client.readdir(fh):
            if name not in (".", ".."):
                print(name)
    return 0


def cmd_cat(args) -> int:
    with contextlib.closing(_connect(args)) as client:
        sys.stdout.buffer.write(client.read_path(args.path))
    return 0


def cmd_put(args) -> int:
    with contextlib.closing(_connect(args)) as client:
        with open(args.local, "rb") as f:
            data = f.read()
        client.write_path(args.path, data)
        print(f"wrote {len(data)} bytes to {args.path}")
        if client.wallet and args.save_credential:
            _write(args.save_credential, client.wallet[-1])
            print(f"creator credential saved to {args.save_credential}")
    return 0


def cmd_rm(args) -> int:
    with contextlib.closing(_connect(args)) as client:
        directory, _, name = args.path.strip("/").rpartition("/")
        dir_fh, _ = client.walk(directory) if directory else (client.root, None)
        client.remove(dir_fh, name)
        print(f"removed {args.path}")
    return 0


def cmd_stat(args) -> int:
    """Print a remote file's handle (what credentials bind rights to)."""
    from repro.core.handles import HandleScheme

    with contextlib.closing(_connect(args)) as client:
        fh, attr = client.walk(args.path)
        print(f"handle     : {HandleScheme.INODE_GENERATION.render(fh)}")
        print(f"handle(ino): {HandleScheme.INODE.render(fh)}")
        print(f"type       : {'dir' if attr.is_dir else 'file'}")
        print(f"size       : {attr.size}")
        print(f"mode       : {attr.permission_bits:03o} (your granted rights)")
    return 0


def cmd_submit(args) -> int:
    with contextlib.closing(_connect(args)) as client:
        for path in args.files:
            message = client.submit_credential(_read(path))
            print(f"{path}: {message}")
    return 0


def cmd_audit(args) -> int:
    with contextlib.closing(_connect(args)) as client:
        for line in client.nfs.audit_log(limit=args.limit):
            print(line)
    return 0


def cmd_revoke(args) -> int:
    with contextlib.closing(_connect(args)) as client:
        if args.kind == "key":
            value = _principal_arg(args.value)
        else:
            value = parse_assertion(_read(args.value)).signature
        print(client.nfs.revoke(f"{args.kind} {value}"))
    return 0


def cmd_lint(args) -> int:
    import json
    from pathlib import Path

    from repro.analysis import Baseline, all_checkers, run_lint

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

    if getattr(args, "diff", None):
        import subprocess
        try:
            proc = subprocess.run(
                ["git", "diff", "--name-only", "--diff-filter=d",
                 args.diff, "--", "*.py"],
                cwd=root, capture_output=True, text=True, check=True,
            )
        except FileNotFoundError:
            print("error: --diff requires git on PATH", file=sys.stderr)
            return 2
        except subprocess.CalledProcessError as exc:
            detail = (exc.stderr or "").strip() or f"exit {exc.returncode}"
            print(f"error: git diff {args.diff} failed: {detail}",
                  file=sys.stderr)
            return 2
        scope = [p.resolve() for p in paths]
        changed: list[Path] = []
        for rel in proc.stdout.splitlines():
            candidate = (root / rel).resolve()
            if not candidate.is_file():
                continue
            if any(candidate == s or s in candidate.parents
                   for s in scope):
                changed.append(root / rel)
        if not changed:
            print(f"discfs-lint: no changed python files vs {args.diff}")
            return 0
        paths = changed

    baseline = None
    if args.baseline and Path(args.baseline).is_file():
        baseline = Baseline.load(Path(args.baseline))

    try:
        result = run_lint(paths, root, rules=args.rule, baseline=baseline)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.from_findings(result.findings).save(Path(args.write_baseline))
        print(f"wrote {len(result.findings)} finding(s) to "
              f"{args.write_baseline}; annotate each with a justification")
        return 0

    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return result.exit_code

    for finding in result.findings:
        print(finding.render())
    errors = sum(1 for f in result.findings if f.severity == "error")
    print(
        f"discfs-lint: {result.files_checked} file(s), "
        f"{errors} error(s), {len(result.findings) - errors} warning(s), "
        f"{result.suppressed} suppressed, "
        f"{result.grandfathered} grandfathered"
    )
    return result.exit_code


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--server", required=True, metavar="HOST:PORT")
    parser.add_argument("--key", required=True, help="private key file")
    parser.add_argument("--attach", default="/", help="remote path to mount")
    parser.add_argument("--credential", action="append", metavar="FILE",
                        help="credential file to submit (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="discfs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a keypair")
    p.add_argument("--out", required=True)
    p.add_argument("--algorithm", choices=("dsa", "rsa"), default="dsa")
    p.add_argument("--bits", type=int, default=1024, help="RSA modulus bits")
    p.add_argument("--seed", help="deterministic seed (tests/demos only)")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("identity", help="print a key file's principal")
    p.add_argument("--key", required=True)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("issue", help="issue a credential")
    p.add_argument("--key", required=True, help="issuer private key file")
    p.add_argument("--licensee", required=True,
                   help="principal id or file containing one")
    p.add_argument("--handle", required=True)
    p.add_argument("--rights", default="RWX")
    p.add_argument("--comment", default="")
    p.add_argument("--subtree", action="store_true")
    p.add_argument("--expires-at", type=int, default=None)
    p.add_argument("--hours", help="e.g. 9-17")
    p.add_argument("--out")
    p.set_defaults(func=cmd_issue)

    p = sub.add_parser("delegate", help="re-grant a credential")
    p.add_argument("--key", required=True, help="delegator private key file")
    p.add_argument("--credential", required=True, help="original credential")
    p.add_argument("--licensee", required=True)
    p.add_argument("--rights", default=None)
    p.add_argument("--comment", default="")
    p.add_argument("--expires-at", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_delegate)

    p = sub.add_parser("inspect", help="pretty-print a credential")
    p.add_argument("--credential", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("verify", help="verify a credential signature")
    p.add_argument("--credential", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("serve", help="run a DisCFS server")
    p.add_argument("--admin-identity", required=True,
                   help="administrator principal (or file containing it)")
    p.add_argument("--trust-key",
                   help="admin private key file: auto-install server trust")
    p.add_argument("--import-dir", help="host directory to import")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--cache", type=int, default=128)
    p.add_argument("--backend", default="mem://", metavar="URI",
                   help="storage backend URI: mem://, file://PATH, "
                        "sqlite://PATH, shard://N, cached://URI, "
                        "remote://HOST:PORT, replica://N, journal://URI "
                        "(default mem://; see `discfs backends`)")
    p.add_argument("--oneshot", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("store-serve",
                       help="export a storage backend over RPC (remote://)")
    p.add_argument("--backend", default="mem://", metavar="URI",
                   help="backend URI to serve (default mem://)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--blocks", type=int, default=None,
                   help="store size in blocks (default: registry default)")
    p.add_argument("--bs", type=int, default=None,
                   help="block size in bytes (default 8192)")
    p.add_argument("--workers", type=int, default=4,
                   help="request-handling threads per node: pipelined "
                        "clients (remote://...?workers=N) overlap calls "
                        "on one connection; 0 = answer each connection "
                        "sequentially (default 4)")
    p.add_argument("--policy", metavar="FILE",
                   help="KeyNote policy file: require an authenticated "
                        "SESSION_OPEN (clients mount with "
                        "remote://...#cred=FILE&key=FILE) and authorize "
                        "every call against the session's rights")
    p.add_argument("--tenant-quota", action="append", metavar="SPEC",
                   help="carve a private tenant region on the served "
                        "store: NAME=BLOCKS[:BYTES[:RATE]] (repeatable; "
                        "needs --policy)")
    p.add_argument("--audit-log", metavar="FILE",
                   help="append one JSON line per auth decision "
                        "(needs --policy)")
    p.add_argument("--insecure", action="store_true",
                   help="serve a non-loopback address WITHOUT --policy "
                        "(anyone reaching the port gets full read/write)")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="also serve /metrics (Prometheus text), "
                        "/metrics.json and /trace.json over HTTP on this "
                        "port (0 = ephemeral; announced on a second line)")
    p.add_argument("--trace-log", metavar="FILE",
                   help="append one JSON line per recorded span "
                        "(feed the files to: discfs store-trace)")
    p.add_argument("--oneshot", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_store_serve)

    p = sub.add_parser("store-issue",
                       help="issue a storage-plane credential "
                            "(tenant + r/rw/admin rights)")
    p.add_argument("--key", required=True, help="issuer private key file")
    p.add_argument("--licensee", required=True,
                   help="principal id or file containing one")
    p.add_argument("--tenant", default="",
                   help="tenant the grant is scoped to (empty: whole store)")
    p.add_argument("--rights", default="rw", choices=("r", "rw", "admin"))
    p.add_argument("--comment", default="")
    p.add_argument("--expires-at", type=int, default=None,
                   help="unix time after which the credential is dead")
    p.add_argument("--out")
    p.set_defaults(func=cmd_store_issue)

    p = sub.add_parser("store-inspect",
                       help="print a backend's live topology "
                            "(capabilities + stats per layer)")
    p.add_argument("backend", metavar="URI",
                   help="backend URI to mount and inspect")
    p.add_argument("--json", action="store_true",
                   help="emit the topology tree as JSON")
    p.add_argument("--parse", action="store_true",
                   help="validate and canonicalize the URI without "
                        "mounting anything")
    p.add_argument("--exercise", action="store_true",
                   help="read block 0 twice first so the stats are "
                        "non-zero (demos; never writes)")
    p.set_defaults(func=cmd_store_inspect)

    p = sub.add_parser("store-trace",
                       help="reconstruct cross-node span trees from "
                            "--trace-log span files")
    p.add_argument("files", nargs="+", metavar="SPANS.jsonl",
                   help="JSON-lines span files (store-serve --trace-log "
                        "output, one per node, plus any client logs)")
    p.add_argument("--trace", metavar="ID",
                   help="only show traces whose id starts with ID")
    p.add_argument("--slow-ms", type=float, default=None,
                   help="flag spans at or above this duration "
                        "(default 100)")
    p.add_argument("--json", action="store_true",
                   help="emit the reconstructed trees as JSON")
    p.set_defaults(func=cmd_store_trace)

    p = sub.add_parser("reshard",
                       help="migrate a shard:// ring to a new layout "
                            "(moves only ring-owner-changed blocks)")
    p.add_argument("old", metavar="OLD_URI",
                   help="the currently deployed shard:// layout")
    p.add_argument("new", metavar="NEW_URI",
                   help="the target shard:// layout")
    p.add_argument("--no-verify", action="store_true",
                   help="skip re-reading moved blocks from their new "
                        "owner before the swap")
    p.set_defaults(func=cmd_reshard)

    p = sub.add_parser("backends", help="list storage-backend URI schemes")
    p.set_defaults(func=cmd_backends)

    p = sub.add_parser("journal-inspect",
                       help="dump/verify a journal:// write-ahead log")
    p.add_argument("journal", help="path to the journal file")
    p.add_argument("--records", action="store_true",
                   help="also list every record in the log")
    p.set_defaults(func=cmd_journal_inspect)

    p = sub.add_parser(
        "lint",
        help="run the project-specific static analyzers (discfs-lint)",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="files or directories to lint (default: src/repro)")
    p.add_argument("--rule", action="append", metavar="RULE",
                   help="run only this rule (repeatable; see --list-rules)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings + summary")
    p.add_argument("--baseline", metavar="FILE",
                   help="grandfather findings whose fingerprint is in FILE")
    p.add_argument("--diff", metavar="REF",
                   help="lint only python files changed vs git REF "
                        "(intersected with PATH; new-vs-baseline "
                        "findings still gate)")
    p.add_argument("--write-baseline", metavar="FILE",
                   help="write current findings to FILE as a new baseline")
    p.add_argument("--list-rules", action="store_true",
                   help="list available rules and exit")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("ls", help="list a remote directory")
    _add_client_args(p)
    p.add_argument("path", nargs="?", default="/")
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("cat", help="print a remote file")
    _add_client_args(p)
    p.add_argument("path")
    p.set_defaults(func=cmd_cat)

    p = sub.add_parser("put", help="upload a local file")
    _add_client_args(p)
    p.add_argument("local")
    p.add_argument("path")
    p.add_argument("--save-credential", metavar="FILE",
                   help="store the creator credential here")
    p.set_defaults(func=cmd_put)

    p = sub.add_parser("rm", help="remove a remote file")
    _add_client_args(p)
    p.add_argument("path")
    p.set_defaults(func=cmd_rm)

    p = sub.add_parser("stat", help="print a remote file's handle and rights")
    _add_client_args(p)
    p.add_argument("path")
    p.set_defaults(func=cmd_stat)

    p = sub.add_parser("submit", help="submit credential files")
    _add_client_args(p)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("audit", help="dump the server audit log (admin)")
    _add_client_args(p)
    p.add_argument("--limit", type=int, default=100)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("revoke", help="administrator revocation")
    _add_client_args(p)
    p.add_argument("kind", choices=("key", "credential"))
    p.add_argument("value", help="principal/file (key) or credential file")
    p.set_defaults(func=cmd_revoke)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
