"""Ablation: what the credential gate costs a served store.

The DisCFS argument only holds if credential-gated access is cheap
enough to leave on: authorization must be paid once per *session*
(SESSION_OPEN's DSA challenge signature + KeyNote compliance query),
not once per block operation.  Each mount here talks real TCP to an
in-process ``serve_store`` node; the gated mounts carry a session token
on every proc which the server resolves with a dict lookup and a rank
compare.

``test_auth_comparison_table`` routes the sweep through the report
harness (``repro.bench.report.ABLATIONS["auth"]``; run with ``-s`` to
see the table, or ``python -m repro.bench.report --ablation auth``
standalone)
and asserts the acceptance claims:

* an authenticated mount still moves blocks — steady-state vectored
  throughput within 2x of the open mount (the envelope is a 16-byte
  token and a status word, not a per-call crypto operation);
* the handshake is where the crypto lives: opening a session costs
  measurably more than an open mount, and that cost does not recur
  (total gated wall-clock stays within the same 2x envelope).
"""

import io

import pytest

from repro.bench.report import ABLATIONS, print_table
from repro.crypto.dsa import generate_dsa_keypair
from repro.crypto.keycodec import encode_public_key
from repro.crypto.numbers import seeded_random_bits
from repro.storage import MemoryBlockStore, serve_store
from repro.core.audit import AuditLog
from repro.storage.auth import (
    StoreAuthGate,
    TenantQuota,
    issue_store_credential,
)
from repro.storage.net import RemoteBlockStore

BLOCKS = 96
BLOCK_SIZE = 4096


@pytest.fixture(scope="module")
def principals():
    operator = generate_dsa_keypair(
        rand=seeded_random_bits(b"bench-auth-operator"))
    tenant = generate_dsa_keypair(
        rand=seeded_random_bits(b"bench-auth-tenant"))
    policy = (
        'Authorizer: "POLICY"\n'
        f'Licensees: "{encode_public_key(operator)}"\n'
        'Conditions: (app_domain == "discfs-store") -> "admin";\n'
    )
    credential = issue_store_credential(
        operator, encode_public_key(tenant), "t0", rights="rw")
    return {"operator": operator, "tenant": tenant, "policy": policy,
            "credential": credential}


def _serve(principals, gated: bool, tenants=()):
    gate = None
    if gated:
        gate = StoreAuthGate(principals["policy"], tenants=list(tenants),
                             audit=AuditLog(stream=io.StringIO()))
    return serve_store(MemoryBlockStore(BLOCKS * 4, BLOCK_SIZE),
                       workers=4, gate=gate)


@pytest.mark.benchmark(group="ablation-auth-write")
@pytest.mark.parametrize("mode", ["open", "session"])
def test_write_many_by_auth(benchmark, principals, mode):
    server = _serve(principals, gated=mode == "session")
    auth = ({"key": principals["operator"], "rights": "rw"}
            if mode == "session" else {})
    host, port = server.address
    store = RemoteBlockStore.connect(host, port, workers=2, **auth)
    items = [(b, b"A" * BLOCK_SIZE) for b in range(BLOCKS)]
    try:
        benchmark(store.write_many, items)
    finally:
        store.close()
        server.close()
    benchmark.extra_info["mode"] = mode


@pytest.mark.benchmark(group="ablation-auth-handshake")
@pytest.mark.parametrize("mode", ["open", "session"])
def test_mount_by_auth(benchmark, principals, mode):
    """The once-per-session cost: CHALLENGE + signature + compliance
    query + GEOM, vs GEOM alone."""
    server = _serve(principals, gated=mode == "session")
    auth = ({"key": principals["operator"], "rights": "rw"}
            if mode == "session" else {})
    host, port = server.address

    def mount():
        RemoteBlockStore.connect(host, port, **auth).close()

    try:
        benchmark(mount)
    finally:
        server.close()
    benchmark.extra_info["mode"] = mode


#: Sweeps per comparison; every compared cell is the fastest of them.
REPEATS = 3
#: The cells the acceptance assertions compare.
TIMED = ("write_s", "read_s", "mount_ms")


@pytest.mark.flaky
def test_auth_comparison_table(capsys):
    """Full sweeps through the report harness, with the acceptance
    assertions (wall-clock based, hence the flaky marker; the 2x
    envelope is far above the measured per-proc overhead).  The sweeps
    interleave — each one times every mount — so a slow spell on the
    host lands on all rows alike, and each compared cell is the fastest
    of ``REPEATS``."""
    params = dict(blocks=BLOCKS, rounds=8, block_size=BLOCK_SIZE)
    results: dict[str, dict] = {}
    for _rep in range(REPEATS):
        rows = ABLATIONS["auth"].run(**params)
        for row in rows:
            best = results.setdefault(row["label"], dict(row))
            for key in TIMED:
                best[key] = min(best[key], row[key])
    with capsys.disabled():
        print_table("auth", rows, **params)

    open_row = results["open"]
    for label in ("session (operator)", "session (tenant)"):
        gated = results[label]
        assert gated["write_s"] <= open_row["write_s"] * 2.0, (label, results)
        assert gated["read_s"] <= open_row["read_s"] * 2.0, (label, results)
        # The handshake carries the crypto: it must dominate the open
        # mount's (which is a single GEOM round trip).
        assert gated["mount_ms"] > open_row["mount_ms"], (label, results)


def test_quota_accounting_survives_the_fast_path(principals):
    """The tenant row's throughput is only meaningful if the quota
    machinery actually ran: breach it right after the timed workload
    shape and check the typed error."""
    from repro.errors import QuotaExceeded

    server = _serve(principals, gated=True,
                    tenants=[TenantQuota(name="t0", blocks=BLOCKS,
                                         quota_bytes=BLOCKS * BLOCK_SIZE)])
    host, port = server.address
    store = RemoteBlockStore.connect(
        host, port, key=principals["tenant"],
        credentials=[principals["credential"]], tenant="t0")
    try:
        store.write_many([(b, b"Q" * BLOCK_SIZE) for b in range(BLOCKS)])
        with pytest.raises(QuotaExceeded):
            store.write(0, b"Q")
    finally:
        store.close()
        server.close()
