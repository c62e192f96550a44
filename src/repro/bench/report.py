"""Paper-style result tables for the whole evaluation.

Running this module (``python -m repro.bench.report``) regenerates every
figure's data: Bonnie throughput rows for Figures 7-11 and the search
times for Figure 12, for FFS, CFS-NE and DisCFS (plus optional extras).
``--ablation NAME...`` (or ``all``) adds the tables of :data:`ABLATIONS`.
The output is the source for EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import inspect
import tempfile
import time
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Callable, Iterator, NamedTuple

from repro.bench.bonnie import PHASES, run_bonnie
from repro.bench.harness import PAPER_SYSTEMS, BuiltSystem, make_target
from repro.bench.search import run_search
from repro.bench.workloads import SourceTreeSpec, generate_source_tree
from repro.crypto.dsa import generate_dsa_keypair
from repro.crypto.keycodec import encode_public_key
from repro.crypto.numbers import seeded_random_bits
from repro.fs.ffs import FFS
from repro.obs.metrics import get_registry
from repro.obs.trajectory import append_record
from repro.rpc.server import RPCServer
from repro.rpc.transport import InProcessTransport
from repro.storage import (DelayedBlockStore, MemoryBlockStore,
                           StoreBlockDevice, iter_stores, open_store,
                           serve_store)
from repro.storage.auth import StoreAuthGate, issue_store_credential
from repro.storage.net import BlockStoreProgram, RemoteBlockStore
from repro.storage.tenant import TenantQuota

_FIGURES = {
    "output_char": "Figure 7: Bonnie Sequential Output (Char)",
    "output_block": "Figure 8: Bonnie Sequential Output (Block)",
    "rewrite": "Figure 9: Bonnie Sequential Output (Rewrite)",
    "input_char": "Figure 10: Bonnie Sequential Input (Char)",
    "input_block": "Figure 11: Bonnie Sequential Input (Block)",
}


def run_evaluation(systems: tuple[str, ...] = PAPER_SYSTEMS,
                   file_size: int = 1 << 21, char_size: int = 1 << 18,
                   tree_spec: SourceTreeSpec | None = None,
                   cache_capacity: int = 128) -> dict:
    """Run Bonnie + search on each system; returns a results dict."""
    results: dict = {"bonnie": {}, "search": {}}
    for system in systems:
        built = make_target(system, cache_capacity=cache_capacity)
        results["bonnie"][system] = run_bonnie(
            built.target, file_size=file_size, char_size=char_size)
        built = make_target(system, cache_capacity=cache_capacity)
        generate_source_tree(built.target, "/src", tree_spec)
        results["search"][system] = run_search(built.target, "/src")
    return results


def print_report(results: dict) -> None:
    systems = list(results["bonnie"])
    for phase in PHASES:
        print(f"\n{_FIGURES[phase]}")
        print(f"  {'Filesystem':<14} {'Throughput (K/sec)':>20}")
        for system in systems:
            kps = results["bonnie"][system].kps(phase)
            print(f"  {system:<14} {kps:>20.0f}")
    print("\nFigure 12: Filesystem Search")
    print(f"  {'Filesystem':<14} {'Time (sec)':>12} {'files':>7}")
    for system in systems:
        sr = results["search"][system]
        print(f"  {system:<14} {sr.seconds:>12.3f} {sr.files_scanned:>7}")


# -- shared measurements ----------------------------------------------------

def _device_row(built: BuiltSystem) -> dict:
    """Logical (FFS-issued) vs physical (leaf-reached) I/O and every
    layer's counters, each layer read once through its snapshot."""
    store = built.fs.device.store
    layers = list(iter_stores(store))
    snaps = {id(layer): layer.snapshot() for layer in layers}
    leaves = [snaps[id(leaf)] for leaf in store.leaf_stores()]
    journal = next((s.extra for s in snaps.values() if s.scheme == "journal"), {})
    txns = int(journal.get("transactions", 0))
    journaled = int(journal.get("blocks_journaled", 0))
    return {
        "reads": built.device_stats.reads,
        "writes": built.device_stats.writes,
        "physical_reads": sum(snap.reads for snap in leaves),
        "physical_writes": sum(snap.writes for snap in leaves),
        "leaves": len(leaves),
        "replicas": next((len(layer.child_stores()) for layer in layers
                          if layer.scheme == "replica"), 1),
        "fsyncs": sum(snap.fsyncs for snap in snaps.values()),
        "journal_txns": txns,
        "journal_blocks": journaled,
        "blocks_per_txn": journaled / txns if txns else 0.0,
        "in_place": int(journal.get("blocks_in_place", 0)),
    }


#: The backend sweep the storage ablation reports by default.
DEFAULT_BACKENDS = ("mem://", "cached://mem://#capacity=256")


def _bonnie_sweep(configs: dict[str, str] | tuple[str, ...] = DEFAULT_BACKENDS,
                  file_size: int = 1 << 20,
                  char_size: int = 1 << 16) -> list[dict]:
    """One row per backend URI (or ``label: URI``): FFS's Bonnie K/sec
    per phase plus :func:`_device_row`; only the block layer changes —
    the storage axis of :func:`run_evaluation`'s system sweep."""
    if not isinstance(configs, dict):
        configs = {uri: uri for uri in configs}
    rows = []
    for label, uri in configs.items():
        built = make_target("FFS", backend=uri)
        try:
            bonnie = run_bonnie(built.target, file_size=file_size,
                                char_size=char_size)
            rows.append({"label": label,
                         **{phase: bonnie.kps(phase) for phase in PHASES},
                         **_device_row(built)})
        finally:
            built.fs.device.close()
    return rows


def _vectored_rounds(store, blocks: int, rounds: int) -> dict:
    """Time ``rounds`` full-width ``write_many`` calls, then as many
    ``read_many`` calls, on an open store (the payload is checked)."""
    payload = bytes(range(256)) * (store.block_size // 256)
    items = [(b, payload) for b in range(blocks)]
    block_nos = list(range(blocks))
    t0 = time.perf_counter()
    for _round in range(rounds):
        store.write_many(items)
    t1 = time.perf_counter()
    for _round in range(rounds):
        datas = store.read_many(block_nos)
    t2 = time.perf_counter()
    assert all(d == payload for d in datas)
    ops = blocks * rounds
    return {"write_s": t1 - t0, "read_s": t2 - t1,
            "write_ops_s": ops / (t1 - t0), "read_ops_s": ops / (t2 - t1)}


def _cost_vs_first(rows: list[dict]) -> list[dict]:
    """Add each row's write/read time over the first row's, in percent."""
    for row in rows:
        for op in ("write", "read"):
            row[f"{op}_cost_pct"] = (row[f"{op}_s"] / rows[0][f"{op}_s"] - 1) * 100
    return rows


@contextmanager
def _serving(stores: list, workers: int = 4,
             gate=None) -> Iterator[list[tuple[str, int]]]:
    """Serve each store on a loopback TCP port; yields the addresses."""
    with ExitStack() as stack:
        addresses = []
        for store in stores:
            server = serve_store(store, workers=workers, gate=gate)
            stack.callback(server.close)
            addresses.append(server.address)
        yield addresses


# -- the ablations ----------------------------------------------------------

#: The replica sweep: no replication, write-all/read-one at 2x and 3x,
#: strict quorums at 3x (one node may be down), majorities at 5x.
DEFAULT_REPLICA_CONFIGS = ("mem://", "replica://2", "replica://3",
                           "replica://3?w=2&r=2", "replica://5?w=3&r=3")


def _replication(configs: tuple[str, ...] = DEFAULT_REPLICA_CONFIGS,
                 file_size: int = 1 << 20,
                 char_size: int = 1 << 16) -> list[dict]:
    """Bonnie across replica factors/quorums (physical writes scale with
    the factor, logical ones do not), plus the round trips FFS's
    whole-file extents cost over an in-process remote store with
    ``read_many``/``write_many`` batching on vs off."""
    rows = _bonnie_sweep(configs, file_size, char_size)
    payload = (bytes(range(256)) * (file_size // 256 + 1))[:file_size]
    for label, batch in (("remote (batched)", True),
                         ("remote (per-block)", False)):
        rpc = RPCServer()
        rpc.register(BlockStoreProgram(MemoryBlockStore(num_blocks=1 << 15)))
        transport = InProcessTransport(rpc.handler_for(None))
        fs = FFS(StoreBlockDevice(RemoteBlockStore(transport, batch=batch),
                                  uri=label))
        for i in range(4):
            fs.write_file(f"/extent-{i}.dat", payload)
        for i in range(4):
            assert fs.read_file(f"/extent-{i}.dat") == payload
        rows.append({"label": label, "round_trips": transport.stats.calls,
                     "bytes_sent": transport.stats.bytes_sent,
                     "reads": fs.device.stats.reads,
                     "writes": fs.device.stats.writes})
        fs.device.close()
    return rows


#: label -> backend URI template ({d} = scratch directory) the journal
#: ablation sweeps: journaling on/off over the durable child.
JOURNAL_CONFIGS = {
    "file (no journal)": "file://{d}/plain.img",
    "journal://file": "journal://file://{d}/journaled.img",
}

#: Blocks written (in batches) by the replay measurement.
REPLAY_BLOCKS = 1024
REPLAY_BATCH = 64


def _journal(file_size: int = 1 << 20, char_size: int = 1 << 16,
             workdir: str | None = None) -> list[dict]:
    """Bonnie with journaling on/off over ``file://`` (the cost:
    barriers per batch), then what it buys: the time to reopen an
    abandoned journal of stride-2 (so all logged) blocks.  Files go in
    ``workdir``, else in a temporary directory removed at the end."""
    scratch = (nullcontext(workdir) if workdir
               else tempfile.TemporaryDirectory(prefix="journal-ablation-"))
    with scratch as d:
        rows = _bonnie_sweep({label: template.format(d=d)
                              for label, template in JOURNAL_CONFIGS.items()},
                             file_size, char_size)
        uri = f"journal://file://{d}/replay.img#cap={REPLAY_BLOCKS * 2}"
        num_blocks = max(REPLAY_BLOCKS * 2, 4096)
        store = open_store(uri, num_blocks=num_blocks)
        payload = b"J" * store.block_size
        for start in range(0, REPLAY_BLOCKS, REPLAY_BATCH):
            store.write_many(
                [(2 * b, payload) for b in range(start, start + REPLAY_BATCH)])
        store.abandon()
        t0 = time.perf_counter()
        with open_store(uri, num_blocks=num_blocks) as reopened:
            replay_ms = (time.perf_counter() - t0) * 1000
            extra = reopened.snapshot().extra
    rows.append({"label": "crash replay",
                 "replayed_blocks": int(extra["replayed_blocks"]),
                 "replayed_txns": int(extra["replayed_transactions"]),
                 "replay_ms": replay_ms})
    return rows


def _fanout(blocks: int = 96, rounds: int = 12, delay_ms: float = 3.0,
            slow_ms: float = 25.0, block_size: int = 4096) -> list[dict]:
    """Sequential vs concurrent fan-out over TCP nodes that charge
    ``delay_ms`` per RPC: three replicas at ``w=2``, one ``slow_ms``
    behind, pay the straggler per write only when sequential (concurrent
    leaves it to a drained, counted background lane)."""
    payload = bytes(range(256)) * (block_size // 256)
    items = [(b, payload) for b in range(blocks)]
    rows = []
    with _serving([DelayedBlockStore(MemoryBlockStore(blocks * 4, block_size),
                                     delay_ms=d)
                   for d in (delay_ms, delay_ms, slow_ms)]) as addresses:
        children = ";".join(f"remote://{h}:{p}" for h, p in addresses)
        for label, fanout in (("sequential", 1), ("concurrent", 3)):
            with open_store(f"replica://{children}#w=2&r=2&fanout={fanout}",
                            num_blocks=blocks * 4,
                            block_size=block_size) as store:
                t0 = time.perf_counter()
                for _round in range(rounds):
                    store.write_many(items)
                t1 = time.perf_counter()
                store.drain()
                rows.append({
                    "label": f"w=2 {label}",
                    "write_ms_per_round": (t1 - t0) * 1000 / rounds,
                    "drain_ms": (time.perf_counter() - t1) * 1000,
                    "background_writes": store.replica_stats.background_writes,
                })
    return rows


#: Session mounts timed by the auth ablation's handshake column.
AUTH_MOUNTS = 8


def _auth(blocks: int = 96, rounds: int = 12, block_size: int = 4096,
          mounts: int = AUTH_MOUNTS) -> list[dict]:
    """What the credential gate costs a served store: the same rounds on
    an open node, an operator session (each proc's token looked up and
    rank-checked) and a tenant session (also quota-accounted).  The
    handshake prices SESSION_OPEN's signature + compliance query, paid
    once per mount; the cost columns, the per-proc overhead."""
    operator, tenant_key = (
        generate_dsa_keypair(rand=seeded_random_bits(b"auth-ablation-" + who))
        for who in (b"operator", b"tenant"))
    policy = ('Authorizer: "POLICY"\n'
              f'Licensees: "{encode_public_key(operator)}"\n'
              'Conditions: (app_domain == "discfs-store") -> "admin";\n')
    credential = issue_store_credential(
        operator, encode_public_key(tenant_key), "t0", rights="rw")
    tenants = [TenantQuota(name="t0", blocks=blocks * 2)]
    configs = (
        ("open", None, {}),
        ("session (operator)", StoreAuthGate(policy),
         {"key": operator, "rights": "rw"}),
        ("session (tenant)", StoreAuthGate(policy, tenants=tenants),
         {"key": tenant_key, "credentials": [credential], "tenant": "t0"}),
    )
    rows = []
    for label, gate, auth in configs:
        with _serving([MemoryBlockStore(blocks * 4, block_size)],
                      gate=gate) as [address]:
            t0 = time.perf_counter()
            for _i in range(mounts):
                RemoteBlockStore.connect(*address, **auth).close()
            mount_ms = (time.perf_counter() - t0) * 1000 / mounts
            with RemoteBlockStore.connect(*address, workers=2, **auth) as store:
                rows.append({"label": label, "mount_ms": mount_ms,
                             **_vectored_rounds(store, blocks, rounds)})
    return _cost_vs_first(rows)


def _metered(blocks: int = 256, rounds: int = 40,
             block_size: int = 4096) -> list[dict]:
    """What the observability layer costs: ``mem://`` vs
    ``metered://mem://`` over the same rounds (its untraced fast path is
    a ``perf_counter`` pair and one histogram bucket per call), with the
    p50/p99 it observed read back from its stats extras."""
    rows = []
    for uri in ("mem://", "metered://mem://"):
        get_registry().reset()
        with open_store(uri, num_blocks=blocks * 2,
                        block_size=block_size) as store:
            _vectored_rounds(store, blocks, 1)  # warm-up, excluded
            row = {"label": uri, **_vectored_rounds(store, blocks, rounds)}
            extra = store.snapshot().extra
        rows.append(row | {f"{op}_{q}_ms": extra[f"lat:mem:{op}:{q}"]
                           for op in ("write_many", "read_many")
                           for q in ("p50", "p99")
                           if f"lat:mem:{op}:{q}" in extra})
    return _cost_vs_first(rows)


# -- the table --------------------------------------------------------------

class Column(NamedTuple):
    """One printed cell: the row key, its header and a format spec."""

    key: str
    header: str
    fmt: str = ""


class Ablation(NamedTuple):
    """A title (formatted with the run's parameters), tables, and the run
    returning rows.  Each row has a ``label``; a table is a label column
    and data columns, showing the rows that have its first data column
    (``-`` for a cell the row lacks)."""

    title: str
    tables: tuple[tuple[Column, ...], ...]
    run: Callable[..., list[dict]]


def _cols(label: str, *cells: tuple[str, ...]) -> tuple[Column, ...]:
    return (Column("label", label), *(Column(*cell) for cell in cells))


_PHASES = tuple((phase, phase, ".0f") for phase in PHASES)
_LOGICAL = (("reads", "log.reads"), ("writes", "log.writes"))
_PHYSICAL = (("physical_reads", "phys.reads"),
             ("physical_writes", "phys.writes"))
_ROUNDS = (("write_ops_s", "write ops/s", ".0f"),
           ("read_ops_s", "read ops/s", ".0f"))
_COSTS = (("write_cost_pct", "write cost %", "+.1f"),
          ("read_cost_pct", "read cost %", "+.1f"))

#: name (the CLI word and the trajectory topic) -> ablation.
ABLATIONS: dict[str, Ablation] = {
    "backends": Ablation(
        "Storage backend ablation — FFS, Bonnie K/sec and block I/O",
        (_cols("Backend", *_PHASES),
         _cols("Backend", *_LOGICAL, *_PHYSICAL, ("leaves", "leaves"))),
        _bonnie_sweep),
    "replication": Ablation(
        "Replication ablation — FFS, Bonnie K/sec, write amplification, "
        "RPC round trips",
        (_cols("Backend", *_PHASES),
         _cols("Backend", ("replicas", "replicas"), *_LOGICAL, *_PHYSICAL),
         _cols("Remote config", ("round_trips", "rpc trips"), *_LOGICAL,
               ("bytes_sent", "bytes sent"))),
        _replication),
    "journal": Ablation(
        "Journal ablation — FFS, Bonnie K/sec, barriers, crash replay",
        (_cols("Backend", *_PHASES),
         _cols("Backend", ("writes", "log.writes"),
               ("physical_writes", "phys.writes"), ("fsyncs", "fsyncs"),
               ("journal_txns", "txns"), ("journal_blocks", "journaled"),
               ("blocks_per_txn", "blk/txn", ".1f"), ("in_place", "in place")),
         _cols("Replay", ("replayed_blocks", "blocks"),
               ("replayed_txns", "txns"), ("replay_ms", "ms", ".1f"))),
        _journal),
    "fanout": Ablation(
        "Fan-out ablation — {blocks} blocks x {rounds} rounds per cell, "
        "node latency {delay_ms:g} ms, straggler {slow_ms:g} ms",
        (_cols("Replica mode", ("write_ms_per_round", "write ms/round", ".1f"),
               ("drain_ms", "drain ms", ".1f"),
               ("background_writes", "bg writes")),),
        _fanout),
    "auth": Ablation(
        "Auth ablation — {blocks} blocks x {rounds} rounds per cell, "
        "{block_size}B blocks, {mounts} mounts",
        (_cols("Mount", ("mount_ms", "handshake ms", ".1f"), *_ROUNDS,
               *_COSTS),),
        _auth),
    "metered": Ablation(
        "Metered ablation — {blocks} blocks x {rounds} rounds per cell, "
        "{block_size}B blocks",
        (_cols("Backend", *_ROUNDS,
               *((f"{op}_{q}_ms", f"{op[0]} {q} ms", ".3f")
                 for op in ("write_many", "read_many") for q in ("p50", "p99")),
               *_COSTS),),
        _metered),
}


def _parameters(run: Callable) -> dict:
    return {name: param.default
            for name, param in inspect.signature(run).parameters.items()}


def print_table(name: str, rows: list[dict], **params) -> None:
    """Print ablation ``name``'s tables; ``params`` are the arguments the
    rows were run with (the title shows them, defaults filling in)."""
    ablation = ABLATIONS[name]
    tables = []
    for columns in ablation.tables:
        grid = [[column.header for column in columns]] + [
            [str(row["label"])] + ["-" if row.get(column.key) is None
                                   else format(row[column.key], column.fmt)
                                   for column in columns[1:]]
            for row in rows if columns[1].key in row
        ]
        widths = [max(map(len, cells)) for cells in zip(*grid)]
        if len(grid) > 1:  # some row has this table's columns
            tables.append("\n".join("  " + line[0].ljust(widths[0]) + "".join(
                cell.rjust(width + 2)
                for cell, width in zip(line[1:], widths[1:])) for line in grid))
    print("\n" + ablation.title.format(**_parameters(ablation.run) | params))
    print("\n\n".join(tables))


def trajectory_fields(name: str, rows: list[dict]) -> dict[str, float]:
    """``<row>:<column>`` -> value for every numeric cell of ablation
    ``name`` (row labels lose parentheses, spaces become ``_``)."""
    keys = {column.key for columns in ABLATIONS[name].tables
            for column in columns[1:]}
    return {"_".join(row["label"].replace("(", "").replace(")", "").split())
            + f":{key}": value
            for row in rows for key, value in row.items()
            if key in keys and type(value) in (int, float)}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--file-size", type=int, default=1 << 21,
                        help="Bonnie block-phase file size in bytes")
    parser.add_argument("--char-size", type=int, default=1 << 18,
                        help="Bonnie per-char phase size in bytes")
    parser.add_argument("--systems", nargs="*", default=list(PAPER_SYSTEMS))
    parser.add_argument("--cache", type=int, default=128,
                        help="DisCFS policy cache capacity")
    parser.add_argument("--ablation", nargs="+", default=[], metavar="NAME",
                        choices=[*ABLATIONS, "all"],
                        help="also print these ablation tables: "
                             + ", ".join(ABLATIONS) + " or all")
    parser.add_argument("--emit-trajectory", metavar="DIR", default=None,
                        help="append each ablation's numeric cells (plus "
                             "git sha, date) to DIR/BENCH_<name>.json")
    args = parser.parse_args(argv)

    print_report(run_evaluation(tuple(args.systems), args.file_size,
                                args.char_size, cache_capacity=args.cache))
    sizes = {"file_size": args.file_size, "char_size": args.char_size}
    names = ABLATIONS if "all" in args.ablation else args.ablation
    for name in dict.fromkeys(names):
        run = ABLATIONS[name].run
        params = {key: value for key, value in sizes.items()
                  if key in _parameters(run)}
        rows = run(**params)
        print_table(name, rows, **params)
        if args.emit_trajectory is not None:
            path = append_record(name, trajectory_fields(name, rows),
                                 directory=args.emit_trajectory)
            print(f"trajectory: appended {name!r} record to {path}")


if __name__ == "__main__":
    main()
