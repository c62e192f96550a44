"""The ``discfs`` command table: one row per subcommand, and what is
derived from it — the parser, the ``--help`` listing, the client
connection flags, argument validation and the ``store-inspect`` tables.

``tests/unit/test_cli.py`` drives each command end to end; this file
checks the table's own contract.
"""

import re

import pytest

import repro.storage
import repro.storage.metered
from repro.cli import COMMANDS, main
from repro.errors import QuotaExceeded
from repro.obs.metrics import MetricsRegistry
from repro.storage import SpecTree
from repro.storage.base import Capabilities, StoreStats

CLIENT_FLAGS = ("--server", "--key", "--attach", "--credential")


def _help(argv, capsys, monkeypatch) -> str:
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_every_row_has_a_one_line_help():
    assert len(COMMANDS) == 22
    assert len({row.name for row in COMMANDS}) == 22
    for row in COMMANDS:
        assert row.help.strip() and "\n" not in row.help, row.name


def test_top_level_help_lists_every_command_once_in_row_order(
        capsys, monkeypatch):
    out = _help([], capsys, monkeypatch)
    listed = re.findall(r"^    (\S+)", out, re.MULTILINE)
    assert listed == [row.name for row in COMMANDS]


@pytest.mark.parametrize("row", COMMANDS, ids=lambda row: row.name)
def test_client_rows_and_only_they_take_the_connection_flags(
        row, capsys, monkeypatch):
    out = _help([row.name], capsys, monkeypatch)
    if row.client:
        for flag in CLIENT_FLAGS:
            assert flag in out
    else:
        assert "--server" not in out and "--attach" not in out


@pytest.mark.parametrize("argv, flag", [
    (["issue", "--key", "k", "--licensee", "l", "--handle", "1.1",
      "--hours", "9"], "--hours"),
    (["ls", "--server", "127.0.0.1", "--key", "k"], "--server"),
    (["cat", "--server", "127.0.0.1:http", "--key", "k", "/f"], "--server"),
    (["store-serve", "--blocks", "0", "--oneshot"], "--blocks"),
    (["store-serve", "--bs", "0", "--oneshot"], "--bs"),
    (["store-serve", "--blocks", "-3", "--oneshot"], "--blocks"),
])
def test_malformed_arguments_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith(f"discfs {argv[0]}: error: argument {flag}")
    assert "Traceback" not in err


def _inspect_tables(argv, capsys) -> str:
    """What ``store-inspect`` prints after the topology tree."""
    assert main(["store-inspect", *argv]) == 0
    return capsys.readouterr().out.split("\n\n", 1)[1]


TENANT_URI = "tenant://mem://#name=alice&offset=4&blocks=16&quota=8&rate=100"

TENANT_TABLE = """\
tenant  region  used  reads  writes  bytes-w  limits      denied
alice   [4,20)  8     3      9       73728    8blk,100/s  1
"""


def test_store_inspect_prints_a_local_tenant_table(monkeypatch, capsys):
    open_store = repro.storage.open_store

    def exercised(spec, **geometry):
        store = open_store(spec, **geometry)
        for block in range(8):
            store.write(block, b"a" * 100)
        with pytest.raises(QuotaExceeded):
            store.write(8, b"over quota")
        store.write(0, b"rewrite")
        store.read(0)
        store.read(3)
        store.read(15)
        return store

    monkeypatch.setattr(repro.storage, "open_store", exercised)
    assert _inspect_tables([TENANT_URI], capsys) == TENANT_TABLE


def test_store_inspect_prints_the_metered_latency_table(monkeypatch, capsys):
    # A private registry: the process-wide one keeps counting across tests.
    registry = MetricsRegistry()
    monkeypatch.setattr(repro.storage.metered, "get_registry", lambda: registry)
    lines = _inspect_tables(["metered://mem://", "--exercise"],
                            capsys).splitlines()
    assert lines[0] == "layer  op    count  p50(ms)  p95(ms)  p99(ms)"
    assert re.fullmatch(r"mem    read  2      \d+\.\d{3}  +\d+\.\d{3}  +"
                        r"\d+\.\d{3}", lines[1])


def test_store_inspect_regroups_flat_extras_across_nodes(monkeypatch,
                                                         capsys):
    """Keys missing a segment are ignored, a tenant name may hold a
    colon, and a served node's snapshot merges into the local one's."""

    def node(extra, remote=None, children=()):
        return SpecTree("mem", "mem://", Capabilities(), StoreStats(extra=extra),
                        list(children), remote)

    tree = node(
        {"tenant:used": 1, "tenant::used": 2, "tenant:a:b:used": 3,
         "lat:mem:p50": 4, "lat::read:p50": 5, "lat:x:y:z:p50": 6,
         "lat:mem:read:": 7, "auth_denied": 2},
        remote=StoreStats(extra={"tenant:bob:reads": 4, "auth_denied": 1}),
        children=[node({"tenant:bob:used": 5, "tenant:a:b:writes": 6,
                        "lat:mem:read:count": 9, "lat:mem:read:p50": 0.25})],
    )
    monkeypatch.setattr(repro.storage, "describe", lambda store: tree)
    assert _inspect_tables(["mem://"], capsys) == """\
tenant  region  used  reads  writes  bytes-w  limits  denied
a:b     [0,0)   3     0      6       0        -       0
bob     [0,0)   5     4      0       0        -       0

layer  op    count  p50(ms)  p95(ms)  p99(ms)
mem    read  9      0.250    0.000    0.000
auth: 3 request(s) denied
"""
