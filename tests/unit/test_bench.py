"""Unit tests for the benchmark substrate (targets, bonnie, workloads,
search, harness, timing)."""

import pytest

from repro.bench.bonnie import PHASES, run_bonnie, run_phase
from repro.bench.harness import PAPER_SYSTEMS, SYSTEMS, make_target
from repro.bench.search import run_search
from repro.bench.targets import LocalFFSTarget
from repro.bench.timing import QUANTUM_FIREBALL_CT10, DiskModel, LatencyModel
from repro.bench.workloads import SourceTreeSpec, generate_source_tree
from repro.fs.ffs import FFS
from repro.nfs.client import MAX_DATA
from repro.rpc.transport import InProcessTransport, TransportStats
from repro.storage.base import BlockDeviceStats

SMALL = 64 * 1024  # 64 KiB keeps test wall time low


class TestTargets:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_target_contract(self, system):
        built = make_target(system, device_blocks=2048)
        target = built.target
        f = target.create_file("/t.bin")
        f.write(b"hello world")
        f.flush()
        assert target.file_size("/t.bin") == 11
        g = target.open_file("/t.bin")
        assert g.read(5) == b"hello"
        assert g.getc() == ord(" ")
        g.seek(0)
        assert g.read(11) == b"hello world"
        target.remove_file("/t.bin")
        assert all(name != "t.bin" for name, _ in target.listdir("/"))

    def test_local_target_listdir_types(self):
        fs = FFS()
        fs.makedirs("/d")
        fs.write_file("/f", b"")
        target = LocalFFSTarget(fs)
        entries = dict(target.listdir("/"))
        assert entries["d"] is True
        assert entries["f"] is False

    def test_create_truncates_existing(self):
        built = make_target("FFS", device_blocks=1024)
        f = built.target.create_file("/x")
        f.write(b"0123456789")
        f.flush()
        g = built.target.create_file("/x")
        g.write(b"ab")
        g.flush()
        assert built.target.file_size("/x") == 2


class TestLocalFile:
    """``LocalFFSTarget`` files are :class:`RemoteFile` over direct FFS
    calls: the same stdio buffering the NFS targets get."""

    @pytest.fixture
    def target(self):
        fs = FFS()
        calls = []
        write = fs.write

        def counted_write(ino, offset, data):
            calls.append((offset, len(data)))
            return write(ino, offset, data)

        fs.write = counted_write
        target = LocalFFSTarget(fs)
        target.writes = calls
        return target

    def test_putc_goes_out_in_buffer_sized_chunks(self, target):
        f = target.create_file("/c")
        target.writes.clear()  # creating the file is not the stdio buffer's
        payload = bytes(i % 251 for i in range(2 * MAX_DATA + 10))
        for byte in payload:
            f.putc(byte)
        assert target.writes == [(0, MAX_DATA), (MAX_DATA, MAX_DATA)]
        f.flush()
        assert target.writes[-1] == (2 * MAX_DATA, 10)
        assert target.open_file("/c").read(len(payload) + 1) == payload

    def test_read_sees_unflushed_writes(self, target):
        f = target.create_file("/u")
        target.writes.clear()
        f.write(b"abc")
        assert target.writes == []
        f.seek(0)
        assert f.read(3) == b"abc"
        assert target.file_size("/u") == 3

    def test_rewrite_in_place_keeps_the_size(self, target):
        f = target.create_file("/r")
        f.write(bytes(100))
        f.flush()
        g = target.open_file("/r")
        assert g.read(10) == bytes(10)
        g.seek(0)
        g.write(b"XY")
        g.flush()
        assert target.file_size("/r") == 100
        assert target.open_file("/r").read(4) == b"XY\0\0"


class TestBonnie:
    @pytest.fixture(scope="class")
    def ffs_target(self):
        return make_target("FFS", device_blocks=8192).target

    def test_all_phases_complete(self, ffs_target):
        result = run_bonnie(ffs_target, file_size=SMALL, char_size=8192)
        assert set(result.phases) == set(PHASES)
        for phase in PHASES:
            assert result.phases[phase].seconds > 0
            assert result.kps(phase) > 0

    def test_phase_byte_counts(self, ffs_target):
        result = run_bonnie(ffs_target, file_size=SMALL, char_size=4096,
                            path="/b2.dat")
        assert result.phases["output_char"].nbytes == 4096
        assert result.phases["output_block"].nbytes == SMALL
        assert result.phases["rewrite"].nbytes == SMALL
        assert result.phases["input_block"].nbytes == SMALL

    def test_rewrite_preserves_size(self, ffs_target):
        f = ffs_target.create_file("/rw.dat")
        f.write(b"z" * SMALL)
        f.flush()
        run_phase(ffs_target, "rewrite", "/rw.dat", SMALL)
        assert ffs_target.file_size("/rw.dat") == SMALL

    def test_rewrite_dirties_blocks(self, ffs_target):
        f = ffs_target.create_file("/rd.dat")
        f.write(b"z" * 16384)
        f.flush()
        run_phase(ffs_target, "rewrite", "/rd.dat", 16384)
        data = ffs_target.open_file("/rd.dat").read(16384)
        # First byte of each 8K chunk flipped.
        assert data[0] == ord("z") ^ 0xFF
        assert data[8192] == ord("z") ^ 0xFF
        assert data[1] == ord("z")

    def test_bonnie_cleans_up(self, ffs_target):
        run_bonnie(ffs_target, file_size=8192, char_size=1024, path="/tmp.dat")
        assert all(n != "tmp.dat" for n, _ in ffs_target.listdir("/"))

    def test_input_phases_read_correct_data(self):
        built = make_target("CFS-NE", device_blocks=4096)
        result = run_bonnie(built.target, file_size=SMALL, char_size=4096)
        assert result.phases["input_char"].nbytes == 4096
        assert result.system == "CFS-NE"


class TestWorkloads:
    def test_tree_generation_deterministic(self):
        spec = SourceTreeSpec(directories=3, files_per_directory=4)
        t1 = make_target("FFS", device_blocks=4096).target
        t2 = make_target("FFS", device_blocks=4096).target
        m1 = generate_source_tree(t1, "/src", spec)
        m2 = generate_source_tree(t2, "/src", spec)
        assert m1 == m2
        assert len(m1) == 12

    def test_tree_matches_spec(self):
        spec = SourceTreeSpec(directories=4, files_per_directory=3,
                              other_files_per_directory=1)
        target = make_target("FFS", device_blocks=4096).target
        manifest = generate_source_tree(target, "/src", spec)
        assert len(manifest) == 12
        assert all(p.endswith((".c", ".h")) for p in manifest)
        for path, size in manifest.items():
            assert target.file_size(path) == size

    def test_tree_over_nfs_target(self):
        built = make_target("DisCFS", device_blocks=4096)
        spec = SourceTreeSpec(directories=2, files_per_directory=2)
        manifest = generate_source_tree(built.target, "/src", spec)
        assert len(manifest) == 4


class TestSearch:
    @pytest.fixture(scope="class")
    def prepared(self):
        built = make_target("FFS", device_blocks=8192)
        spec = SourceTreeSpec(directories=3, files_per_directory=4,
                              min_file_bytes=500, max_file_bytes=2000)
        manifest = generate_source_tree(built.target, "/src", spec)
        return built.target, manifest

    def test_counts_match_wc(self, prepared):
        target, manifest = prepared
        result = run_search(target, "/src")
        assert result.files_scanned == len(manifest)
        assert result.bytes == sum(manifest.values())
        # Recompute lines/words directly for cross-validation.
        lines = words = 0
        for path in manifest:
            data = target.open_file(path).read(10**6)
            lines += data.count(b"\n")
            words += len(data.split())
        assert result.lines == lines
        assert result.words == words

    def test_non_source_files_skipped(self, prepared):
        target, manifest = prepared
        result = run_search(target, "/src")
        assert result.files_scanned == len(manifest)  # READMEs not counted

    def test_same_counts_across_systems(self):
        spec = SourceTreeSpec(directories=2, files_per_directory=3)
        counts = {}
        for system in PAPER_SYSTEMS:
            built = make_target(system, device_blocks=8192)
            generate_source_tree(built.target, "/src", spec)
            r = run_search(built.target, "/src")
            counts[system] = (r.files_scanned, r.lines, r.words, r.bytes)
        assert len(set(counts.values())) == 1


class TestHarness:
    def test_unknown_system(self):
        with pytest.raises(ValueError):
            make_target("NTFS")

    def test_paper_systems_subset(self):
        assert set(PAPER_SYSTEMS) <= set(SYSTEMS)

    def test_discfs_cache_parameter(self):
        built = make_target("DisCFS", cache_capacity=7, device_blocks=1024)
        assert built.server.cache.capacity == 7

    def test_built_system_stats_access(self):
        built = make_target("DisCFS", device_blocks=1024)
        f = built.target.create_file("/s.dat")
        f.write(b"x" * 10000)
        f.flush()
        assert built.device_stats.writes > 0
        assert built.cache_stats is not None
        assert make_target("FFS", device_blocks=1024).cache_stats is None

    def test_cfs_encrypting_system(self):
        built = make_target("CFS", device_blocks=1024)
        f = built.target.create_file("/enc.dat")
        f.write(b"plaintext")
        f.flush()
        # ciphertext on substrate: directory names encrypted
        raw = [n for n, _ in built.fs.readdir(built.fs.root_ino)]
        assert "enc.dat" not in raw


class TestTiming:
    def test_disk_model_accounting(self):
        stats = BlockDeviceStats()
        stats.record_write(0, 8192)     # first access: counts as a seek? no
        stats.record_write(1, 8192)     # sequential
        stats.record_write(10, 8192)    # seek
        model = DiskModel(average_seek_seconds=0.01,
                          rotational_latency_seconds=0.005,
                          media_rate_bytes_per_second=8192 * 100)
        t = model.time_for(stats)
        # 1 seek * 15ms + 3 blocks / (100 blocks/s)
        assert t == pytest.approx(0.015 + 0.03)

    def test_quantum_fireball_profile(self):
        assert QUANTUM_FIREBALL_CT10.media_rate_bytes_per_second > 1e6

    def test_latency_model_accounting(self):
        stats = TransportStats(calls=2, bytes_sent=1000, bytes_received=1000)
        model = LatencyModel(rtt_seconds=0.001,
                             bandwidth_bytes_per_second=1_000_000)
        # 2 round trips + 2000 bytes at 1 MB/s
        assert model.time_for(stats) == pytest.approx(0.002 + 0.002)
        assert model.time_for(TransportStats()) == 0.0

    def test_latency_model_matches_per_call_charging(self):
        """Pricing the transport's totals equals charging every recorded
        call its own round trip plus wire time, as a per-call wrapper
        would have accumulated it."""
        sizes = [(12, 300), (4096, 40), (0, 0), (8500, 8200), (77, 1)]
        replies = iter(b"r" * out for _, out in sizes)
        transport = InProcessTransport(lambda request: next(replies))
        for request_bytes, _ in sizes:
            transport.call(b"q" * request_bytes)
        model = LatencyModel(rtt_seconds=0.0003,
                             bandwidth_bytes_per_second=9_000_000.0)
        per_call = 0.0
        for request_bytes, response_bytes in sizes:
            per_call += model.rtt_seconds + (
                (request_bytes + response_bytes)
                / model.bandwidth_bytes_per_second)
        assert model.time_for(transport.stats) == pytest.approx(
            per_call, rel=1e-12)

    def test_latency_model_defaults_are_the_testbed_ethernet(self):
        model = LatencyModel()
        assert model.bandwidth_bytes_per_second == 12_500_000.0  # 100 Mbps
        assert 0.0 < model.rtt_seconds < 0.001


class TestModeledReport:
    def test_modeled_bonnie_shape(self):
        from repro.bench.modeled import run_modeled_bonnie

        # Large enough that the wire (not per-phase seek constants)
        # bounds the network systems, as on the paper's testbed.
        size = 1 << 20
        results = {s: run_modeled_bonnie(s, file_size=size)
                   for s in ("FFS", "CFS-NE", "DisCFS")}
        # FFS has no network component; the others do.
        assert results["FFS"]["output_block"].network_seconds == 0.0
        assert results["CFS-NE"]["output_block"].network_seconds > 0.0
        assert results["DisCFS"]["output_block"].network_seconds > 0.0
        # Paper shape: FFS fastest; CFS-NE ~= DisCFS (within 10%).
        ffs = results["FFS"]["output_block"].kps
        cfsne = results["CFS-NE"]["output_block"].kps
        discfs = results["DisCFS"]["output_block"].kps
        assert ffs > cfsne
        assert abs(cfsne - discfs) / cfsne < 0.10
        # And the absolute regime is the testbed's (single-digit MB/s).
        assert 1_000 < cfsne < 20_000

    def test_modeled_print(self, capsys):
        from repro.bench.modeled import print_modeled_report

        print_modeled_report(file_size=128 * 1024)
        out = capsys.readouterr().out
        assert "Modeled" in out and "DisCFS" in out

    def test_network_model_wiring(self):
        """The modeled network time is priced from the built system's
        own transport counters, which see every RPC the client sends."""
        from repro.bench.modeled import run_modeled_bonnie

        built = make_target("DisCFS", device_blocks=1024)
        assert built.transport is built.client.transport
        built.transport.stats.reset()
        f = built.target.create_file("/n.dat")
        f.write(b"x" * 20000)
        f.flush()
        assert built.transport.stats.calls > 0
        assert LatencyModel().time_for(built.transport.stats) > 0.0
        assert make_target("FFS", device_blocks=1024).transport is None

        phase = run_modeled_bonnie("DisCFS", file_size=64 * 1024)["rewrite"]
        assert phase.network_seconds > 0.0


class TestAblationTable:
    def test_journal_run_leaves_no_scratch_files(self, tmp_path, monkeypatch):
        """Without a ``workdir`` the journal ablation's images, databases
        and replay journal live in a temporary directory that is gone
        when the run returns."""
        import tempfile

        from repro.bench.report import ABLATIONS

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        rows = ABLATIONS["journal"].run(file_size=16 * 1024, char_size=1024)
        assert rows[-1]["label"] == "crash replay"
        assert list(tmp_path.iterdir()) == []

    def test_print_table_and_trajectory_fields(self, capsys):
        from repro.bench.report import print_table, trajectory_fields

        rows = [
            {"label": "open", "mount_ms": 1.25, "write_ops_s": 100.0,
             "read_ops_s": 200.0, "write_s": 1.0, "read_s": 1.0,
             "write_cost_pct": 0.0, "read_cost_pct": 0.0},
            {"label": "session (tenant)", "mount_ms": 9.5,
             "write_ops_s": 50.0, "read_ops_s": 150.0, "write_s": 2.0,
             "read_s": 1.3, "write_cost_pct": 100.0, "read_cost_pct": 30.0},
        ]
        print_table("auth", rows, blocks=7)
        out = capsys.readouterr().out
        assert "Auth ablation — 7 blocks x 12 rounds" in out
        assert "session (tenant)" in out and "+100.0" in out
        # write_s/read_s feed the cost columns but are not cells.
        assert trajectory_fields("auth", rows) == {
            "open:mount_ms": 1.25, "open:write_ops_s": 100.0,
            "open:read_ops_s": 200.0, "open:write_cost_pct": 0.0,
            "open:read_cost_pct": 0.0,
            "session_tenant:mount_ms": 9.5,
            "session_tenant:write_ops_s": 50.0,
            "session_tenant:read_ops_s": 150.0,
            "session_tenant:write_cost_pct": 100.0,
            "session_tenant:read_cost_pct": 30.0,
        }

    def test_missing_cells_print_a_dash_and_tables_select_rows(self, capsys):
        from repro.bench.report import print_table

        rows = [{"label": "mem://", "write_ops_s": 1.0, "read_ops_s": 2.0},
                {"label": "crash replay", "replayed_blocks": 3,
                 "replayed_txns": 1, "replay_ms": 0.5}]
        print_table("metered", rows[:1])
        assert capsys.readouterr().out.split("\n")[3].split()[-1] == "-"
        print_table("journal", rows[1:])
        out = capsys.readouterr().out
        assert "crash replay" in out and "output_char" not in out

    def test_cli_runs_named_ablations_and_emits_trajectory(
            self, tmp_path, capsys, monkeypatch):
        from repro.bench import report
        from repro.obs.trajectory import read_records

        calls = []

        def fake_run(configs=(), file_size=0, char_size=0):
            calls.append((file_size, char_size))
            return [{"label": "mem://", "reads": 3, "writes": 4,
                     "physical_reads": 3, "physical_writes": 4, "leaves": 1}]

        monkeypatch.setitem(report.ABLATIONS, "backends",
                            report.ABLATIONS["backends"]._replace(run=fake_run))
        report.main(["--systems", "FFS", "--file-size", "16384",
                     "--char-size", "1024", "--ablation", "backends",
                     "--emit-trajectory", str(tmp_path)])
        assert calls == [(16384, 1024)]
        assert "Storage backend ablation" in capsys.readouterr().out
        [record] = read_records(tmp_path / "BENCH_backends.json")
        assert record["topic"] == "backends"
        assert record["mem://:physical_writes"] == 4

    def test_cli_rejects_unknown_ablation(self, capsys):
        from repro.bench import report

        with pytest.raises(SystemExit):
            report.main(["--ablation", "nope"])
        assert "invalid choice" in capsys.readouterr().err
