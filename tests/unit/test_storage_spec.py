"""The typed StoreSpec layer: parsing, rendering, builders, validation.

Complemented by ``tests/property/test_prop_storage_spec.py`` (the
hypothesis round-trip property) and the conformance suite (which proves
every documented URI still *opens*); this file pins the golden cases:
exact spec shapes for each grammar form, the builder API, and the
error messages — misspelled schemes and options must name a suggestion,
and unknown options must raise instead of being silently ignored.
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidArgument
from repro.storage import build, open_store, parse_spec, registered_schemes
from repro.storage import spec as specs
from repro.storage.spec import (
    CachedSpec,
    FailingSpec,
    FileSpec,
    JournalSpec,
    MemSpec,
    RemoteSpec,
    ReplicaSpec,
    SlowSpec,
    SpecError,
)


class TestParseLeafForms:
    def test_mem_plain(self):
        assert parse_spec("mem://") == MemSpec()

    def test_mem_geometry(self):
        assert parse_spec("mem://?blocks=7&bs=1024") == MemSpec(blocks=7,
                                                               bs=1024)

    def test_file_path(self):
        assert parse_spec("file:///tmp/a.img") == FileSpec(path="/tmp/a.img")

    def test_remote_endpoint_and_options(self):
        assert parse_spec(
            "remote://127.0.0.1:9001?timeout=2.5&batch=off&workers=3"
        ) == RemoteSpec(host="127.0.0.1", port=9001, timeout=2.5,
                        batch=False, workers=3)

    def test_missing_paths_rejected(self):
        with pytest.raises(SpecError, match="file:// needs a path"):
            parse_spec("file://")
        with pytest.raises(SpecError, match="host:port"):
            parse_spec("remote://nohost")


class TestParseCompositeForms:
    def test_replica_count_form_expands_children(self):
        assert parse_spec("replica://3") == ReplicaSpec(
            replicas=[MemSpec(), MemSpec(), MemSpec()]
        )

    def test_replica_count_form_with_file_base(self, tmp_path):
        spec = parse_spec(f"replica://2?base=file&dir={tmp_path}&bs=512")
        assert spec == ReplicaSpec(replicas=[
            FileSpec(path=f"{tmp_path}/replica-0.blk", bs=512),
            FileSpec(path=f"{tmp_path}/replica-1.blk", bs=512),
        ])

    def test_replica_explicit_children_and_fanout(self):
        assert parse_spec("replica://mem://;mem://#fanout=2") == ReplicaSpec(
            replicas=[MemSpec(), MemSpec()], fanout=2
        )

    def test_replica_template_form(self):
        spec = parse_spec("replica://2/failing://mem://#w=2&r=1")
        assert spec == ReplicaSpec(
            replicas=[FailingSpec(child=MemSpec()),
                      FailingSpec(child=MemSpec())],
            w=2, r=1,
        )

    def test_replica_template_index_substitution(self, tmp_path):
        spec = parse_spec(f"replica://2/file://{tmp_path}/r-{{i}}.img#w=1")
        assert spec == ReplicaSpec(replicas=[
            FileSpec(path=f"{tmp_path}/r-0.img"),
            FileSpec(path=f"{tmp_path}/r-1.img"),
        ], w=1)

    def test_replica_new_options(self):
        spec = parse_spec(
            "replica://mem://;mem://;mem://#w=2&r=2&hedge_ms=5&stamps=/tmp/s"
        )
        assert spec == ReplicaSpec(
            replicas=[MemSpec()] * 3, w=2, r=2, hedge_ms=5.0,
            stamps="/tmp/s",
        )

    def test_wrapper_forms(self, tmp_path):
        assert parse_spec("cached://mem://#capacity=16") == CachedSpec(
            child=MemSpec(), capacity=16
        )
        assert parse_spec(
            f"journal://mem://#path={tmp_path}/j&cap=8"
        ) == JournalSpec(child=MemSpec(), cap=8, path=f"{tmp_path}/j")
        assert parse_spec("slow://mem://#ms=5") == SlowSpec(child=MemSpec(),
                                                            ms=5.0)
        assert parse_spec("failing://mem://#fail=1") == FailingSpec(
            child=MemSpec(), fail=True
        )

    def test_nested_composite_with_inner_fragment(self):
        spec = parse_spec("replica://slow://mem://#ms=1;mem://;mem://#w=2&r=2")
        assert spec == ReplicaSpec(
            replicas=[SlowSpec(child=MemSpec(), ms=1.0), MemSpec(),
                      MemSpec()],
            w=2, r=2,
        )

    def test_deep_nesting(self, tmp_path):
        spec = parse_spec(
            f"cached://journal://file://{tmp_path}/x.img#capacity=8"
        )
        assert spec == CachedSpec(
            child=JournalSpec(child=FileSpec(path=f"{tmp_path}/x.img")),
            capacity=8,
        )


class TestRendering:
    def test_count_form_canonicalizes_to_explicit(self):
        assert parse_spec("replica://2").to_uri() == "replica://mem://;mem://"

    def test_options_render_only_when_set(self):
        assert parse_spec("cached://mem://").to_uri() == "cached://mem://"
        assert parse_spec("cached://mem://#capacity=4").to_uri() == \
            "cached://mem://#capacity=4"

    def test_ambiguous_nested_multichild_rejected(self):
        nested = specs.cached(specs.replica(specs.mem(), specs.mem()))
        # legal as the sole child of a wrapper...
        assert nested.to_uri() == "cached://replica://mem://;mem://"
        # ...but not inside a semicolon list, where the parent would
        # re-split the child at its own semicolons.
        with pytest.raises(SpecError, match="semicolon"):
            specs.replica(nested, specs.mem()).to_uri()

    def test_ambiguous_trailing_fragment_rejected(self):
        inner = specs.failing(specs.mem(), fail=True)
        outer = specs.failing(inner)  # outer has no options of its own
        with pytest.raises(SpecError, match="re-parse"):
            outer.to_uri()


class TestBuilders:
    def test_issue_example_shape(self):
        spec = specs.replica(specs.remote("h1:9001"), specs.remote("h2:9001"),
                             fanout=2)
        assert spec == ReplicaSpec(
            replicas=[RemoteSpec(host="h1", port=9001),
                      RemoteSpec(host="h2", port=9001)],
            fanout=2,
        )
        assert spec.to_uri() == \
            "replica://remote://h1:9001;remote://h2:9001#fanout=2"

    def test_builders_accept_uri_strings(self):
        assert specs.cached("mem://", capacity=4) == CachedSpec(
            child=MemSpec(), capacity=4
        )

    def test_builder_validation_is_immediate(self):
        with pytest.raises(SpecError, match="write quorum"):
            specs.replica(specs.mem(), specs.mem(), w=3)
        with pytest.raises(SpecError, match="fanout"):
            specs.replica(specs.mem(), fanout=0)
        with pytest.raises(SpecError, match="capacity"):
            specs.cached(specs.mem(), capacity=0)

    def test_open_store_accepts_specs(self):
        store = open_store(specs.cached(specs.mem(), capacity=4),
                           num_blocks=16, block_size=512)
        try:
            store.write(3, b"via spec")
            assert store.read(3).startswith(b"via spec")
            assert store.capacity == 4
        finally:
            store.close()

    def test_build_equals_uri_pipeline(self):
        via_uri = open_store("replica://3?w=2", num_blocks=64, block_size=512)
        via_spec = build(parse_spec("replica://3?w=2"), num_blocks=64,
                         block_size=512)
        try:
            assert via_uri.describe() == via_spec.describe()
            assert [child.describe() for child in via_uri.child_stores()] \
                == [child.describe() for child in via_spec.child_stores()]
        finally:
            via_uri.close()
            via_spec.close()


class TestGoldenErrors:
    """Misspellings must point at the right name; unknown options raise."""

    def test_scheme_typo_suggestions(self):
        with pytest.raises(InvalidArgument, match="did you mean 'replica'"):
            parse_spec("replicas://2")
        with pytest.raises(InvalidArgument, match="did you mean 'replica'"):
            parse_spec("replcia://3")
        with pytest.raises(InvalidArgument, match="did you mean 'cached'"):
            parse_spec("cache://mem://")

    def test_query_option_typo_suggestion(self):
        with pytest.raises(SpecError, match="did you mean 'workers'"):
            parse_spec("remote://h:1?workres=2")
        with pytest.raises(SpecError, match="did you mean 'blocks'"):
            parse_spec("mem://?blocs=7")

    def test_fragment_option_typo_suggestion(self):
        with pytest.raises(SpecError, match="did you mean 'fanout'"):
            parse_spec("replica://mem://;mem://#fanuot=2")
        with pytest.raises(SpecError, match="did you mean 'capacity'"):
            parse_spec("cached://mem://#capasity=8")
        with pytest.raises(SpecError, match="did you mean 'hedge_ms'"):
            parse_spec("replica://mem://;mem://#w=2&hedge_mss=5")

    def test_stray_fragment_never_leaks_into_a_path(self):
        """A typo'd overlay option sliding down to a path-addressed
        child must raise, not silently open a '#'-suffixed file."""
        with pytest.raises(SpecError, match="did you mean 'capacity'"):
            parse_spec("cached://file:///tmp/fs.img#capasity=8")
        with pytest.raises(SpecError, match="no #fragment"):
            parse_spec("file:///tmp/fs.img#cap=8")
        # remote:// *does* take a fragment now (session options), so a
        # query option landing there gets redirected, not accepted.
        with pytest.raises(SpecError, match=r"belongs in the \?query"):
            parse_spec("remote://h:9001#workers=2")
        # ...including when it rides alongside real session options
        # (the mixed-fragment path must not suggest 'workers' to itself).
        with pytest.raises(SpecError, match=r"belongs in the \?query"):
            parse_spec("remote://h:9001#key=/tmp/k&workers=2")
        with pytest.raises(SpecError, match="did you mean 'workers'"):
            parse_spec("remote://h:9001#key=/tmp/k&wrokers=2")
        with pytest.raises(SpecError, match="unknown remote:// fragment"):
            parse_spec("remote://h:9001#credential=/tmp/c")

    def test_cross_scheme_suggestion_names_the_owner(self):
        with pytest.raises(SpecError, match=r"a cached:// option"):
            parse_spec("cached://mem://#capasity=8")

    def test_unknown_options_raise_not_ignored(self):
        # Before the spec layer these were silently dropped.
        with pytest.raises(SpecError, match="unknown"):
            parse_spec("mem://?bogus=1")
        with pytest.raises(SpecError, match="unknown"):
            parse_spec("remote://h:1?battch=off")
        with pytest.raises(SpecError):
            parse_spec("replica://3?wq=2")

    def test_errors_name_the_scheme(self):
        with pytest.raises(SpecError, match="replica:// write quorum"):
            parse_spec("replica://3?w=9")
        with pytest.raises(SpecError, match="slow:// option ms"):
            parse_spec("slow://mem://#ms=-1")
        with pytest.raises(SpecError, match="journal:// option cap"):
            parse_spec("journal://mem://#cap=0&path=/tmp/j")

    def test_invalid_geometry_rejected_at_parse_time(self):
        with pytest.raises(SpecError, match="blocks=0"):
            parse_spec("mem://?blocks=0")
        with pytest.raises(SpecError, match="multiple of 512"):
            parse_spec("mem://?bs=100")

    def test_malformed_option_values_rejected(self):
        with pytest.raises(SpecError, match="not an integer"):
            parse_spec("mem://?blocks=seven")
        with pytest.raises(SpecError, match="not a number"):
            parse_spec("slow://mem://#ms=fast")
        with pytest.raises(SpecError, match="not on/off"):
            parse_spec("remote://h:1?batch=maybe")


class TestSchemeRegistry:
    def test_every_registered_scheme_has_a_spec_type(self):
        assert set(registered_schemes()) == set(specs.known_schemes())

    def test_walk_visits_every_layer(self):
        spec = parse_spec("cached://replica://2#capacity=4")
        schemes = [s.scheme for s in spec.walk()]
        assert schemes == ["cached", "replica", "mem", "mem"]

    def test_option_census(self):
        """Every (scheme, option) pair a URI may carry, pinned: adding or
        removing a storage option shows up in this file's diff."""
        census = {scheme: sorted(specs._shape(cls).names)
                  for scheme, cls in specs.SPEC_TYPES.items()}
        assert census == {
            "cached": ["capacity"],
            "failing": ["fail"],
            "file": ["blocks", "bs"],
            "journal": ["cap", "path"],
            "mem": ["blocks", "bs"],
            "metered": ["ring", "slow_ms"],
            "remote": ["batch", "cred", "key", "rights", "tenant", "timeout",
                       "workers"],
            "replica": ["base", "blocks", "bs", "dir", "fanout", "hedge_ms",
                        "r", "stamps", "w"],
            "slow": ["ms"],
            "tenant": ["blocks", "burst", "bytes", "name", "offset", "quota",
                       "rate"],
        }
        assert sum(map(len, census.values())) == 34


class TestProgrammaticOnlyTopologies:
    """Specs with no URI form (nested multi-child composites) must
    still open, adapt to devices, and degrade lazily."""

    def _nested(self):
        return specs.replica(
            specs.replica(specs.mem(), specs.mem()),
            specs.replica(specs.mem(), specs.mem()),
            w=1, r=1,
        )

    def test_open_store_builds_unrepresentable_spec(self):
        store = open_store(self._nested(), num_blocks=64, block_size=512)
        try:
            store.write(5, b"no uri form")
            assert store.read(5).startswith(b"no uri form")
        finally:
            store.close()

    def test_open_device_tolerates_missing_uri_form(self):
        from repro.storage import open_device

        device = open_device(self._nested(), num_blocks=64, block_size=512)
        try:
            assert device.uri is None  # no canonical URI to record
            device.write_block(1, b"adapted")
            assert device.read_block(1).startswith(b"adapted")
        finally:
            device.close()

    def test_replica_lazy_wraps_unrepresentable_down_child(self):
        """A down child whose spec has no URI form mounts as built — no
        wrapper added — instead of failing the whole quorum mount."""
        import socket

        from repro.storage import FailingBlockStore, RemoteBlockStore

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()  # endpoint now refuses connections
        # An option-less wrapper over one with a fragment renders a URI
        # that would re-parse differently, so it has no URI form.
        nested_down = specs.failing(specs.failing(
            specs.remote(f"{host}:{port}", timeout=0.2), fail=True))
        store = open_store(
            specs.replica(nested_down, specs.mem(), w=1, r=1),
            num_blocks=64, block_size=512,
        )
        try:
            down = store.children[0]
            assert isinstance(down, FailingBlockStore)
            assert isinstance(down.child, FailingBlockStore)
            assert isinstance(down.child.child, RemoteBlockStore)
            store.write(2, b"served by the quorum")
            store.drain()
            assert store.read(2).startswith(b"served by the quorum")
        finally:
            store.close()


class TestMeteredSpec:
    """The observability overlay's typed spec: parse, render, validate,
    and the standard typo-suggestion contract for its options."""

    def test_parse_and_round_trip(self):
        spec = parse_spec("metered://cached://mem://#slow_ms=50&ring=128")
        assert spec.scheme == "metered"
        assert spec.slow_ms == 50.0
        assert spec.ring == 128
        assert spec.child.scheme == "cached"
        assert spec.to_uri() == \
            "metered://cached://mem://#slow_ms=50.0&ring=128"

    def test_defaults_render_bare(self):
        assert parse_spec("metered://mem://").to_uri() == "metered://mem://"

    def test_builder(self):
        spec = specs.metered(specs.mem(), slow_ms=5.0, ring=64)
        assert spec.to_uri() == "metered://mem://#slow_ms=5.0&ring=64"

    def test_option_typo_suggestions(self):
        with pytest.raises(SpecError, match="did you mean 'slow_ms'"):
            parse_spec("metered://mem://#slow_mss=5")
        with pytest.raises(SpecError, match="did you mean 'ring'"):
            parse_spec("metered://mem://#rign=64")

    def test_scheme_typo_suggestion(self):
        with pytest.raises(InvalidArgument, match="did you mean 'metered'"):
            parse_spec("metred://mem://")

    def test_validation(self):
        with pytest.raises(SpecError, match="slow_ms"):
            parse_spec("metered://mem://#slow_ms=-1")
        with pytest.raises(SpecError, match="ring"):
            parse_spec("metered://mem://#ring=0")

    def test_options_reach_the_built_store(self):
        from repro.storage import open_store

        store = open_store("metered://mem://#slow_ms=7.5&ring=32")
        try:
            assert store.scheme == "metered"
            assert store.slow_ms == 7.5
        finally:
            store.close()


class TestValuesThatCannotRoundTrip:
    """A value whose rendered URI would not re-parse to the same spec is
    rejected when the spec is validated or rendered — never silently
    turned into a different spec."""

    @pytest.mark.parametrize("uri, option", [
        ("slow://mem://#ms=inf", "ms"),
        ("slow://mem://#ms=nan", "ms"),
        ("metered://mem://#slow_ms=nan", "slow_ms"),
        ("remote://h:1?timeout=nan", "timeout"),
        ("remote://h:1?timeout=inf", "timeout"),
        ("tenant://mem://#name=a&rate=nan", "rate"),
        ("tenant://mem://#name=a&rate=inf", "rate"),
        ("replica://3?hedge_ms=nan", "hedge_ms"),
        ("replica://3?hedge_ms=inf", "hedge_ms"),
    ])
    def test_non_finite_floats_rejected_at_parse_time(self, uri, option):
        scheme = uri.partition("://")[0]
        with pytest.raises(SpecError,
                           match=rf"{scheme}:// option {option}=.*finite"):
            parse_spec(uri)

    def test_non_finite_floats_rejected_from_the_builder_too(self):
        with pytest.raises(SpecError, match="slow:// option ms"):
            specs.slow(specs.mem(), ms=float("inf"))
        with pytest.raises(SpecError, match="finite"):
            SlowSpec(child=MemSpec(), ms=float("nan")).to_uri()

    @pytest.mark.parametrize("make, option", [
        (lambda v: JournalSpec(child=MemSpec(), path=v), "path"),
        (lambda v: ReplicaSpec(replicas=[MemSpec()], stamps=v), "stamps"),
        (lambda v: specs.TenantSpec(child=MemSpec(), name=v), "name"),
        (lambda v: RemoteSpec(host="h", port=1, key="/k", cred=v), "cred"),
        (lambda v: RemoteSpec(host="h", port=1, key=v), "key"),
    ])
    @pytest.mark.parametrize("value", ["/tmp/a&cap=1", "/tmp/a#b"])
    def test_reserved_characters_in_string_options(self, make, option, value):
        spec = make(value)
        with pytest.raises(SpecError, match=rf"option {option}="):
            spec.validate()
        with pytest.raises(SpecError, match=rf"option {option}="):
            spec.to_uri()
        with pytest.raises(SpecError, match=rf"option {option}="):
            parse_spec(spec)

    def test_issue_example_no_longer_changes_meaning(self):
        # Used to render journal://file:///x/a.img#path=/tmp/a&cap=1,
        # which re-parses as cap=1, path="/tmp/a".
        with pytest.raises(SpecError, match="option path="):
            specs.journal(specs.file("/x/a.img"), path="/tmp/a&cap=1")

    @pytest.mark.parametrize("spec_cls", [FileSpec])
    @pytest.mark.parametrize("path", ["/tmp/a?b", "/tmp/a#b", "/d?x=1#y=2"])
    def test_reserved_characters_in_a_leaf_path(self, spec_cls, path):
        with pytest.raises(SpecError, match=r"path .* cannot contain"):
            spec_cls(path=path).validate()
        with pytest.raises(SpecError, match=r"path .* cannot contain"):
            spec_cls(path=path).to_uri()

    def test_count_form_dir_is_covered_through_the_child_path(self):
        with pytest.raises(SpecError, match="cannot contain"):
            parse_spec("replica://2?base=file&dir=/tmp/a#b=1")

    def test_values_that_round_trip_today_keep_working(self):
        for spec in (
            specs.cached(specs.file("/tmp/a;b.img"), capacity=4),
            specs.replica(specs.mem(), specs.mem(), stamps="/tmp/s;1"),
            specs.journal(specs.mem(), path="/tmp/j?=x"),
        ):
            assert parse_spec(spec.to_uri()) == spec


class TestDerivedListings:
    """``discfs backends`` and the README table are generated from the
    ``examples`` rows the spec classes declare — one source, so they
    cannot drift (this replaces the README half of the retired
    ``registry-coverage`` lint rule)."""

    def test_every_scheme_declares_example_rows(self):
        rows = specs.backend_rows()
        assert {scheme for scheme, _, _ in rows} == set(registered_schemes())
        for scheme, uri, meaning in rows:
            assert uri.startswith(f"{scheme}://") and meaning

    def test_examples_without_placeholders_parse(self):
        placeholders = ("<", "[", "...", "|")
        concrete = [uri for _, uri, _ in specs.backend_rows()
                    if not any(mark in uri for mark in placeholders)]
        assert len(concrete) >= 6
        for uri in concrete:
            parse_spec(uri)

    def test_readme_table_is_the_derived_listing(self):
        from pathlib import Path

        readme = Path(__file__).resolve().parents[2] / "README.md"
        section = readme.read_text(encoding="utf-8").split(
            "## Storage backends")[1]
        table = section[section.index("| URI | Backend |"):].split("\n\n")[0]
        rows = [
            tuple(cell.strip().replace("\\|", "|")
                  for cell in line.strip("|").split(" | "))
            for line in table.splitlines()[2:]
        ]
        assert rows == [(f"`{uri}`", meaning)
                        for _, uri, meaning in specs.backend_rows()]

    def test_cli_prints_the_same_rows(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{scheme:<8} {uri}  --  {meaning}"
            for scheme, uri, meaning in specs.backend_rows()
        ]
