"""Property: ``parse_spec(s.to_uri()) == s`` for every registered scheme.

Hypothesis generates random spec trees — every leaf scheme, every
composite, nested — renders them to a URI and parses back.  The URI
grammar cannot express *every* programmatic spec (a multi-child
composite inside a semicolon list, or an option-less wrapper over a
child whose trailing fragment would re-parse as the wrapper's own);
``to_uri`` raises ``SpecError`` for those, and the property skips them —
what it proves is that every spec **with** a URI form round-trips
exactly, which covers everything ``parse_spec`` itself can produce.

A second pass draws the string-valued fields (paths, names) from an
alphabet full of the characters the grammar reserves (``? # & ; =``):
there the property is "round-trips equal **or** raises ``SpecError``" —
rendering may refuse, but must never produce a URI that parses to a
*different* spec.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.storage import spec as specs
from repro.storage.spec import SpecError, parse_spec

# -- strategies -------------------------------------------------------------

geometry = st.one_of(st.none(), st.integers(min_value=1, max_value=1 << 20))
block_sizes = st.one_of(
    st.none(), st.integers(min_value=1, max_value=64).map(lambda n: n * 512)
)
#: Path/name text that survives a URI round trip (no ?, #, ;, & or =).
SAFE = "abcdefghijklmnopqrstuvwxyz0123456789_-./"
#: Text thick with what the grammar reserves, plus the ``{i}`` template
#: marker and ``://`` — anything ``to_uri`` accepts must still re-parse.
WILD = "ab/._-?#&;=:{i}"
hosts = st.sampled_from(["127.0.0.1", "h1", "node-7.local"])
ports = st.integers(min_value=1, max_value=65535)
millis = st.one_of(
    st.none(),
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False,
              allow_infinity=False),
)


@st.composite
def remote_specs(draw, paths, tenant_names):
    # The session fields have dependencies (cred/tenant/rights need key),
    # so draw key first rather than generate-and-discard invalid combos.
    key = draw(st.one_of(st.none(), paths))
    cred = tenant = rights = None
    if key is not None:
        cred = draw(st.one_of(st.none(), paths))
        tenant = draw(st.one_of(st.none(), tenant_names))
        rights = draw(st.one_of(st.none(),
                                st.sampled_from(("r", "rw", "admin"))))
    return specs.RemoteSpec(
        host=draw(hosts), port=draw(ports),
        timeout=draw(st.one_of(
            st.none(),
            st.floats(min_value=0.1, max_value=60.0, allow_nan=False),
        )),
        batch=draw(st.one_of(st.none(), st.booleans())),
        workers=draw(st.one_of(st.none(),
                               st.integers(min_value=1, max_value=8))),
        cred=cred, key=key, tenant=tenant, rights=rights,
    )


def leaf_specs(paths, tenant_names) -> st.SearchStrategy:
    return st.one_of(
        st.builds(specs.MemSpec, blocks=geometry, bs=block_sizes),
        st.builds(specs.FileSpec, path=paths, blocks=geometry, bs=block_sizes),
        remote_specs(paths, tenant_names),
    )


def composite_specs(children, paths, tenant_names) -> st.SearchStrategy:
    child_lists = st.lists(children, min_size=1, max_size=4)

    @st.composite
    def replica_specs(draw):
        replicas = draw(child_lists)
        n = len(replicas)
        return specs.ReplicaSpec(
            replicas=replicas,
            w=draw(st.one_of(st.none(),
                             st.integers(min_value=1, max_value=n))),
            r=draw(st.one_of(st.none(),
                             st.integers(min_value=1, max_value=n))),
            fanout=draw(st.one_of(st.none(),
                                  st.integers(min_value=1, max_value=8))),
            hedge_ms=draw(millis),
            stamps=draw(st.one_of(st.none(), paths)),
        )

    @st.composite
    def tenant_specs(draw):
        rate = draw(st.one_of(
            st.none(),
            st.floats(min_value=0.5, max_value=1000.0, allow_nan=False),
        ))
        burst = None if rate is None else draw(st.one_of(
            st.none(),
            st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        ))
        return specs.TenantSpec(
            child=draw(children),
            name=draw(tenant_names),
            offset=draw(st.one_of(st.none(),
                                  st.integers(min_value=0, max_value=1024))),
            blocks=draw(st.one_of(st.none(),
                                  st.integers(min_value=1, max_value=1024))),
            quota=draw(st.one_of(st.none(),
                                 st.integers(min_value=1, max_value=1024))),
            bytes=draw(st.one_of(st.none(),
                                 st.integers(min_value=1,
                                             max_value=1 << 20))),
            rate=rate, burst=burst,
        )

    return st.one_of(
        replica_specs(),
        st.builds(
            specs.CachedSpec, child=children,
            capacity=st.one_of(st.none(),
                               st.integers(min_value=1, max_value=4096)),
        ),
        st.builds(
            specs.JournalSpec, child=children,
            cap=st.one_of(st.none(), st.integers(min_value=1,
                                                 max_value=4096)),
            path=st.one_of(st.none(), paths),
        ),
        st.builds(specs.SlowSpec, child=children, ms=millis),
        st.builds(specs.FailingSpec, child=children,
                  fail=st.one_of(st.none(), st.booleans())),
        st.builds(specs.MeteredSpec, child=children,
                  slow_ms=millis,
                  ring=st.one_of(st.none(),
                                 st.integers(min_value=1, max_value=4096))),
        tenant_specs(),
    )


def spec_trees_over(alphabet: str) -> st.SearchStrategy:
    paths = st.text(alphabet=alphabet, min_size=1, max_size=24)
    names = st.text(alphabet=alphabet.replace("/", "").replace(".", ""),
                    min_size=1, max_size=12)
    return st.recursive(
        leaf_specs(paths, names),
        lambda children: composite_specs(children, paths, names),
        max_leaves=8,
    )


spec_trees = spec_trees_over(SAFE)


# -- the property -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(spec_trees)
def test_parse_of_to_uri_round_trips(spec):
    try:
        spec.validate()
        uri = spec.to_uri()
    except SpecError:
        # Programmatic-only shapes (no URI form) are out of scope.
        assume(False)
    assert parse_spec(uri) == spec
    # And rendering is a fixed point: canonical URIs re-render verbatim.
    assert parse_spec(uri).to_uri() == uri


@settings(max_examples=500, deadline=None)
@given(spec_trees_over(WILD))
def test_reserved_characters_round_trip_or_raise(spec):
    try:
        uri = spec.to_uri()
    except SpecError:
        return  # refusing to render is fine; changing meaning is not
    assert parse_spec(uri) == spec
    assert parse_spec(uri).to_uri() == uri


@settings(max_examples=100, deadline=None)
@given(spec_trees)
def test_walk_covers_every_child(spec):
    seen = list(spec.walk())
    assert seen[0] is spec
    for child in spec.children():
        assert child in seen


def test_every_registered_scheme_appears_in_the_strategy():
    """The property only proves what the generator covers — pin the
    generator to the registry so a future scheme must join it."""
    from repro.storage import registered_schemes

    generated = {
        specs.MemSpec.scheme, specs.FileSpec.scheme,
        specs.RemoteSpec.scheme, specs.ReplicaSpec.scheme,
        specs.CachedSpec.scheme,
        specs.JournalSpec.scheme,
        specs.SlowSpec.scheme, specs.FailingSpec.scheme,
        specs.TenantSpec.scheme, specs.MeteredSpec.scheme,
    }
    assert generated == set(registered_schemes())
