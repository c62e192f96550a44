"""Span folding and wrapper hygiene of the benchmark's tracer."""

from .spans import Recorder, Span, adopt_orphans, fold, roots


def test_fold_clips_cross_thread_children_and_merges_overlapping_siblings():
    spans = [
        Span(0, "op.write", 0, 100),
        Span(1, "nfs.client.write", 10, 40, parent=0),
        Span(2, "rpc.client.call", 15, 25, parent=1),        # nested
        Span(3, "storage.replica.write", 30, 60, parent=0),  # overlaps span 1
        # A lane thread's child that outlives the call that spawned it.
        Span(4, "storage.remote.write", 90, 130, parent=0),
    ]
    self_ns = fold(spans)
    # Root: 100 minus [10, 60] (siblings merged) minus [90, 100] (clipped).
    assert self_ns == {0: 40, 1: 20, 2: 10, 3: 30, 4: 40}
    assert {top.id for top in roots(spans).values()} == {0}


def test_fold_never_counts_a_covered_instant_twice():
    spans = [Span(0, "p", 0, 10)] + [
        Span(i, "lane", 2, 8, parent=0) for i in (1, 2, 3)
    ]
    assert fold(spans)[0] == 4


def test_orphans_go_to_the_shortest_free_container():
    spans = [
        Span(0, "storage.remote.write_many", 5, 30),
        Span(1, "storage.remote.write_many", 10, 20),
        Span(2, "rpc.tcp.call", 12, 18),   # fits both; span 1 is shorter
        Span(3, "rpc.tcp.call", 13, 17),   # overlaps span 2, so span 0
        Span(4, "rpc.tcp.call", 40, 50),   # nobody contains it
        Span(5, "rpc.server.handle", 14, 16),  # by the second rule
    ]
    adopted = adopt_orphans(
        spans, {"rpc.tcp.": "storage.remote.", "rpc.server.": "rpc.tcp."})
    assert adopted == 3
    assert [s.parent for s in spans] == [None, None, 1, 0, None, 3]


class _Base:
    def work(self, n):
        return n + 1

    @staticmethod
    def helper(n):
        return n * 2


class _Derived(_Base):
    scheme = "derived"

    def outer(self, n):
        return self.work(n) + self.helper(n)


def test_recorder_nests_spans_and_restores_every_attribute():
    before = (dict(vars(_Base)), dict(vars(_Derived)))
    recorder = Recorder()
    recorder.patch(_Base, "work", lambda obj: f"layer.{obj.scheme}.work")
    recorder.patch(_Base, "helper", "layer.helper")
    recorder.patch(_Derived, "outer", "layer.outer", lambda args, result: result)
    recorder.patch(_Derived, "work", "layer.inherited")  # not its own attribute
    try:
        with recorder.span("op.read"):
            assert _Derived().outer(3) == 10
    finally:
        recorder.unpatch_all()
    assert (dict(vars(_Base)), dict(vars(_Derived))) == before
    assert "work" not in vars(_Derived)

    spans = {s.name: s for s in recorder.spans()}
    # The inherited-attribute patch wraps the already patched base method.
    assert set(spans) == {"op.read", "layer.outer", "layer.inherited",
                          "layer.derived.work", "layer.helper"}
    assert spans["layer.outer"].parent == spans["op.read"].id
    assert spans["layer.inherited"].parent == spans["layer.outer"].id
    assert spans["layer.derived.work"].parent == spans["layer.inherited"].id
    assert spans["layer.helper"].parent == spans["layer.outer"].id
    assert spans["layer.outer"].value == 10
    assert all(s.end >= s.start for s in spans.values())
    self_ns = fold(spans.values())
    assert sum(self_ns.values()) == spans["op.read"].duration


def test_patch_function_rebinds_every_importer():
    import repro.core.server
    import repro.keynote.parser
    import repro.keynote.session
    from repro.keynote.parser import parse_assertion

    recorder = Recorder()
    recorder.patch_function(parse_assertion, "keynote.parse_assertion")
    try:
        for module in (repro.keynote.parser, repro.keynote.session,
                       repro.core.server):
            assert module.parse_assertion is not parse_assertion
            assert module.parse_assertion.__wrapped__ is parse_assertion
    finally:
        recorder.unpatch_all()
    for module in (repro.keynote.parser, repro.keynote.session,
                   repro.core.server):
        assert module.parse_assertion is parse_assertion
