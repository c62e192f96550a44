"""Unit tests for the lock-discipline and lock-order checkers, on
known-bad and known-good fixture sources."""

import textwrap

from repro.analysis.core import run_lint


def _lint(tmp_path, source, rules=("lock-discipline", "lock-order")):
    (tmp_path / "fixture.py").write_text(textwrap.dedent(source))
    return run_lint([tmp_path], tmp_path, rules=list(rules))


class TestLockDiscipline:
    def test_mixed_mutation_is_flagged(self, tmp_path):
        result = _lint(tmp_path, """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def reset(self):
                    self._count = 0
            """)
        [finding] = result.findings
        assert finding.rule == "lock-discipline"
        assert "Store.reset" in finding.message
        assert "_count" in finding.message
        assert result.exit_code == 1

    def test_consistent_locking_is_clean(self, tmp_path):
        result = _lint(tmp_path, """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def reset(self):
                    with self._lock:
                        self._count = 0
            """)
        assert result.findings == []

    def test_construction_only_helper_is_exempt(self, tmp_path):
        result = _lint(tmp_path, """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = {}
                    self._load()

                def _load(self):
                    self._state = {"seeded": True}

                def update(self, k, v):
                    with self._lock:
                        self._state[k] = v
            """)
        assert result.findings == []

    def test_held_lock_propagates_into_private_helper(self, tmp_path):
        result = _lint(tmp_path, """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = {}

                def update(self, k, v):
                    with self._lock:
                        self._apply(k, v)

                def flush(self):
                    with self._lock:
                        self._apply(None, None)

                def _apply(self, k, v):
                    self._state[k] = v
            """)
        assert result.findings == []

    def test_nested_callback_does_not_inherit_locks(self, tmp_path):
        # The closure runs later, outside the with block: its mutation
        # is unguarded even though the def site is under the lock.
        result = _lint(tmp_path, """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = {}

                def update(self, k, v):
                    with self._lock:
                        self._state[k] = v

                def schedule(self, runner):
                    with self._lock:
                        def callback():
                            self._state.clear()
                            self._state = {}
                        runner(callback)
            """)
        assert any("callback" in f.message for f in result.findings)


class TestLockOrder:
    def test_cross_class_inversion_is_flagged(self, tmp_path):
        # A takes A._lock then calls into B (which takes B._lock); B
        # takes B._lock then calls back into A (which takes A._lock):
        # the textbook AB/BA deadlock.
        result = _lint(tmp_path, """\
            import threading

            class Alpha:
                def __init__(self, beta: "Beta"):
                    self._lock = threading.Lock()
                    self._beta = beta
                    self._n = 0

                def forward(self):
                    with self._lock:
                        self._beta.poke()

                def poke(self):
                    with self._lock:
                        self._n += 1

            class Beta:
                def __init__(self, alpha: "Alpha"):
                    self._lock = threading.Lock()
                    self._alpha = alpha
                    self._n = 0

                def forward(self):
                    with self._lock:
                        self._alpha.poke()

                def poke(self):
                    with self._lock:
                        self._n += 1
            """)
        cycles = [f for f in result.findings if f.rule == "lock-order"]
        assert len(cycles) == 1
        assert "Alpha._lock" in cycles[0].message
        assert "Beta._lock" in cycles[0].message
        assert "deadlock candidate" in cycles[0].message

    def test_one_direction_only_is_clean(self, tmp_path):
        result = _lint(tmp_path, """\
            import threading

            class Alpha:
                def __init__(self, beta: "Beta"):
                    self._lock = threading.Lock()
                    self._beta = beta

                def forward(self):
                    with self._lock:
                        self._beta.poke()

            class Beta:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def poke(self):
                    with self._lock:
                        self._n += 1
            """)
        assert [f for f in result.findings if f.rule == "lock-order"] == []

    def test_untyped_receiver_creates_no_edge(self, tmp_path):
        # Same shape as the inversion test, but the receivers are
        # untyped: name-only matching is deliberately not performed, so
        # no cycle can be claimed.
        result = _lint(tmp_path, """\
            import threading

            class Alpha:
                def __init__(self, beta):
                    self._lock = threading.Lock()
                    self._beta = beta

                def forward(self):
                    with self._lock:
                        self._beta.poke()

                def poke(self):
                    with self._lock:
                        pass

            class Beta:
                def __init__(self, alpha):
                    self._lock = threading.Lock()
                    self._alpha = alpha

                def forward(self):
                    with self._lock:
                        self._alpha.poke()

                def poke(self):
                    with self._lock:
                        pass
            """)
        assert [f for f in result.findings if f.rule == "lock-order"] == []

    def test_intra_class_nested_with_is_ordered_not_cyclic(self, tmp_path):
        result = _lint(tmp_path, """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._io_lock = threading.Lock()
                    self._n = 0

                def op(self):
                    with self._lock:
                        with self._io_lock:
                            self._n += 1
            """)
        assert [f for f in result.findings if f.rule == "lock-order"] == []
