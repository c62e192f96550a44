"""Unit tests for the compliance checker's handle-guard pruning index.

The index is a pure optimization: query results with and without it must
be identical (soundness), while guarded assertions whose literal does not
match are not evaluated (effectiveness).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.keynote.compliance import ComplianceChecker, _conditions_guard
from repro.keynote.parser import parse_assertion

BOOL = ["false", "true"]


def make_checker(index, *texts):
    checker = ComplianceChecker(verify_signatures=False,
                                index_attribute=index)
    for text in texts:
        checker.add_assertion(parse_assertion(text))
    return checker


class TestGuardExtraction:
    def guard(self, conditions, constants=""):
        text = 'Authorizer: "a"\nLicensees: "b"\n'
        if constants:
            text = f"Local-Constants: {constants}\n" + text
        text += f"Conditions: {conditions}\n"
        return _conditions_guard(parse_assertion(text), "HANDLE")

    def test_simple_equality_guarded(self):
        assert self.guard('HANDLE == "42" -> "true";') == frozenset({"42"})

    def test_conjunction_guarded(self):
        g = self.guard('(app_domain == "DisCFS") && (HANDLE == "42") -> "true";')
        assert g == frozenset({"42"})

    def test_reversed_operands_guarded(self):
        assert self.guard('"42" == HANDLE -> "true";') == frozenset({"42"})

    def test_multiple_clauses_union(self):
        g = self.guard('HANDLE == "1" -> "true"; HANDLE == "2" -> "true";')
        assert g == frozenset({"1", "2"})

    def test_disjunction_unguarded(self):
        assert self.guard(
            '(HANDLE == "1") || (ANCESTORS ~= "x") -> "true";'
        ) is None

    def test_negation_unguarded(self):
        assert self.guard('!(HANDLE == "1") -> "true";') is None

    def test_inequality_unguarded(self):
        assert self.guard('HANDLE != "1" -> "true";') is None

    def test_unrelated_attribute_unguarded(self):
        assert self.guard('OTHER == "1" -> "true";') is None

    def test_missing_clause_guard_poisons_all(self):
        assert self.guard('HANDLE == "1" -> "W"; true -> "X";') is None

    def test_no_conditions_unguarded(self):
        text = 'Authorizer: "a"\nLicensees: "b"\n'
        assert _conditions_guard(parse_assertion(text), "HANDLE") is None

    def test_local_constant_shadowing_unguarded(self):
        assert self.guard('HANDLE == "42" -> "true";',
                          constants='HANDLE = "42"') is None


class TestIndexSoundness:
    POLICY = 'Authorizer: "POLICY"\nLicensees: "issuer"\n'

    def _credentials(self, n):
        return [
            f'Authorizer: "issuer"\nLicensees: "user{i}"\n'
            f'Conditions: HANDLE == "{i}" -> "true";\n'
            for i in range(n)
        ]

    def test_indexed_equals_unindexed(self):
        creds = self._credentials(20)
        indexed = make_checker("HANDLE", self.POLICY, *creds)
        plain = make_checker(None, self.POLICY, *creds)
        for handle in ("0", "7", "19", "99", ""):
            for user in ("user7", "user19", "stranger"):
                assert (
                    indexed.query({"HANDLE": handle}, [user], BOOL)
                    == plain.query({"HANDLE": handle}, [user], BOOL)
                )

    def test_unguarded_assertions_still_considered(self):
        checker = make_checker(
            "HANDLE",
            self.POLICY,
            'Authorizer: "issuer"\nLicensees: "u"\n'
            'Conditions: (HANDLE == "1") || (ANCESTORS ~= "(^| )9( |$)");\n',
        )
        assert checker.query({"HANDLE": "5", "ANCESTORS": "3 9"},
                             ["u"], BOOL) == "true"

    def test_query_without_index_attribute_set(self):
        """Queries lacking the attribute never match guarded assertions."""
        checker = make_checker(
            "HANDLE", self.POLICY,
            'Authorizer: "issuer"\nLicensees: "u"\n'
            'Conditions: HANDLE == "1";\n',
        )
        assert checker.query({}, ["u"], BOOL) == "false"
        assert checker.query({"HANDLE": "1"}, ["u"], BOOL) == "true"

    def test_removal_cleans_guard(self):
        checker = make_checker("HANDLE", self.POLICY)
        assertion = parse_assertion(
            'Authorizer: "issuer"\nLicensees: "u"\n'
            'Conditions: HANDLE == "1";\n'
        )
        checker.add_assertion(assertion)
        assert checker.query({"HANDLE": "1"}, ["u"], BOOL) == "true"
        checker.remove_assertion(assertion)
        assert checker.query({"HANDLE": "1"}, ["u"], BOOL) == "false"
        # Nothing derived from it at intake is left behind.
        assert "issuer" not in checker._buckets
        assert "u" not in checker._delegators
        assert not checker.reads("HANDLE")


@settings(max_examples=50)
@given(
    n=st.integers(min_value=1, max_value=15),
    probe=st.integers(min_value=0, max_value=20),
    user=st.integers(min_value=0, max_value=20),
)
def test_property_indexed_matches_unindexed(n, probe, user):
    policy = 'Authorizer: "POLICY"\nLicensees: "issuer"\n'
    creds = [
        f'Authorizer: "issuer"\nLicensees: "user{i}"\n'
        f'Conditions: HANDLE == "{i}" -> "true";\n'
        for i in range(n)
    ]
    indexed = ComplianceChecker(verify_signatures=False, index_attribute="HANDLE")
    plain = ComplianceChecker(verify_signatures=False)
    for checker in (indexed, plain):
        checker.add_assertion(parse_assertion(policy))
        for c in creds:
            checker.add_assertion(parse_assertion(c))
    action = {"HANDLE": str(probe)}
    requester = [f"user{user}"]
    assert (indexed.query(action, requester, BOOL)
            == plain.query(action, requester, BOOL))
