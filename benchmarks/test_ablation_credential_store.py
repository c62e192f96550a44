"""Ablation: scaling with the number of credentials the server holds.

The paper's scaling requirement: "The system should be able to cope with
large numbers of files and even larger number of users accessing those
files."  Every CREATE adds a per-file creator credential to the server's
KeyNote session, so an uncached compliance query naively scales with the
credential count.  The compliance checker files each guarded credential
under its HANDLE literal when it is installed, and a query looks up its
own literal, so its cost does not depend on how many others there are;
it also works out which principals have a delegation path to the
requester and evaluates nothing said by or to anyone else.

The list-scan checker this replaced is kept as
``tests/keynote_reference.py``.  Both are timed here in the same process,
in turn, so the assertions are ratios and do not depend on the machine:
the query at 1000 resident credentials costs at most 1.5x the one at 10
(the scan's grows with the store), and 40 subtree grants to principals the requester
has nothing to do with cost a set test each, a tenth of what evaluating
them costs the scan.  Equality of the answers is asserted first.

The parametrized bench prices an uncached query with 10 / 100 / 1000
resident credentials, with and without the index.
"""

import sys
from functools import lru_cache
from pathlib import Path
from time import perf_counter

import pytest

from repro.core.admin import Administrator, identity_of, make_user_keypair
from repro.core.permissions import PERMISSION_VALUES
from repro.keynote.ast import ComplianceValues
from repro.keynote.session import KeyNoteSession

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from keynote_reference import ReferenceChecker  # noqa: E402

ADMIN = Administrator.generate(seed=b"store-admin")
USER = make_user_keypair(b"store-user")
OCTAL = ComplianceValues(list(PERMISSION_VALUES))
ACTION = {"app_domain": "DisCFS", "HANDLE": "target.1",
          "ANCESTORS": "root.1 dir.1"}


@lru_cache(maxsize=None)
def build_session(n_credentials, indexed, unrelated=0):
    session = KeyNoteSession(
        index_attribute="HANDLE" if indexed else None
    )
    session.add_policy(f'Authorizer: "POLICY"\nLicensees: "{ADMIN.identity}"\n')
    for i in range(n_credentials):
        session.add_credential(
            ADMIN.grant(identity_of(USER), handle=f"file{i}.1", rights="RWX")
        )
    # Subtree grants, which no index can set aside, to principals with no
    # delegation path to the requester:
    for i in range(unrelated):
        session.add_credential(
            ADMIN.grant(f"bystander-{i}", handle="root.1", rights="RWX",
                        subtree=True)
        )
    # The one credential the query should match:
    session.add_credential(
        ADMIN.grant(identity_of(USER), handle="target.1", rights="RX")
    )
    return session


def list_scan(session):
    """The session's assertions in the checker it used to have."""
    reference = ReferenceChecker(index_attribute="HANDLE")
    for assertion in session.policies + session.credentials:
        reference.add_assertion(assertion, verified=True)
    return reference


def best_of(timed, repeats: int = 60) -> list[float]:
    """Seconds per call of each ``(fn, loops)`` in ``timed``: the fastest
    of ``repeats`` timings of ``loops`` calls.  The timings are taken in
    turn, so a burst of load on the machine slows every one of them and
    not only whichever happened to be running."""
    best = [float("inf")] * len(timed)
    for _ in range(repeats):
        for i, (fn, loops) in enumerate(timed):
            start = perf_counter()
            for _ in range(loops):
                fn()
            best[i] = min(best[i], (perf_counter() - start) / loops)
    return best


def priced(*sessions):
    """(us per query of the session, us per query of the list scan over the
    same assertions) for each session, after checking that they agree."""
    requester = [identity_of(USER)]
    timed = []
    for session in sessions:
        reference = list_scan(session)
        assert session.query_with_trace(ACTION, requester, OCTAL) == \
            reference.query_with_trace(ACTION, requester, OCTAL)
        timed += [(lambda s=session: s.query(ACTION, requester, OCTAL), 50),
                  (lambda r=reference: r.query(ACTION, requester, OCTAL), 5)]
    us = [seconds * 1e6 for seconds in best_of(timed)]
    return [tuple(us[i:i + 2]) for i in range(0, len(us), 2)]


def test_indexed_query_does_not_grow_with_the_store():
    (small, small_scan), (large, large_scan) = priced(
        build_session(10, True), build_session(1000, True))
    print(f"\nuncached query: 10 credentials {small:.1f} us, 1000 credentials "
          f"{large:.1f} us ({large / small:.2f}x); list scan {small_scan:.1f} us "
          f"-> {large_scan:.1f} us ({large_scan / small_scan:.1f}x)")
    assert large <= 1.5 * small
    assert large_scan >= 3 * large


def test_unrelated_delegations_are_not_evaluated():
    (alone, _scan), (crowded, crowded_scan) = priced(
        build_session(10, True), build_session(10, True, unrelated=40))
    print(f"\nuncached query: no bystanders {alone:.1f} us, 40 subtree grants "
          f"to bystanders {crowded:.1f} us ({crowded / alone:.2f}x); list scan "
          f"{crowded_scan:.1f} us")
    assert crowded <= 2.5 * alone
    assert crowded_scan >= 10 * crowded


@pytest.mark.parametrize("n", (10, 100, 1000))
@pytest.mark.parametrize("indexed", (True, False), ids=("indexed", "linear"))
@pytest.mark.benchmark(group="ablation-credential-store")
def test_query_vs_store_size(benchmark, n, indexed):
    if not indexed and n == 1000:
        pytest.skip("linear scan at 1000 credentials is priced at n=100")
    session = build_session(n, indexed)
    result = benchmark(session.query, ACTION, [identity_of(USER)], OCTAL)
    assert result == "RX"
    benchmark.extra_info["credentials"] = n
    benchmark.extra_info["indexed"] = indexed
