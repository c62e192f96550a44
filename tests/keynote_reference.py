"""KeyNote by tree walk and list scan: the test-only reference engine.

This is the Conditions interpreter ``repro.keynote.expr`` had before a
program was compiled into closures when it is parsed, and the compliance
checker ``repro.keynote.compliance`` had before it bucketed assertions by
guard literal and pruned principals with no delegation path to a
requester.  Both stay here, unchanged in what they compute apart from
``^`` (bounded like the program's: an integer power past
``MAX_POWER_BITS`` and a complex result are ``ExpressionError``), as
what the compiled engine is compared against
(``tests/property/test_prop_keynote.py``,
``benchmarks/test_ablation_credential_store.py``).

The AST node types, ``ComplianceValues``, the licensee expressions, the
guard extractor, the power size cap, the parsers — so the nesting cap,
``MAX_DEPTH``: the walk below only ever sees trees that deep, and
``test_hostile_depths_are_refused_or_match_the_tree_walk`` drives it
there — and signature verification are the program's own; only the
evaluation is duplicated.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Mapping

from repro.errors import ExpressionError, SignatureVerificationError
from repro.keynote.ast import (
    POLICY_PRINCIPAL,
    Assertion,
    ComplianceValues,
    normalize_principal,
)
from repro.keynote.compliance import (
    RESERVED_AUTHORIZERS,
    RESERVED_MAX,
    RESERVED_MIN,
    RESERVED_VALUES,
    _conditions_guard,
)
from repro.keynote.expr import (
    MAX_POWER_BITS,
    And,
    Attr,
    BinOp,
    BoolLit,
    Compare,
    ConditionsProgram,
    Deref,
    FloatLit,
    IntLit,
    Neg,
    Not,
    Or,
    StrLit,
    TestNode,
    ToFloat,
    ToInt,
    Value,
    ValueNode,
)
from repro.keynote.signing import verify_assertion

# ---------------------------------------------------------------------------
# The Conditions interpreter
# ---------------------------------------------------------------------------


def reference_evaluate(
    program: ConditionsProgram,
    attributes: Mapping[str, str],
    values: ComplianceValues,
    strict: bool = False,
) -> str:
    """What ``ConditionsProgram.evaluate`` was: walk the tree."""
    return _eval_program(program, _Env(attributes, values, strict))


class _Env:
    __slots__ = ("attributes", "values", "strict")

    def __init__(self, attributes: Mapping[str, str], values: ComplianceValues, strict: bool):
        self.attributes = attributes
        self.values = values
        self.strict = strict


def _eval_program(program: ConditionsProgram, env: _Env) -> str:
    result = env.values.minimum
    for clause in program.clauses:
        try:
            satisfied = _eval_test(clause.test, env)
        except ExpressionError:
            if env.strict:
                raise
            continue  # errored clause contributes nothing
        if not satisfied:
            continue
        if clause.target is None:
            contribution = env.values.maximum
        elif isinstance(clause.target, ConditionsProgram):
            contribution = _eval_program(clause.target, env)
        else:
            if clause.target not in env.values:
                if env.strict:
                    raise ExpressionError(
                        f"value {clause.target!r} not in the query's compliance set"
                    )
                continue
            contribution = clause.target
        result = env.values.max_of(result, contribution)
    return result


def _eval_test(node: TestNode, env: _Env) -> bool:
    if isinstance(node, BoolLit):
        return node.value
    if isinstance(node, Not):
        return not _eval_test(node.inner, env)
    if isinstance(node, And):
        return _eval_test(node.left, env) and _eval_test(node.right, env)
    if isinstance(node, Or):
        return _eval_test(node.left, env) or _eval_test(node.right, env)
    if isinstance(node, Compare):
        return _eval_compare(node, env)
    raise ExpressionError(f"unknown test node: {node!r}")


def _eval_compare(node: Compare, env: _Env) -> bool:
    left = _eval_value(node.left, env)
    if node.op == "~=":
        right = _eval_value(node.right, env)
        if not isinstance(left, str) or not isinstance(right, str):
            raise ExpressionError("~= requires string operands")
        try:
            pattern = re.compile(right)
        except re.error as exc:
            raise ExpressionError(f"bad regular expression: {exc}") from exc
        return pattern.search(left) is not None
    right = _eval_value(node.right, env)
    left_is_str = isinstance(left, str)
    right_is_str = isinstance(right, str)
    if left_is_str != right_is_str:
        raise ExpressionError(
            f"type mismatch in comparison: {type(left).__name__} "
            f"{node.op} {type(right).__name__}"
        )
    ops: dict[str, Callable[[Value, Value], bool]] = {
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        ">": lambda a, b: a > b,
        "<=": lambda a, b: a <= b,
        ">=": lambda a, b: a >= b,
    }
    return ops[node.op](left, right)


def _eval_value(node: ValueNode, env: _Env) -> Value:
    if isinstance(node, StrLit):
        return node.value
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, FloatLit):
        return node.value
    if isinstance(node, Attr):
        return env.attributes.get(node.name, "")
    if isinstance(node, Deref):
        name = _eval_value(node.inner, env)
        if not isinstance(name, str):
            raise ExpressionError("$ requires a string operand")
        return env.attributes.get(name, "")
    if isinstance(node, ToInt):
        raw = _eval_value(node.inner, env)
        if isinstance(raw, int):
            return raw
        if isinstance(raw, float):
            return int(raw)
        try:
            return int(raw.strip() or "0", 10)
        except ValueError as exc:
            raise ExpressionError(f"cannot convert {raw!r} to integer") from exc
    if isinstance(node, ToFloat):
        raw = _eval_value(node.inner, env)
        if isinstance(raw, (int, float)):
            return float(raw)
        try:
            return float(raw.strip() or "0")
        except ValueError as exc:
            raise ExpressionError(f"cannot convert {raw!r} to float") from exc
    if isinstance(node, Neg):
        inner = _eval_value(node.inner, env)
        if isinstance(inner, str):
            raise ExpressionError("unary - requires a numeric operand")
        return -inner
    if isinstance(node, BinOp):
        return _eval_binop(node, env)
    raise ExpressionError(f"unknown value node: {node!r}")


def _eval_binop(node: BinOp, env: _Env) -> Value:
    left = _eval_value(node.left, env)
    right = _eval_value(node.right, env)
    if node.op == ".":
        if not isinstance(left, str) or not isinstance(right, str):
            raise ExpressionError("'.' concatenation requires string operands")
        return left + right
    if isinstance(left, str) or isinstance(right, str):
        raise ExpressionError(f"operator {node.op!r} requires numeric operands")
    try:
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if isinstance(left, int) and isinstance(right, int):
                # C-style truncation toward zero, like the reference engine.
                return int(left / right)
            return left / right
        if node.op == "%":
            if right == 0:
                raise ZeroDivisionError
            result = abs(left) % abs(right)
            return -result if left < 0 else result
        if node.op == "^":
            if (isinstance(left, int) and isinstance(right, int)
                    and abs(left) > 1
                    and abs(left).bit_length() * right > MAX_POWER_BITS):
                raise ExpressionError("numeric overflow")
            result = left**right
            if isinstance(result, complex):
                raise ExpressionError("complex result")
            return result
    except ZeroDivisionError as exc:
        raise ExpressionError("division by zero") from exc
    except OverflowError as exc:
        raise ExpressionError("numeric overflow") from exc
    raise ExpressionError(f"unknown operator: {node.op!r}")


# ---------------------------------------------------------------------------
# The compliance checker
# ---------------------------------------------------------------------------


class ReferenceChecker:
    """Evaluates queries against a set of policies and credentials.

    One list of assertions per authorizer, scanned in full by every query
    that reaches the authorizer; with ``index_attribute`` the scan probes
    a side table of guards per assertion to skip the ones whose literal
    does not match.
    """

    def __init__(self, verify_signatures: bool = True,
                 index_attribute: str | None = None):
        self.verify_signatures = verify_signatures
        self.index_attribute = index_attribute
        self._assertions_by_authorizer: dict[str, list[Assertion]] = {}
        #: assertion id -> frozenset of literals its conditions require the
        #: index attribute to equal (absent = unguarded, always evaluated).
        self._guards: dict[int, frozenset[str]] = {}
        #: ids of the credentials whose signature has been verified.  Only
        #: assertions held in the buckets above are in it (removal drops
        #: the id), so an id cannot be reused while it is.
        self._verified: set[int] = set()

    # -- assertion management -------------------------------------------

    def add_assertion(self, assertion: Assertion, verified: bool = False) -> None:
        self._assertions_by_authorizer.setdefault(assertion.authorizer, []).append(
            assertion
        )
        if verified:
            self._verified.add(id(assertion))
        if self.index_attribute is not None:
            guard = _conditions_guard(assertion, self.index_attribute)
            if guard is not None:
                self._guards[id(assertion)] = guard

    def remove_assertion(self, assertion: Assertion) -> bool:
        """Remove a previously added assertion; returns True if found."""
        bucket = self._assertions_by_authorizer.get(assertion.authorizer, [])
        for i, existing in enumerate(bucket):
            if existing is assertion:
                del bucket[i]
                self._guards.pop(id(assertion), None)
                self._verified.discard(id(assertion))
                return True
        return False

    def assertions(self) -> list[Assertion]:
        return [a for bucket in self._assertions_by_authorizer.values() for a in bucket]

    # -- query ------------------------------------------------------------

    def query(
        self,
        action: Mapping[str, str],
        action_authorizers: Iterable[str],
        values: ComplianceValues | list[str],
    ) -> str:
        """Return the compliance value of the action (CV of POLICY)."""
        value, _trace = self.query_with_trace(action, action_authorizers, values)
        return value

    def query_with_trace(
        self,
        action: Mapping[str, str],
        action_authorizers: Iterable[str],
        values: ComplianceValues | list[str],
    ) -> tuple[str, list[Assertion]]:
        if not isinstance(values, ComplianceValues):
            values = ComplianceValues(values)
        requesters = {normalize_principal(p) for p in action_authorizers}

        attributes = dict(action)
        attributes.setdefault(RESERVED_MIN, values.minimum)
        attributes.setdefault(RESERVED_MAX, values.maximum)
        attributes.setdefault(RESERVED_VALUES, " ".join(values.values))
        attributes.setdefault(RESERVED_AUTHORIZERS, ",".join(sorted(requesters)))

        memo: dict[str, str] = {}
        visiting: set[str] = set()
        contributors: list[Assertion] = []
        index_value = (
            attributes.get(self.index_attribute)
            if self.index_attribute is not None else None
        )

        def cv(principal: str) -> str:
            if principal in requesters:
                return values.maximum
            if principal in memo:
                return memo[principal]
            if principal in visiting:
                return values.minimum  # delegation cycle
            visiting.add(principal)
            best = values.minimum
            for assertion in self._assertions_by_authorizer.get(principal, ()):
                guard = self._guards.get(id(assertion))
                if guard is not None and index_value not in guard:
                    continue  # conditions can only evaluate to minimum
                contribution = self._assertion_value(assertion, attributes, values, cv)
                if contribution != values.minimum:
                    contributors.append(assertion)
                best = values.max_of(best, contribution)
                if best == values.maximum:
                    break  # cannot improve further
            visiting.discard(principal)
            memo[principal] = best
            return best

        result = cv(POLICY_PRINCIPAL)
        if result == values.minimum:
            return result, []
        return result, contributors

    # -- internals ----------------------------------------------------------

    def _assertion_value(
        self,
        assertion: Assertion,
        attributes: Mapping[str, str],
        values: ComplianceValues,
        cv,
    ) -> str:
        if not self._credential_acceptable(assertion):
            return values.minimum
        if assertion.licensees is None:
            return values.minimum  # delegates to nobody
        # Local-Constants shadow action attributes inside this assertion.
        if assertion.local_constants:
            attributes = {**attributes, **assertion.local_constants}
        if assertion.conditions is None:
            conditions_value = values.maximum
        else:
            conditions_value = reference_evaluate(
                assertion.conditions, attributes, values)
        if conditions_value == values.minimum:
            return values.minimum  # short-circuit: licensees cannot help
        licensees_value = assertion.licensees.evaluate(cv, values)
        return values.min_of(conditions_value, licensees_value)

    def _credential_acceptable(self, assertion: Assertion) -> bool:
        """Verify a credential's signature once, caching the result."""
        if assertion.is_policy or not self.verify_signatures:
            return True
        key = id(assertion)
        if key in self._verified:
            return True
        try:
            verify_assertion(assertion)
        except SignatureVerificationError:
            return False
        self._verified.add(key)
        return True
