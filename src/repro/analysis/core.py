"""discfs-lint engine: findings, suppressions, baselines, checker plugins.

The analyzers in this package encode *project* invariants — lock
discipline, lock ordering, resource lifetimes — that generic linters
cannot know.  This module is the chassis they plug into:

* :class:`Finding` — one diagnostic with a stable fingerprint, so a
  baseline file can grandfather it across line-number churn;
* :class:`SourceFile` / :class:`Project` — parsed-once AST plus inline
  ``# discfs-lint: disable=<rule>`` suppressions, shared by every
  checker (each file is read and parsed exactly once per run);
* :class:`Checker` — the plugin base class; a checker sees the whole
  project so cross-file rules (lock-order graphs) are first-class,
  not bolted on;
* :class:`Baseline` + :func:`run_lint` — the driver CI calls.

Zero dependencies beyond the standard library, by design: the linter
must run in every environment the code itself runs in.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

__all__ = [
    "Baseline",
    "Checker",
    "Finding",
    "LintResult",
    "Project",
    "SourceFile",
    "all_checkers",
    "run_lint",
]

#: ``# discfs-lint: disable=rule-a,rule-b`` — anywhere on a line.
_SUPPRESS_RE = re.compile(r"#\s*discfs-lint:\s*disable=([a-z0-9_,\s-]+)")


@dataclass(frozen=True)
class Finding:
    """One diagnostic, pointing at ``path:line``.

    ``fingerprint`` deliberately excludes the line number: a baseline
    entry keeps matching while unrelated edits move code around, and
    goes stale only when the finding's substance changes.
    """

    rule: str
    path: str
    line: int
    col: int
    severity: str  # "error" | "warning"
    message: str
    hint: str = ""

    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha256(
            "\x00".join((self.rule, self.path, self.message)).encode("utf-8")
        )
        return digest.hexdigest()[:16]

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.severity}: " \
               f"[{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint,
        }


class SourceFile:
    """One parsed Python file: source lines, AST, inline suppressions."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        #: Repo-relative posix path used in findings and baselines.
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree: ast.Module | None = None
        self.parse_error: str | None = None
        try:
            self.tree = ast.parse(text, filename=rel)
        except SyntaxError as exc:
            self.parse_error = f"{exc.msg} (line {exc.lineno})"
        self._suppressions = self._scan_suppressions()

    def _scan_suppressions(self) -> dict[int, frozenset[str]]:
        out: dict[int, frozenset[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                rules = frozenset(
                    part.strip() for part in match.group(1).split(",")
                    if part.strip()
                )
                out[lineno] = rules
        return out

    def suppressed(self, rule: str, line: int) -> bool:
        """True if ``rule`` is disabled on ``line`` or the line above it
        (a comment on its own line suppresses the statement below)."""
        for candidate in (line, line - 1):
            rules = self._suppressions.get(candidate)
            if rules and (rule in rules or "all" in rules):
                return True
        return False


class Project:
    """The file set one lint run sees, with a shared parse cache."""

    def __init__(self, root: Path, paths: Sequence[Path]) -> None:
        self.root = root
        #: Cross-checker scratch space (e.g. the lock model is built once
        #: and shared by the discipline and order checkers).
        self.memo: dict[str, object] = {}
        self._cache: dict[Path, SourceFile] = {}
        self.files: list[SourceFile] = []
        seen: set[Path] = set()
        for path in sorted(self._expand(paths)):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            self.files.append(self.load(path))

    @staticmethod
    def _expand(paths: Sequence[Path]) -> Iterator[Path]:
        for path in paths:
            if path.is_dir():
                yield from sorted(path.rglob("*.py"))
            elif path.suffix == ".py":
                yield path

    def relpath(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def load(self, path: Path) -> SourceFile:
        """Parse ``path`` once; later calls return the cached parse."""
        resolved = path.resolve()
        cached = self._cache.get(resolved)
        if cached is None:
            text = path.read_text(encoding="utf-8")
            cached = SourceFile(path, self.relpath(path), text)
            self._cache[resolved] = cached
        return cached

    def find(self, rel_suffix: str) -> SourceFile | None:
        """The project file whose relative path ends with ``rel_suffix``."""
        for sf in self.files:
            if sf.rel.endswith(rel_suffix):
                return sf
        return None


class Checker:
    """Base class for one lint rule family.

    Subclasses set ``name``/``description`` and implement :meth:`run`,
    yielding findings over the whole project.  Suppression and baseline
    filtering happen in the driver, not in checkers.
    """

    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def run(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        sf: SourceFile,
        node: ast.AST | None,
        message: str,
        hint: str = "",
        severity: str = "error",
        line: int | None = None,
        col: int | None = None,
    ) -> Finding:
        lineno = line if line is not None else getattr(node, "lineno", 1)
        column = col if col is not None else getattr(node, "col_offset", 0)
        return Finding(
            rule=self.name,
            path=sf.rel,
            line=int(lineno),
            col=int(column),
            severity=severity,
            message=message,
            hint=hint,
        )


@dataclass
class Baseline:
    """Grandfathered findings: fingerprints the gate tolerates.

    The shipped file's goal state is *empty* — every entry must carry a
    ``justification`` explaining why the finding is tolerated rather
    than fixed, so the baseline is documentation, not a dumping ground.
    """

    entries: dict[str, dict[str, object]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict) or data.get("version") != 1:
            raise ValueError(f"{path}: not a discfs-lint baseline (version 1)")
        entries: dict[str, dict[str, object]] = {}
        for raw in data.get("findings", []):
            if not isinstance(raw, dict) or "fingerprint" not in raw:
                raise ValueError(f"{path}: baseline entry missing fingerprint")
            entries[str(raw["fingerprint"])] = raw
        return cls(entries=entries)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        entries: dict[str, dict[str, object]] = {}
        for f in findings:
            entry = f.to_dict()
            entry["justification"] = ""
            entries[f.fingerprint] = entry
        return cls(entries=entries)

    def save(self, path: Path) -> None:
        payload = {
            "version": 1,
            "findings": [
                self.entries[fp] for fp in sorted(self.entries)
            ],
        }
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def covers(self, finding: Finding) -> bool:
        return finding.fingerprint in self.entries


@dataclass
class LintResult:
    """Outcome of one run: what fired, what was filtered, and why."""

    findings: list[Finding]
    suppressed: int
    grandfathered: int
    files_checked: int
    rules: tuple[str, ...]

    @property
    def exit_code(self) -> int:
        return 1 if any(f.severity == "error" for f in self.findings) else 0

    def to_dict(self) -> dict[str, object]:
        return {
            "version": 1,
            "rules": list(self.rules),
            "files_checked": self.files_checked,
            "summary": {
                "errors": sum(
                    1 for f in self.findings if f.severity == "error"
                ),
                "warnings": sum(
                    1 for f in self.findings if f.severity == "warning"
                ),
                "suppressed": self.suppressed,
                "grandfathered": self.grandfathered,
            },
            "findings": [f.to_dict() for f in self.findings],
        }


def all_checkers() -> dict[str, Callable[[], Checker]]:
    """Rule name -> factory, for ``--rule`` selection and ``--list-rules``."""
    from repro.analysis.leakcheck import ResourceLeakChecker
    from repro.analysis.lockcheck import LockDisciplineChecker, LockOrderChecker

    checkers: dict[str, Callable[[], Checker]] = {}
    for cls in (
        LockDisciplineChecker,
        LockOrderChecker,
        ResourceLeakChecker,
    ):
        checkers[cls.name] = cls
    return checkers


def run_lint(
    paths: Sequence[Path],
    root: Path,
    rules: Sequence[str] | None = None,
    baseline: Baseline | None = None,
) -> LintResult:
    """Run the selected checkers; returns filtered, sorted findings."""
    factories = all_checkers()
    if rules:
        unknown = sorted(set(rules) - set(factories))
        if unknown:
            raise ValueError(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(factories))}"
            )
        selected = tuple(name for name in factories if name in set(rules))
    else:
        selected = tuple(factories)

    project = Project(root, paths)
    raw: list[Finding] = []
    for name in selected:
        raw.extend(factories[name]().run(project))
    for sf in project.files:
        if sf.parse_error is not None:
            raw.append(Finding(
                rule="parse", path=sf.rel, line=1, col=0, severity="error",
                message=f"file does not parse: {sf.parse_error}",
            ))

    by_rel = {sf.rel: sf for sf in project.files}
    kept: list[Finding] = []
    suppressed = 0
    grandfathered = 0
    for f in sorted(raw, key=lambda f: (f.path, f.line, f.rule, f.message)):
        sf = by_rel.get(f.path)
        if sf is not None and sf.suppressed(f.rule, f.line):
            suppressed += 1
            continue
        if baseline is not None and baseline.covers(f):
            grandfathered += 1
            continue
        kept.append(f)
    return LintResult(
        findings=kept,
        suppressed=suppressed,
        grandfathered=grandfathered,
        files_checked=len(project.files),
        rules=selected,
    )
