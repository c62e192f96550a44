"""discfs-lint engine: findings, the shared parse cache, checker plugins.

The analyzers in this package encode *project* invariants — lock
discipline, lock ordering, resource lifetimes — that generic linters
cannot know.  This module is the chassis they plug into:

* :class:`Finding` — one diagnostic at ``path:line``;
* :class:`SourceFile` / :class:`Project` — parsed-once AST shared by
  every checker (each file is read and parsed exactly once per run);
* :class:`Checker` — the plugin base class; a checker sees the whole
  project so cross-file rules (lock-order graphs) are first-class,
  not bolted on;
* :func:`run_lint` — the driver CI calls.

There is one gate: every finding is an error and fails the run.  A
finding is fixed, or the rule that raised it changes in the same
change; nothing in between tolerates it.

Zero dependencies beyond the standard library, by design: the linter
must run in every environment the code itself runs in.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

__all__ = [
    "Checker",
    "Finding",
    "LintResult",
    "Project",
    "SourceFile",
    "all_checkers",
    "run_lint",
]

@dataclass(frozen=True)
class Finding:
    """One diagnostic, pointing at ``path:line``."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


class SourceFile:
    """One parsed Python file: source lines and AST."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        #: Repo-relative posix path used in findings.
        self.rel = rel
        self.text = text
        self.tree: ast.Module | None = None
        self.parse_error: str | None = None
        try:
            self.tree = ast.parse(text, filename=rel)
        except SyntaxError as exc:
            self.parse_error = f"{exc.msg} (line {exc.lineno})"


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
    yielding findings over the whole project.
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
            message=message,
            hint=hint,
        )


@dataclass
class LintResult:
    """Outcome of one run: the rules that ran and what they found."""

    findings: list[Finding]
    files_checked: int
    rules: tuple[str, ...]

    @property
    def exit_code(self) -> int:
        """1 iff anything was found: every finding fails the gate."""
        return 1 if self.findings else 0

    def to_dict(self) -> dict[str, object]:
        return {
            "version": 1,
            "rules": list(self.rules),
            "files_checked": self.files_checked,
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
) -> LintResult:
    """Run the selected checkers; returns their findings, sorted."""
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
                rule="parse", path=sf.rel, line=1, col=0,
                message=f"file does not parse: {sf.parse_error}",
            ))
    return LintResult(
        findings=sorted(raw, key=lambda f: (f.path, f.line, f.rule, f.message)),
        files_checked=len(project.files),
        rules=selected,
    )
