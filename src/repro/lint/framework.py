"""AST lint framework: rules, registry, suppression, and the lint engine.

The framework is deliberately small and codebase-specific — it is not a
pyflakes clone.  A :class:`Rule` inspects one parsed file at a time through a
:class:`FileContext` and yields :class:`Finding` objects.  The engine layers
three mechanisms on top so intentional exceptions stay visible and auditable:

* **Inline suppression** — a ``# repro: noqa[RULE-ID]`` comment on the
  finding's first line silences that rule there (``# repro: noqa`` silences
  every rule on the line).  Use it for one-off pass-through code.
* **Baseline** — a committed JSON file (:mod:`repro.lint.baseline`) listing
  known, intentional violations with a human-readable ``reason``.  Findings
  matching a baseline entry are reported separately and do not fail the run;
  *new* findings do.
* **Registry** — rules self-register via the :func:`register` decorator so
  the CLI, the test suite, and the docs all enumerate the same catalog.

Module identity (``repro.nn.layers`` …) is derived from the filesystem by
walking up while ``__init__.py`` files exist, so rules can scope themselves
to packages without caring where the tree is checked out.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

__all__ = [
    "Finding",
    "FileContext",
    "ProjectContext",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "rule_ids",
    "is_project_rule",
    "LintResult",
    "lint_paths",
    "module_name_for",
    "suppressions_for",
]

# ``# repro: noqa`` or ``# repro: noqa[RULE-A, RULE-B]`` (case-insensitive ids).
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_\-, ]+)\])?")

# Sentinel stored in the suppression map for a bare ``# repro: noqa``.
_ALL_RULES = "*"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    ``module`` and ``code`` (the stripped source line) — not the absolute
    path or line number — identify the finding for baseline matching, so a
    baseline survives checkouts at different paths and unrelated edits that
    shift line numbers.
    """

    rule: str
    path: str
    module: str
    line: int
    col: int
    message: str
    code: str

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: ``(module, rule, stripped source line)``."""
        return (self.module, self.rule, self.code)

    def render(self) -> str:
        """One-line human-readable form (``path:line:col RULE message``)."""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"


class FileContext:
    """Everything a rule may inspect about one file: path, source, AST."""

    def __init__(self, path: Path, source: str, tree: ast.AST,
                 module: str, display_path: str):
        self.path = path
        self.source = source
        self.tree = tree
        self.module = module
        self.display_path = display_path
        self.lines = source.splitlines()

    def source_line(self, lineno: int) -> str:
        """The stripped source text of 1-based line ``lineno``."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule, path=self.display_path, module=self.module,
                       line=lineno, col=col, message=message,
                       code=self.source_line(lineno))


class ProjectContext:
    """Every linted file at once, for project-scoped (flow) rules.

    ``files`` are the successfully parsed :class:`FileContext` objects in
    deterministic (sorted-path) order.  ``cache`` is a scratch dict shared
    by all project rules of one run, so expensive whole-project analyses
    (the call graph in :mod:`repro.lint.flow.callgraph`) are built once
    and reused across rules.
    """

    def __init__(self, files: Sequence[FileContext]):
        self.files = tuple(files)
        self.cache: dict = {}

    def by_module(self) -> dict[str, FileContext]:
        return {ctx.module: ctx for ctx in self.files}


class Rule(Protocol):
    """The rule protocol: an id, a one-line description, and a checker."""

    rule_id: str
    description: str

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one parsed file."""
        ...  # pragma: no cover - protocol stub


def is_project_rule(rule) -> bool:
    """True for rules that analyze the whole project at once.

    A project rule implements ``check_project(project) -> Iterator[Finding]``
    instead of (or in addition to) the per-file ``check``; the engine runs
    it once over a :class:`ProjectContext` after every file is parsed.
    """
    return callable(getattr(rule, "check_project", None))


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator: instantiate the rule and add it to the registry."""
    rule = rule_cls()
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _REGISTRY[rule.rule_id] = rule
    return rule_cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in registration order."""
    return tuple(_REGISTRY.values())


def rule_ids() -> tuple[str, ...]:
    """The registered rule ids, in registration order."""
    return tuple(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id (raises ``KeyError`` on unknown ids)."""
    return _REGISTRY[rule_id]


def module_name_for(path: Path) -> str:
    """Dotted module name derived from the package layout on disk.

    Walks upward from ``path`` while ``__init__.py`` files mark package
    directories; a file outside any package is named after its stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent.parent == parent:  # filesystem root
            break
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def suppressions_for(source: str) -> dict[int, set[str]]:
    """Map 1-based line numbers to suppressed rule ids.

    A bare ``# repro: noqa`` stores the ``"*"`` wildcard; rule ids are
    normalized to upper case.
    """
    suppressed: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if not match:
                continue
            ids = match.group(1)
            entry = suppressed.setdefault(token.start[0], set())
            if ids is None:
                entry.add(_ALL_RULES)
            else:
                entry.update(part.strip().upper()
                             for part in ids.split(",") if part.strip())
    except tokenize.TokenError:  # pragma: no cover - unterminated source
        pass
    return suppressed


def _is_suppressed(finding: Finding, suppressed: dict[int, set[str]]) -> bool:
    entry = suppressed.get(finding.line)
    if not entry:
        return False
    return _ALL_RULES in entry or finding.rule in entry


@dataclass
class LintResult:
    """Outcome of one lint run.

    ``findings`` are the *new* violations (they fail the run);
    ``baselined`` matched a committed baseline entry; ``suppressed_count``
    counts inline-noqa'd findings; ``unused_baseline`` lists baseline keys
    that matched nothing (stale entries worth pruning); ``errors`` are files
    that could not be parsed.
    """

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed_count: int = 0
    unused_baseline: list[tuple[str, str, str]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the run produced no new findings and no parse errors."""
        return not self.findings and not self.errors

    def all_findings(self) -> list[Finding]:
        """New + baselined findings together (used by ``--write-baseline``)."""
        return sorted(self.findings + self.baselined,
                      key=lambda f: (f.module, f.line, f.rule))


def _iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _parse_file(path: Path) -> tuple[FileContext | None, str | None]:
    """Read and parse one file into a :class:`FileContext` (or an error)."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError) as error:
        return None, f"{path}: {error}"
    return FileContext(path=path, source=source, tree=tree,
                       module=module_name_for(path),
                       display_path=str(path)), None


def lint_paths(paths: Sequence[str | Path],
               rules: Sequence[Rule] | None = None,
               baseline=None) -> LintResult:
    """Lint files/directories and classify findings against ``baseline``.

    Args:
        paths: files or directories (directories are searched recursively
            for ``*.py``).
        rules: rules to run; defaults to the full registry.
        baseline: a :class:`repro.lint.baseline.Baseline` or None.
    """
    active = tuple(rules) if rules is not None else all_rules()
    file_rules = tuple(r for r in active if not is_project_rule(r))
    project_rules = tuple(r for r in active if is_project_rule(r))
    result = LintResult()
    matcher = baseline.matcher() if baseline is not None else None

    def classify(finding: Finding, suppressed: dict[int, set[str]]) -> None:
        if _is_suppressed(finding, suppressed):
            result.suppressed_count += 1
        elif matcher is not None and matcher.consume(finding):
            result.baselined.append(finding)
        else:
            result.findings.append(finding)

    files = list(_iter_python_files([Path(p) for p in paths]))
    contexts: list[FileContext] = []
    suppressions: dict[str, dict[int, set[str]]] = {}

    for path in files:
        ctx, error = _parse_file(path)
        if error is not None:
            result.errors.append(error)
            continue
        contexts.append(ctx)
        suppressed = suppressions_for(ctx.source)
        suppressions[ctx.display_path] = suppressed
        for rule in file_rules:
            for finding in rule.check(ctx):
                classify(finding, suppressed)

    if project_rules and contexts:
        project = ProjectContext(contexts)
        for rule in project_rules:
            for finding in rule.check_project(project):
                classify(finding, suppressions.get(finding.path, {}))

    if matcher is not None:
        result.unused_baseline = matcher.unused()
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    result.baselined.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
