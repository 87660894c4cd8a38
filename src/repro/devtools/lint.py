"""The ``reprolint`` engine: file walker, suppressions, reporters.

The engine is rule-agnostic. It parses each Python file once, computes
the file's *logical path* (the ``repro/...`` or ``benchmarks/...``
suffix rules scope themselves by), extracts suppression comments with
:mod:`tokenize` (so strings containing ``# reprolint:`` can never
confuse it), runs every rule's AST visitor, and folds the surviving
violations into a :class:`LintReport` with deterministic ordering.

Suppression syntax (both forms take an optional ``-- justification``):

- ``# reprolint: disable=RPL009`` on a flagged line (or on its own
  line directly above one) silences the named rule(s) there; several
  codes may be comma-separated. A directive anywhere on a multi-line
  statement covers the whole statement, so a call spanning several
  physical lines needs only one directive wherever black/ruff happen
  to put the comment.
- ``# reprolint: disable-file=RPL002`` anywhere in a file silences the
  rule(s) for the whole file.

Beyond the per-file rules, ``--project`` adds the whole-program pass
(:mod:`repro.devtools.project` / ``RPL010``–``RPL012``): files are
parsed once, indexed together, and the cross-file rules run over the
index. ``--format github`` emits GitHub Actions annotation lines.

Exit codes: 0 clean, 1 violations found, 2 usage/internal error (the
``main``/``execute`` fault boundary guarantees a crash inside a rule
never masquerades as "violations found").
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "LintContext",
    "LintReport",
    "Violation",
    "build_context",
    "check_source",
    "execute",
    "lint_file",
    "lint_paths",
    "main",
]

#: Violation code reserved for files the engine itself cannot parse.
PARSE_ERROR = "RPL000"

class RuleLike(Protocol):
    """What the engine needs from a rule: a code and an AST check."""

    code: str

    def check(self, ctx: "LintContext") -> Iterator["Violation"]:
        """Yield every violation of this rule in ``ctx``."""
        ...


_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)"
)


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """``path:line:col: CODE message`` — the text-reporter row."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, object]:
        """The JSON-reporter row (stable schema, see tests/devtools)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class LintContext:
    """Everything a rule may inspect about one file."""

    #: Display path (as given on the command line / relative to cwd).
    path: str
    #: Package-rooted posix path (``repro/sim/medium.py``) used by
    #: rules to scope themselves; fixtures override it freely.
    logical_path: str
    source: str
    tree: ast.Module
    #: line -> rule codes suppressed on that line.
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule codes suppressed for the whole file.
    file_suppressions: Set[str] = field(default_factory=set)

    def in_dir(self, *prefixes: str) -> bool:
        """Whether the logical path sits under any of ``prefixes``."""
        return any(self.logical_path.startswith(prefix) for prefix in prefixes)

    def is_suppressed(self, line: int, rule: str) -> bool:
        """Whether ``rule`` is silenced at ``line``."""
        if rule in self.file_suppressions:
            return True
        return rule in self.line_suppressions.get(line, ())


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    violations: Tuple[Violation, ...]
    files_checked: int
    rules: Tuple[str, ...]

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when any violation survived suppression."""
        return 1 if self.violations else 0

    def _summary(self) -> str:
        noun = "violation" if len(self.violations) == 1 else "violations"
        return (
            f"reprolint: {len(self.violations)} {noun} in"
            f" {self.files_checked} files ({len(self.rules)} rules)"
        )

    def format_text(self) -> str:
        """Human-readable report: one row per violation + a summary."""
        lines = [violation.format() for violation in self.violations]
        lines.append(self._summary())
        return "\n".join(lines)

    def format_github(self) -> str:
        """GitHub Actions workflow-command annotations, one per finding.

        The ``::error`` lines render as inline PR annotations; the
        trailing summary is plain text, which Actions passes through.
        """
        lines = [
            f"::error file={v.path},line={v.line},col={v.col + 1},"
            f"title=reprolint {v.rule}::{v.message}"
            for v in self.violations
        ]
        lines.append(self._summary())
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable report (schema pinned by tests/devtools)."""
        return json.dumps(
            {
                "version": 1,
                "files_checked": self.files_checked,
                "rules": list(self.rules),
                "violations": [v.to_json() for v in self.violations],
            },
            indent=2,
            sort_keys=True,
        )


def _logical_spans(
    tokens: Sequence[tokenize.TokenInfo],
) -> List[Tuple[int, int]]:
    """(first, last) physical-line spans of each logical statement.

    A span covers every physical line a statement occupies, so a
    directive anywhere on a multi-line call/def suppresses across the
    whole statement — including lines a formatter later reflows.
    """
    spans: List[Tuple[int, int]] = []
    skip = {
        tokenize.NL,
        tokenize.COMMENT,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
    start: Optional[int] = None
    last = 0
    for token in tokens:
        if token.type == tokenize.NEWLINE:
            if start is not None:
                spans.append((start, token.end[0]))
                start = None
        elif token.type not in skip:
            if start is None:
                start = token.start[0]
            last = token.end[0]
    if start is not None:  # EOF without a terminating NEWLINE
        spans.append((start, last))
    return spans


def _span_containing(
    spans: Sequence[Tuple[int, int]], line: int
) -> Optional[Tuple[int, int]]:
    for span in spans:
        if span[0] <= line <= span[1]:
            return span
    return None


def _extract_suppressions(
    source: str,
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Parse ``# reprolint:`` comments out of ``source``.

    Uses :mod:`tokenize` rather than a line regex so the marker inside
    a string literal is never treated as a directive. A directive on
    any line of a statement covers the statement's full physical span;
    one on a comment-only line also covers the next statement, so long
    statements can carry a suppression without breaching line-length.
    """
    per_line: Dict[int, Set[str]] = {}
    file_wide: Set[str] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # unparsable: RPL000 path
        return per_line, file_wide
    spans = _logical_spans(tokens)
    lines = source.splitlines()
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        codes = {code.strip() for code in match.group("codes").split(",")}
        if match.group("kind") == "disable-file":
            file_wide |= codes
            continue
        line = token.start[0]
        covered = {line}
        span = _span_containing(spans, line)
        if span is not None:
            covered.update(range(span[0], span[1] + 1))
        else:
            text_before = (
                lines[line - 1][: token.start[1]] if line <= len(lines) else ""
            )
            if not text_before.strip():
                # Comment-only line: the directive guards the statement
                # below — all of it, if it spans several lines.
                below = _span_containing(spans, line + 1)
                covered.add(line + 1)
                if below is not None:
                    covered.update(range(below[0], below[1] + 1))
        for covered_line in covered:
            per_line.setdefault(covered_line, set()).update(codes)
    return per_line, file_wide


def _default_rules() -> Tuple[RuleLike, ...]:
    from repro.devtools.rules import ALL_RULES

    return tuple(rule_cls() for rule_cls in ALL_RULES)


def _select_rules(
    rules: Optional[Sequence[RuleLike]], select: Optional[Iterable[str]]
) -> Tuple[RuleLike, ...]:
    active = tuple(rules) if rules is not None else _default_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - {rule.code for rule in active}
        if unknown:
            raise ValueError(f"unknown rule codes: {sorted(unknown)}")
        active = tuple(rule for rule in active if rule.code in wanted)
    return active


def logical_path_for(path: Path) -> str:
    """The package-rooted posix path rules scope themselves by.

    ``src/repro/sim/medium.py -> repro/sim/medium.py``;
    ``benchmarks/bench_kernels.py`` stays as-is; anything else falls
    back to the file name, which matches no scoped rule prefix.
    """
    parts = path.parts
    for anchor in ("repro", "benchmarks"):
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            return "/".join(parts[index:])
    return path.name


def build_context(
    source: str, logical_path: str, *, path: Optional[str] = None
) -> "LintContext | Violation":
    """Parse one source string into a :class:`LintContext`.

    Returns an ``RPL000`` :class:`Violation` instead when the source
    does not parse; callers fold it into the report like any other
    finding. Shared by the per-file engine and the project pass so a
    file is parsed exactly once per run.
    """
    display = path if path is not None else logical_path
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return Violation(
            rule=PARSE_ERROR,
            path=display,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"could not parse file: {exc.msg}",
        )
    per_line, file_wide = _extract_suppressions(source)
    return LintContext(
        path=display,
        logical_path=logical_path,
        source=source,
        tree=tree,
        line_suppressions=per_line,
        file_suppressions=file_wide,
    )


def _check_context(
    context: LintContext, rules: Sequence[RuleLike]
) -> List[Violation]:
    violations: List[Violation] = []
    for rule in rules:
        for violation in rule.check(context):
            if not context.is_suppressed(violation.line, violation.rule):
                violations.append(violation)
    violations.sort(key=lambda v: (v.line, v.col, v.rule))
    return violations


def check_source(
    source: str,
    logical_path: str,
    *,
    path: Optional[str] = None,
    rules: Optional[Sequence[RuleLike]] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint a source string as if it lived at ``logical_path``.

    The seam the fixture tests drive: a known-bad snippet is checked
    against the logical path that puts it in a rule's scope without
    having to plant files inside the package tree.
    """
    context = build_context(source, logical_path, path=path)
    if isinstance(context, Violation):
        return [context]
    return _check_context(context, _select_rules(rules, select))


def lint_file(
    path: Path,
    *,
    rules: Optional[Sequence[RuleLike]] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one file on disk."""
    source = path.read_text(encoding="utf-8")
    return check_source(
        source,
        logical_path_for(path),
        path=str(path),
        rules=rules,
        select=select,
    )


def _iter_python_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        else:
            files.append(path)
    # De-duplicate while preserving the sorted-walk order.
    seen: Set[Path] = set()
    unique: List[Path] = []
    for candidate in files:
        if candidate not in seen:
            seen.add(candidate)
            unique.append(candidate)
    return unique


def lint_paths(
    paths: Sequence[Path],
    *,
    rules: Optional[Sequence[RuleLike]] = None,
    select: Optional[Iterable[str]] = None,
    project: bool = False,
) -> LintReport:
    """Lint files and directories (recursively) into one report.

    With ``project=True`` the files are additionally indexed together
    and the cross-file rules (RPL010–RPL012) run over the index; their
    findings are appended after the per-file findings. ``select`` spans
    both packs — selecting only project codes runs no per-file rules.
    """
    select_list = list(select) if select is not None else None
    file_select = select_list
    project_select: Optional[List[str]] = None
    project_codes: Set[str] = set()
    if project:
        from repro.devtools.project_rules import PROJECT_RULES

        project_codes = {rule_cls.code for rule_cls in PROJECT_RULES}
    if select_list is not None:
        file_select = [c for c in select_list if c not in project_codes]
        project_select = [c for c in select_list if c in project_codes]
        if not project:
            from repro.devtools.project_rules import PROJECT_RULES as _PR

            stray = sorted(
                set(select_list) & {rule_cls.code for rule_cls in _PR}
            )
            if stray:
                raise ValueError(
                    f"project rule codes {stray} require --project"
                )
    active = _select_rules(rules, file_select)
    violations: List[Violation] = []
    contexts: List[LintContext] = []
    files = _iter_python_files([Path(path) for path in paths])
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        context = build_context(
            source, logical_path_for(file_path), path=str(file_path)
        )
        if isinstance(context, Violation):
            violations.append(context)
            continue
        contexts.append(context)
        violations.extend(_check_context(context, active))
    rule_codes = [rule.code for rule in active]
    if project and (project_select is None or project_select):
        from repro.devtools.project import project_violations
        from repro.devtools.project_rules import PROJECT_RULES

        active_project = tuple(
            rule_cls()
            for rule_cls in PROJECT_RULES
            if project_select is None or rule_cls.code in project_select
        )
        violations.extend(
            project_violations(contexts, rules=active_project)
        )
        rule_codes.extend(rule.code for rule in active_project)
    return LintReport(
        violations=tuple(violations),
        files_checked=len(files),
        rules=tuple(rule_codes),
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """reprolint's options, shared by ``python -m repro.devtools.lint``
    and the ``repro lint`` subcommand."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=[Path("src"), Path("benchmarks")],
        help="files/directories to lint (default: src benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="also run the whole-program rules (RPL010-RPL012)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="repro's AST invariant checker (RPL rules)",
    )
    add_arguments(parser)
    return parser


def _execute(
    paths: Sequence[Path],
    *,
    output_format: str = "text",
    select_csv: Optional[str] = None,
    list_rules: bool = False,
    project: bool = False,
) -> int:
    if list_rules:
        from repro.devtools.project_rules import project_rule_catalog
        from repro.devtools.rules import rule_catalog

        for code, name, description in rule_catalog():
            print(f"{code}  {name:<24} {description}")
        for code, name, description in project_rule_catalog():
            print(f"{code}  {name:<24} [project] {description}")
        return 0
    select = None
    if select_csv is not None:
        select = [code.strip() for code in select_csv.split(",") if code.strip()]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"error: no such path: {missing[0]}", file=sys.stderr)
        return 2
    try:
        report = lint_paths(paths, select=select, project=project)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if output_format == "json":
        print(report.to_json())
    elif output_format == "github":
        print(report.format_github())
    else:
        print(report.format_text())
    return report.exit_code


def execute(
    paths: Sequence[Path],
    *,
    output_format: str = "text",
    select_csv: Optional[str] = None,
    list_rules: bool = False,
    project: bool = False,
) -> int:
    """Shared driver behind ``python -m repro.devtools.lint`` and the
    ``repro lint`` subcommand; returns the process exit code (0/1/2)."""
    try:
        return _execute(
            paths,
            output_format=output_format,
            select_csv=select_csv,
            list_rules=list_rules,
            project=project,
        )
    # Fault boundary, reported then mapped to exit 2: a crash inside a
    # rule must never be mistaken for "violations found" (exit 1) by
    # CI, and the message keeps the traceback's tail for diagnosis.
    except Exception as exc:  # reprolint: disable=RPL006
        print(
            f"error: internal reprolint failure:"
            f" {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2


def run(args: argparse.Namespace) -> int:
    """:func:`execute` on options parsed by :func:`add_arguments`."""
    return execute(
        args.paths,
        output_format=args.format,
        select_csv=args.select,
        list_rules=args.list_rules,
        project=args.project,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the linter; returns the process exit code (0/1/2)."""
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    return run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
