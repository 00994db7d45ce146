"""AST lint rules enforcing the repo's own determinism invariants.

Every rule encodes a contract the codebase already relies on:

* ``unseeded-rng`` — ``np.random.default_rng()`` with no seed (or an
  explicit ``None``) in library code draws from OS entropy, breaking
  the bit-identical-reruns guarantee every cache key and checkpoint
  depends on.
* ``stdlib-random`` — the stdlib ``random`` module has global hidden
  state; library paths must thread explicit ``numpy`` Generators.
* ``nonpicklable-registration`` — callables passed to ``register(...)``
  or as ``ExperimentSpec(task=...)`` (or a ``handler=``/``runner=``
  keyword) cross process-pool boundaries, so lambdas and nested
  functions break the worker tier.
* ``raw-hashlib`` — fingerprints must route through
  :mod:`repro._hashing` so every cache key shares one canonical digest
  construction (and can be upgraded in one place).

A violation is suppressed by a ``# lint: allow-<rule>`` comment on the
offending line — a deliberate, visible whitelist.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List

__all__ = ["LintViolation", "RULES", "lint_file", "lint_source"]

# keyword names carrying a callable that crosses a pickle boundary
_TASK_KEYWORDS = {"task", "handler", "runner"}


@dataclass(frozen=True)
class LintViolation:
    """One lint finding, with enough context to baseline it stably."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class _Context:
    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.violations: List[LintViolation] = []

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        snippet = (
            self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        )
        if f"lint: allow-{rule}" in snippet:
            return
        self.violations.append(
            LintViolation(
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
                snippet=snippet,
            )
        )


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _rule_unseeded_rng(tree: ast.AST, ctx: _Context) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node) != "default_rng":
            continue
        unseeded = not node.args and not node.keywords
        explicit_none = (
            len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value is None
        )
        if unseeded or explicit_none:
            ctx.report(
                node,
                "unseeded-rng",
                "default_rng() without a seed draws from OS entropy; "
                "thread an explicit seed/Generator (or whitelist with "
                "'# lint: allow-unseeded-rng')",
            )


def _rule_stdlib_random(tree: ast.AST, ctx: _Context) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    ctx.report(
                        node,
                        "stdlib-random",
                        "stdlib 'random' has hidden global state; use a "
                        "seeded numpy Generator",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                ctx.report(
                    node,
                    "stdlib-random",
                    "stdlib 'random' has hidden global state; use a "
                    "seeded numpy Generator",
                )


def _nested_function_names(tree: ast.AST) -> set:
    """Names of functions defined inside another function's body."""
    nested: set = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer:
                continue
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(inner.name)
    return nested


def _rule_nonpicklable_registration(tree: ast.AST, ctx: _Context) -> None:
    nested = _nested_function_names(tree)

    def _check_value(node: ast.Call, value: ast.AST, what: str) -> None:
        if isinstance(value, ast.Lambda):
            ctx.report(
                node,
                "nonpicklable-registration",
                f"{what} is a lambda — it cannot cross the process-pool "
                "pickle boundary; use a module-level function",
            )
        elif isinstance(value, ast.Name) and value.id in nested:
            ctx.report(
                node,
                "nonpicklable-registration",
                f"{what} {value.id!r} is a nested function — it cannot "
                "cross the process-pool pickle boundary; move it to "
                "module level",
            )

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name == "register":
            for arg in node.args:
                _check_value(node, arg, f"argument of {name}()")
            for kw in node.keywords:
                if kw.arg in _TASK_KEYWORDS or kw.arg is None:
                    _check_value(node, kw.value, f"{name}({kw.arg}=...)")
        elif name == "ExperimentSpec":
            for kw in node.keywords:
                if kw.arg in _TASK_KEYWORDS:
                    _check_value(
                        node, kw.value, f"ExperimentSpec({kw.arg}=...)"
                    )


def _rule_raw_hashlib(tree: ast.AST, ctx: _Context) -> None:
    if Path(ctx.path).name == "_hashing.py":
        return  # the one canonical home of raw hashlib
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            if node.value.id == "hashlib":
                ctx.report(
                    node,
                    "raw-hashlib",
                    "construct digests through repro._hashing "
                    "(new_digest/json_digest) so every fingerprint shares "
                    "one canonical scheme",
                )
        elif isinstance(node, ast.ImportFrom) and node.module == "hashlib":
            ctx.report(
                node,
                "raw-hashlib",
                "import digests from repro._hashing, not hashlib directly",
            )


RULES: Dict[str, Callable[[ast.AST, _Context], None]] = {
    "unseeded-rng": _rule_unseeded_rng,
    "stdlib-random": _rule_stdlib_random,
    "nonpicklable-registration": _rule_nonpicklable_registration,
    "raw-hashlib": _rule_raw_hashlib,
}


def lint_source(source: str, path: str = "<string>") -> List[LintViolation]:
    """Run every rule over one source string."""
    ctx = _Context(path, source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        ctx.violations.append(
            LintViolation(
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule="syntax-error",
                message=f"file does not parse: {exc.msg}",
                snippet=(exc.text or "").strip(),
            )
        )
        return ctx.violations
    for rule in RULES.values():
        rule(tree, ctx)
    ctx.violations.sort(key=lambda v: (v.line, v.col, v.rule))
    return ctx.violations


def lint_file(path: Path | str) -> List[LintViolation]:
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path))
