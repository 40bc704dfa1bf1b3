"""Shared AST plumbing for the code-rule family.

A :class:`CodeModule` bundles a parsed module with its source text and
the per-line suppression directives.  Suppressions use the form::

    risky_call()  # lint: allow[lock-discipline] reason...

naming the rule by slug or id; the directive may sit on the flagged
line or on the line directly above it.  Rules never look at
suppressions themselves — the runner filters centrally so every rule
gets them for free.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from typing import Iterator, Optional

from repro.errors import AnalysisError

#: ``# lint: allow[rule, rule2] optional free-text reason``
_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\[([^\]]+)\]")


@dataclass
class CodeModule:
    """One parsed Python module plus its lint-relevant source context."""

    path: str
    source: str
    tree: ast.Module
    #: line number -> frozenset of allowed rule ids/slugs on that line.
    allows: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, path: str = "<string>") -> "CodeModule":
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise AnalysisError(
                f"cannot parse {path}: {exc.msg} (line {exc.lineno})"
            ) from exc
        return cls(path, source, tree, _collect_allows(source))

    @classmethod
    def from_file(cls, path: str) -> "CodeModule":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
        return cls.from_source(source, path)

    def allowed(self, line: int, rule_id: str, slug: str) -> bool:
        """Is the rule suppressed at *line* (same line or the one above)?"""
        for candidate in (line, line - 1):
            names = self.allows.get(candidate)
            if names and (rule_id in names or slug in names):
                return True
        return False


def _collect_allows(source: str) -> dict[int, frozenset[str]]:
    """Map line numbers to the rule names allowed there.

    Uses the tokenizer rather than a per-line regex so directives
    inside string literals don't count as suppressions.
    """
    allows: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(token.string)
            if match is None:
                continue
            names = frozenset(
                name.strip() for name in match.group(1).split(",") if name.strip()
            )
            if names:
                line = token.start[0]
                allows[line] = allows.get(line, frozenset()) | names
    except tokenize.TokenError:
        # A tokenizer hiccup only costs suppressions, not findings.
        pass
    return allows


# -- small AST helpers ------------------------------------------------------------


def attribute_chain(node: ast.AST) -> Optional[tuple[str, ...]]:
    """``self.registry.lock`` -> ("self", "registry", "lock"); None otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def self_attribute(node: ast.AST) -> Optional[str]:
    """The attribute name when *node* is exactly ``self.<attr>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


#: Last words of a name that make it a lock, condition or semaphore.
_LOCK_WORDS = frozenset({"lock", "rlock", "cond", "condition", "semaphore"})


def is_lock_name(name: str) -> bool:
    """Does an attribute name name a lock/condition/semaphore?

    Its last ``_``-separated word must be one: ``_lock``, ``cond`` and
    ``_measure_lock`` are locks; ``_clock``, ``_seconds``,
    ``_blocking`` and ``_lock_depth`` are not.
    """
    return name.lower().rsplit("_", 1)[-1] in _LOCK_WORDS


def lock_context_attr(item: ast.withitem) -> Optional[tuple[str, ...]]:
    """The ``self.…lock`` chain of a with-item, if it guards a lock."""
    chain = attribute_chain(item.context_expr)
    if chain and chain[0] == "self" and len(chain) >= 2 and is_lock_name(chain[-1]):
        return chain
    return None


def class_defs(tree: ast.Module) -> Iterator[ast.ClassDef]:
    for child in ast.walk(tree):
        if isinstance(child, ast.ClassDef):
            yield child


def base_names(cls: ast.ClassDef) -> tuple[str, ...]:
    """The textual names of a class's bases (last attribute segment)."""
    names = []
    for base in cls.bases:
        chain = attribute_chain(base)
        if chain:
            names.append(chain[-1])
        elif isinstance(base, ast.Name):
            names.append(base.id)
    return tuple(names)


def has_yield(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Does the function body itself yield (nested defs excluded)?"""
    for node in _walk_own_body(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def first_yield_line(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Optional[int]:
    """Line of the function's first own yield, or None."""
    best: Optional[int] = None
    for node in _walk_own_body(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if best is None or node.lineno < best:
                best = node.lineno
    return best


def _walk_own_body(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def names_in(node: ast.AST) -> set[str]:
    """Every bare name referenced anywhere under *node*."""
    return {
        child.id for child in ast.walk(node) if isinstance(child, ast.Name)
    }
