"""Shared AST plumbing for the code and concurrency rule families.

A :class:`CodeModule` is one parsed module and its path; the helpers
below name the attribute chains, lock names and yields the rules read.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import AnalysisError


@dataclass
class CodeModule:
    """One parsed Python module."""

    path: str
    tree: ast.Module

    @classmethod
    def from_source(cls, source: str, path: str = "<string>") -> "CodeModule":
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise AnalysisError(
                f"cannot parse {path}: {exc.msg} (line {exc.lineno})"
            ) from exc
        return cls(path, tree)

    @classmethod
    def from_file(cls, path: str) -> "CodeModule":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
        return cls.from_source(source, path)


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


def names_in(node: ast.AST) -> set[str]:
    """Every bare name referenced anywhere under *node*."""
    return {
        child.id for child in ast.walk(node) if isinstance(child, ast.Name)
    }
