"""The AST rule family: concurrency and contract discipline.

These are the checks the generic linters cannot express because they
encode *this repo's* invariants:

* ``COD001`` (lock discipline) — an attribute that is ever written
  under ``with self.<lock>:`` belongs to that lock; touching it outside
  any lock block (``__init__`` excepted) is a data race waiting for
  load.
* ``COD002`` (lazy orderer contract) — ``order`` / ``order_spaces``
  implementations must stream: no ``list()`` /
  ``sorted()`` / ``tuple()`` over a ``.plans()`` enumeration.  This is
  the static face of ``tests/ordering/test_lazy_contract.py``.
* ``COD003`` (production assert) — ``assert`` vanishes under
  ``python -O``; invariants must raise
  :class:`~repro.errors.InternalError` instead.
* ``COD004`` (broad except) — ``except Exception`` that does not use
  the caught exception swallows failures silently.
* ``COD006`` (bare sleep) — ``time.sleep`` in service/resilience code is
  an uninterruptible pause; shutdown and cancellation must be able to
  wake every wait, so pauses go through an event-like ``.wait()``
  (``CancellationToken.wait``, ``threading.Event.wait``).
* ``COD007`` (library print) — ``print()`` in library code bypasses the
  observability layer (journal, metrics, tracing) and cannot be
  silenced by embedders; only the CLI and the experiment reporters
  (allow-listed by path) may write to stdout directly.

Every checker takes a :class:`~repro.analysis.astutils.CodeModule` and
yields :class:`~repro.analysis.diagnostics.Diagnostic` records.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutils import (
    CodeModule,
    attribute_chain,
    class_defs,
    lock_context_attr,
    names_in,
    self_attribute,
)
from repro.analysis.diagnostics import Diagnostic, Location


def _diagnostic(
    module: CodeModule,
    rule_id: str,
    node: ast.AST,
    message: str,
) -> Diagnostic:
    return Diagnostic(
        rule=rule_id,
        message=message,
        location=Location(
            module.path,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", -1) + 1,
        ),
    )


# -- COD001: lock discipline -------------------------------------------------------


class _LockUsage(ast.NodeVisitor):
    """Collects guarded/unguarded ``self.<attr>`` accesses of one class.

    An access is a *write* when it assigns, augments or deletes the
    attribute itself; anything else is a read.  Reads are harmless to
    share as long as nobody writes concurrently, so the discipline is:

    * an outside WRITE races with any guarded access at all;
    * an outside READ races only with guarded WRITES.

    Reads of immutable references (``self.registry`` passed along under
    an unrelated lock) thus stay clean, while counters and the other
    attributes assigned under a lock are held to it.
    """

    def __init__(self) -> None:
        #: Attrs with any access under a lock / with a write under one.
        self.guarded: set[str] = set()
        self.guarded_writes: set[str] = set()
        #: (attr, node, method, is_write) outside any lock block.
        self.unguarded: list[tuple[str, ast.Attribute, str, bool]] = []
        self._lock_depth = 0
        self._method = ""
        self._exempt_method = False

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        outer_method, outer_exempt = self._method, self._exempt_method
        if not self._method:
            self._method = node.name
            # __init__ runs before the object is shared across threads;
            # requiring the lock there would be noise, not safety.
            self._exempt_method = node.name == "__init__"
        self.generic_visit(node)
        self._method, self._exempt_method = outer_method, outer_exempt

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_With(self, node: ast.With) -> None:
        holds_lock = any(lock_context_attr(item) is not None for item in node.items)
        for item in node.items:
            self.visit(item)
        if holds_lock:
            self._lock_depth += 1
        for statement in node.body:
            self.visit(statement)
        if holds_lock:
            self._lock_depth -= 1

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self_attribute(node)
        if attr is not None:
            is_write = isinstance(node.ctx, (ast.Store, ast.Del))
            if self._lock_depth > 0:
                self.guarded.add(attr)
                if is_write:
                    self.guarded_writes.add(attr)
            elif not self._exempt_method:
                self.unguarded.append((attr, node, self._method, is_write))
        self.generic_visit(node)


def check_lock_discipline(module: CodeModule) -> Iterator[Diagnostic]:
    """COD001: an attribute guarded by a lock is also accessed outside it.

    An attribute read or written under `with self._lock:` is shared
    state; any access outside the lock races with the guarded ones.
    """
    for cls in class_defs(module.tree):
        usage = _LockUsage()
        for statement in cls.body:
            usage.visit(statement)
        if not usage.guarded:
            continue
        for attr, node, method, is_write in usage.unguarded:
            if is_write:
                racy = attr in usage.guarded
            else:
                racy = attr in usage.guarded_writes
            if not racy:
                continue
            kind = "written" if is_write else "read"
            yield _diagnostic(
                module,
                "COD001",
                node,
                f"attribute 'self.{attr}' of class {cls.name!r} is "
                f"mutated under a lock elsewhere but {kind} lock-free in "
                f"{method or cls.name}()",
            )


# -- COD002: lazy orderer contract -------------------------------------------------

_ORDER_METHODS = ("order", "order_spaces")
_MATERIALIZERS = ("list", "sorted", "tuple")


def _materializes_plans(call: ast.Call) -> bool:
    """Is *call* ``list``/``sorted``/``tuple`` over a ``.plans()`` enumeration?"""
    return (
        isinstance(call.func, ast.Name)
        and call.func.id in _MATERIALIZERS
        and bool(call.args)
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "plans"
            for node in ast.walk(call.args[0])
        )
    )


def check_lazy_orderer_contract(module: CodeModule) -> Iterator[Diagnostic]:
    """COD002: an order method materializes a plan-space enumeration.

    Consumers pay for exactly the prefix they read; list()/sorted() over
    the plan space silently re-introduces the O(plan-space) cost the
    paper's algorithms exist to avoid.
    """
    for cls in class_defs(module.tree):
        for statement in cls.body:
            if not (
                isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                and statement.name in _ORDER_METHODS
            ):
                continue
            for node in ast.walk(statement):
                if isinstance(node, ast.Call) and _materializes_plans(node):
                    yield _diagnostic(
                        module,
                        "COD002",
                        node,
                        f"{cls.name}.{statement.name}() calls "
                        f"{node.func.id}() over a .plans() enumeration",
                    )


# -- COD003: production asserts ----------------------------------------------------


def check_production_assert(module: CodeModule) -> Iterator[Diagnostic]:
    """COD003: an assert statement in production code.

    `python -O` strips asserts, so an invariant guarded by one simply
    stops being checked; raise repro.errors.InternalError instead.
    """
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assert):
            condition = ast.unparse(node.test)
            if len(condition) > 60:
                condition = condition[:57] + "..."
            yield _diagnostic(
                module,
                "COD003",
                node,
                f"assert {condition!r} disappears under python -O",
            )


# -- COD004: broad except ----------------------------------------------------------


def check_broad_except(module: CodeModule) -> Iterator[Diagnostic]:
    """COD004: a broad exception handler that does not use the error.

    Catching Exception/BaseException and dropping the error on the floor
    hides real failures; handlers must log or carry the exception
    onward.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        chain = attribute_chain(node.type)
        name = chain[-1] if chain else ""
        if name not in ("Exception", "BaseException"):
            continue
        body = ast.Module(body=list(node.body), type_ignores=[])
        if node.name is not None and node.name in names_in(body):
            continue
        yield _diagnostic(
            module,
            "COD004",
            node,
            f"except {name} swallows the error: the handler never "
            f"references the caught exception",
        )


# -- COD006: bare time.sleep -------------------------------------------------------


def _time_sleep_imports(tree: ast.Module) -> set[str]:
    """Local names that resolve to ``time.sleep`` in this module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "sleep":
                    names.add(alias.asname or alias.name)
    return names


def check_bare_sleep(module: CodeModule) -> Iterator[Diagnostic]:
    """COD006: an uninterruptible time.sleep in concurrent code.

    A thread parked in time.sleep cannot be woken: cancellation and
    shutdown stall until the full delay elapses.  Waits must go through
    an event-like primitive (CancellationToken.wait,
    threading.Event.wait) that a signal can interrupt.
    """
    imported = _time_sleep_imports(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            bare = attribute_chain(func) == ("time", "sleep")
        else:
            bare = isinstance(func, ast.Name) and func.id in imported
        if not bare:
            continue
        yield _diagnostic(
            module,
            "COD006",
            node,
            "bare time.sleep cannot be interrupted by cancellation or shutdown",
        )


# -- COD007: print in library code -------------------------------------------------

#: Trailing path components where printing to stdout IS the job: the
#: CLI, module entry points, and the experiment CLI.
_PRINT_ALLOWED_TAILS = (
    ("cli.py",),
    ("__main__.py",),
    ("experiments", "figure6.py"),
)


def _print_allowed(path: str) -> bool:
    # Whole components: ``service/loadgen_cli.py`` is library code.
    parts = tuple(path.split("/"))
    return any(parts[-len(tail):] == tail for tail in _PRINT_ALLOWED_TAILS)


def check_library_print(module: CodeModule) -> Iterator[Diagnostic]:
    """COD007: print() in library code instead of the observability layer.

    Library code writes stdout that embedders (services, tests,
    pipelines) cannot intercept or silence; observations belong in the
    journal, the metric registry, or a returned report object.  Only the
    CLI and the experiment reporters print.
    """
    if _print_allowed(module.path):
        return
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield _diagnostic(
                module, "COD007", node, "print() writes to stdout from library code"
            )


#: The code family, run over every parsed module.
CODE_RULES = (
    check_lock_discipline,
    check_lazy_orderer_contract,
    check_production_assert,
    check_broad_except,
    check_bare_sleep,
    check_library_print,
)
