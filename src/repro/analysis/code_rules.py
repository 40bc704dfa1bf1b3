"""The AST rule family: concurrency and contract discipline.

These are the checks the generic linters cannot express because they
encode *this repo's* invariants:

* ``COD001 lock-discipline`` — an attribute that is ever touched under
  ``with self.<lock>:`` belongs to that lock; touching it outside any
  lock block (``__init__`` excepted) is a data race waiting for load.
* ``COD002 lazy-orderer-contract`` — ``PlanOrderer.order`` /
  ``order_spaces`` implementations must stream: no ``list()`` /
  ``sorted()`` over the incoming plan iterable before the first plan
  is yielded, and a non-generator implementation must delegate to one.
  This is the static face of ``tests/ordering/test_lazy_contract.py``.
* ``COD003 production-assert`` — ``assert`` vanishes under
  ``python -O``; invariants must raise
  :class:`~repro.errors.InternalError` instead.
* ``COD004 broad-except`` — ``except Exception`` that neither
  re-raises nor uses the caught exception swallows failures silently.
* ``COD006 bare-sleep`` — ``time.sleep`` in service/resilience code is
  an uninterruptible pause; shutdown and cancellation must be able to
  wake every wait, so pauses go through an event-like ``.wait()``
  (``CancellationToken.wait``, ``threading.Event.wait``).
* ``COD007 library-print`` — ``print()`` in library code bypasses the
  observability layer (journal, metrics, tracing) and cannot be
  silenced by embedders; only the CLI and the experiment reporters
  (allow-listed by path) may write to stdout directly.

Every checker takes a :class:`~repro.analysis.astutils.CodeModule` and
yields :class:`~repro.analysis.diagnostics.Diagnostic` records.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.astutils import (
    CodeModule,
    attribute_chain,
    base_names,
    class_defs,
    first_yield_line,
    has_yield,
    is_lock_name,
    lock_context_attr,
    names_in,
    self_attribute,
)
from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.analysis.registry import FAMILY_CODE, rule


def _diagnostic(
    module: CodeModule,
    rule_id: str,
    severity: Severity,
    node: ast.AST,
    message: str,
    fix_hint: str = "",
    **data: object,
) -> Diagnostic:
    return Diagnostic(
        rule=rule_id,
        severity=severity,
        message=message,
        location=Location(
            module.path,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", -1) + 1,
        ),
        fix_hint=fix_hint,
        data=data,
    )


# -- COD001: lock discipline -------------------------------------------------------


class _LockUsage(ast.NodeVisitor):
    """Collects guarded/unguarded ``self.<attr>`` accesses of one class.

    An access is *write-ish* when it can change the attribute's state:
    assignment / augmented assignment / deletion, a subscript store
    through it (``self._d[k] = v``), or a method call on it
    (``self._d.get(k)`` — conservatively, any receiver position).
    Plain reads (bare loads, subscript loads, argument positions) are
    harmless to share as long as nobody mutates concurrently; the
    discipline therefore is:

    * an outside WRITE races with any guarded access at all;
    * an outside READ races only with guarded WRITES.

    Reads of immutable references (``self.registry`` passed along under
    an unrelated lock) thus stay clean, while the actual shared
    containers and counters are held to the lock.
    """

    def __init__(self) -> None:
        #: Attrs with any access under a lock / with write-ish access.
        self.guarded: set[str] = set()
        self.guarded_writes: set[str] = set()
        #: (attr, node, method, is_write) outside any lock block.
        self.unguarded: list[tuple[str, ast.Attribute, str, bool]] = []
        self._lock_depth = 0
        self._method = ""
        self._exempt_method = False
        #: ids of attribute nodes that are the callee of a direct
        #: ``self.method(...)`` call — method lookups, not state.
        self._call_funcs: set[int] = set()
        #: ids of attribute nodes used in a mutating position.
        self._writeish: set[int] = set()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Nested classes get their own analysis pass; don't mix attrs.
        return

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

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if self_attribute(func) is not None:
            self._call_funcs.add(id(func))
        elif isinstance(func, ast.Attribute) and self_attribute(func.value):
            # self.<attr>.method(...): the receiver may be mutated.
            self._writeish.add(id(func.value))
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)) and self_attribute(
            node.value
        ):
            self._writeish.add(id(node.value))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self_attribute(node)
        if (
            attr is not None
            and not is_lock_name(attr)
            and id(node) not in self._call_funcs
        ):
            is_write = (
                isinstance(node.ctx, (ast.Store, ast.Del))
                or id(node) in self._writeish
            )
            if self._lock_depth > 0:
                self.guarded.add(attr)
                if is_write:
                    self.guarded_writes.add(attr)
            elif not self._exempt_method:
                self.unguarded.append((attr, node, self._method, is_write))
        self.generic_visit(node)


@rule(
    "COD001",
    "lock-discipline",
    FAMILY_CODE,
    Severity.ERROR,
    "attribute guarded by a lock is also accessed outside it",
    "An attribute read or written under `with self._lock:` is shared "
    "state; any access outside the lock races with the guarded ones.",
)
def check_lock_discipline(module: CodeModule) -> Iterator[Diagnostic]:
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
                Severity.ERROR,
                node,
                f"attribute 'self.{attr}' of class {cls.name!r} is "
                f"mutated under a lock elsewhere but {kind} lock-free in "
                f"{method or cls.name}()",
                fix_hint=f"wrap the access in the same `with self.<lock>:` "
                f"block that guards 'self.{attr}'",
                attribute=attr,
                class_name=cls.name,
                method=method,
            )


# -- COD002: lazy orderer contract -------------------------------------------------

_ORDER_METHODS = ("order", "order_spaces")
_MATERIALIZERS = ("list", "sorted", "tuple")
_PLAN_PARAMS = ("space", "spaces", "plans", "plan_space", "plan_spaces")


def _materializes_plan_iterable(
    call: ast.Call, plan_params: set[str]
) -> Optional[str]:
    """Why this call eagerly materializes the plan iterable, or None."""
    if not isinstance(call.func, ast.Name) or call.func.id not in _MATERIALIZERS:
        return None
    if not call.args:
        return None
    argument = call.args[0]
    for node in ast.walk(argument):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "plans"
        ):
            return f"{call.func.id}() over a .plans() enumeration"
    if names_in(argument) & plan_params:
        which = ", ".join(sorted(names_in(argument) & plan_params))
        return f"{call.func.id}() over plan-space parameter {which!r}"
    return None


def _delegates(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Does a non-generator implementation forward to another orderer?"""
    for statement in func.body:
        if not isinstance(statement, ast.Return) or statement.value is None:
            continue
        for node in ast.walk(statement.value):
            if isinstance(node, ast.Call):
                chain = attribute_chain(node.func)
                name = chain[-1] if chain else (
                    node.func.id if isinstance(node.func, ast.Name) else ""
                )
                if name.startswith("order"):
                    return True
    return False


@rule(
    "COD002",
    "lazy-orderer-contract",
    FAMILY_CODE,
    Severity.ERROR,
    "orderer materializes the plan iterable before the first yield",
    "Consumers pay for exactly the prefix they read; list()/sorted() "
    "over the plan space before the first yield silently re-introduces "
    "the O(plan-space) cost the paper's algorithms exist to avoid.",
)
def check_lazy_orderer_contract(module: CodeModule) -> Iterator[Diagnostic]:
    for cls in class_defs(module.tree):
        bases = base_names(cls)
        if not any(base.endswith("Orderer") for base in bases):
            continue
        for statement in cls.body:
            if not isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if statement.name not in _ORDER_METHODS:
                continue
            plan_params = {
                arg.arg
                for arg in (
                    *statement.args.posonlyargs,
                    *statement.args.args,
                    *statement.args.kwonlyargs,
                )
                if arg.arg in _PLAN_PARAMS
            }
            if not has_yield(statement):
                if not _delegates(statement):
                    yield _diagnostic(
                        module,
                        "COD002",
                        Severity.ERROR,
                        statement,
                        f"{cls.name}.{statement.name}() is neither a "
                        f"generator nor a delegation to another order*() "
                        f"call; it computes the ordering eagerly",
                        fix_hint="turn the method into a generator "
                        "(yield plans one by one) or return another "
                        "orderer method's iterator",
                        class_name=cls.name,
                        method=statement.name,
                    )
                continue
            yield_line = first_yield_line(statement)
            for node in ast.walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                reason = _materializes_plan_iterable(node, plan_params)
                if reason is None:
                    continue
                if yield_line is not None and node.lineno > yield_line:
                    continue
                yield _diagnostic(
                    module,
                    "COD002",
                    Severity.ERROR,
                    node,
                    f"{cls.name}.{statement.name}() calls {reason} before "
                    f"yielding its first plan",
                    fix_hint="iterate the plan space lazily; only "
                    "materialize what has already been emitted",
                    class_name=cls.name,
                    method=statement.name,
                )


# -- COD003: production asserts ----------------------------------------------------


@rule(
    "COD003",
    "production-assert",
    FAMILY_CODE,
    Severity.ERROR,
    "assert statement in production code",
    "`python -O` strips asserts, so an invariant guarded by one simply "
    "stops being checked; raise repro.errors.InternalError instead.",
)
def check_production_assert(module: CodeModule) -> Iterator[Diagnostic]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assert):
            condition = ast.unparse(node.test)
            if len(condition) > 60:
                condition = condition[:57] + "..."
            yield _diagnostic(
                module,
                "COD003",
                Severity.ERROR,
                node,
                f"assert {condition!r} disappears under python -O",
                fix_hint="raise InternalError (repro.errors) with the "
                "same condition instead",
            )


# -- COD004: broad except ----------------------------------------------------------


@rule(
    "COD004",
    "broad-except",
    FAMILY_CODE,
    Severity.WARNING,
    "broad exception handler that neither re-raises nor uses the error",
    "Catching Exception/BaseException and dropping the error on the "
    "floor hides real failures; handlers must re-raise, log, or carry "
    "the exception onward.",
)
def check_broad_except(module: CodeModule) -> Iterator[Diagnostic]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            caught = "bare except"
        else:
            chain = attribute_chain(node.type)
            name = chain[-1] if chain else ""
            if name not in ("Exception", "BaseException"):
                continue
            caught = f"except {name}"
        body = ast.Module(body=list(node.body), type_ignores=[])
        reraises = any(
            isinstance(child, ast.Raise) for child in ast.walk(body)
        )
        uses_error = node.name is not None and node.name in names_in(body)
        if reraises or uses_error:
            continue
        yield _diagnostic(
            module,
            "COD004",
            Severity.WARNING,
            node,
            f"{caught} swallows the error: the handler neither re-raises "
            f"nor references the caught exception",
            fix_hint="re-raise, narrow the exception type, or record the "
            "exception (log/metric/result object)",
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


def _enclosing_function(
    tree: ast.Module, target: ast.AST
) -> Optional[str]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in ast.walk(node):
                if child is target:
                    return node.name
    return None


@rule(
    "COD006",
    "bare-sleep",
    FAMILY_CODE,
    Severity.ERROR,
    "uninterruptible time.sleep in concurrent code",
    "A thread parked in time.sleep cannot be woken: cancellation and "
    "shutdown stall until the full delay elapses.  Waits must go "
    "through an event-like primitive (CancellationToken.wait, "
    "threading.Event.wait) that a signal can interrupt.",
)
def check_bare_sleep(module: CodeModule) -> Iterator[Diagnostic]:
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
        where = _enclosing_function(module.tree, node)
        context = f" in {where}()" if where else ""
        yield _diagnostic(
            module,
            "COD006",
            Severity.ERROR,
            node,
            f"bare time.sleep{context} cannot be interrupted by "
            f"cancellation or shutdown",
            fix_hint="wait on a cancellable primitive instead: "
            "CancellationToken.wait(timeout) or threading.Event.wait "
            "(returning early when set)",
            function=where or "",
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
    parts = tuple(path.replace("\\", "/").split("/"))
    return any(parts[-len(tail):] == tail for tail in _PRINT_ALLOWED_TAILS)


@rule(
    "COD007",
    "library-print",
    FAMILY_CODE,
    Severity.ERROR,
    "print() in library code instead of the observability layer",
    "Library code writes stdout that embedders (services, tests, "
    "pipelines) cannot intercept or silence; observations belong in "
    "the journal, the metric registry, or a returned report object.  "
    "Only the CLI and the experiment reporters print.",
)
def check_library_print(module: CodeModule) -> Iterator[Diagnostic]:
    if _print_allowed(module.path):
        return
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            where = _enclosing_function(module.tree, node)
            context = f" in {where}()" if where else ""
            yield _diagnostic(
                module,
                "COD007",
                Severity.ERROR,
                node,
                f"print(){context} writes to stdout from library code",
                fix_hint="emit a journal event, record a metric, or "
                "return the text to the caller; printing is reserved "
                "for cli.py and the experiment reporters",
                function=where or "",
            )
