"""Phase 1 of the concurrency pass: per-module fact extraction.

Each module is reduced to a :class:`ModuleFacts` record — classes,
their lock attributes, and per-method summaries of what runs with
which locks held.  Facts are purely syntactic and local to one file;
:mod:`repro.analysis.concurrency.model` later joins them into a
whole-program view (type inference, call-graph closure, lock-order
graph).

The extractor deliberately shares COD001's vocabulary (``with
self.<lock>:`` regions, ``self.<attr>`` accesses) but records *where*
every access happens and *under which locks* every call and blocking
operation happens, instead of collapsing to a guarded/unguarded bit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.astutils import (
    CodeModule,
    attribute_chain,
    base_names,
    is_lock_name,
    lock_context_attr,
)

#: A dotted attribute path, e.g. ``("self", "registry", "lock")``.
Chain = tuple[str, ...]

#: ``threading`` constructor name -> lock kind.  The kind matters for
#: cycle reporting: re-acquiring an RLock/Condition on the same
#: instance is legal, re-acquiring a plain Lock self-deadlocks.
LOCK_CTORS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore",
}

#: Attribute-call names treated as potentially long-blocking I/O.
_SOCKET_BLOCKERS = frozenset(
    {"recv", "recv_into", "accept", "sendall", "readline", "connect",
     "create_connection"}
)


@dataclass(frozen=True)
class Acquisition:
    """One lock acquisition site: a ``with`` item."""

    chain: Chain
    line: int


@dataclass(frozen=True)
class Access:
    """One ``self.<attr>`` access: a store or delete, or a read."""

    attr: str
    line: int
    is_write: bool


@dataclass(frozen=True)
class CallSite:
    """One call, encoded for later whole-program resolution.

    ``callee`` uses a small tag vocabulary:

    * ``("self", "m")`` / ``("self", "attr.m")`` — method through self;
    * ``("@local", "Type", "m")`` — method on a local whose constructor
      ran in the same function;
    * ``("@name", "f")`` — bare-name call (module function, sibling
      nested def, or class constructor).
    """

    callee: Chain
    line: int
    held: tuple[Chain, ...]
    #: Positional/keyword args that are themselves attribute chains
    #: (``registry=self.registry``) — keyed by position int or kw name.
    arg_chains: tuple[tuple[object, Chain], ...] = ()


@dataclass(frozen=True)
class BlockingCall:
    """A potentially long-blocking operation and the locks around it."""

    desc: str
    kind: str
    line: int
    held: tuple[Chain, ...]


@dataclass(frozen=True)
class ThreadSpawn:
    """A ``Thread(target=self.<method>)`` spawn in this method.

    ``target`` is the method's qualname in the spawning class: a plain
    method, or a nested def like ``_pipeline.produce``.
    """

    target: str
    line: int


@dataclass
class MethodFacts:
    """Everything phase 2 needs to know about one function body."""

    name: str
    qualname: str
    class_name: str
    path: str
    line: int
    acquisitions: list[Acquisition] = field(default_factory=list)
    accesses: list[Access] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    blocking: list[BlockingCall] = field(default_factory=list)
    spawns: list[ThreadSpawn] = field(default_factory=list)


@dataclass
class ClassFacts:
    """One class: its locks, aliases, and method summaries."""

    name: str
    path: str
    line: int
    bases: tuple[str, ...] = ()
    #: attr -> lock kind, for locks constructed in this class.
    lock_attrs: dict[str, str] = field(default_factory=dict)
    #: attr -> __init__ parameter it aliases (``self._lock = lock``).
    param_attrs: dict[str, str] = field(default_factory=dict)
    #: attr -> class name of the constructor assigned to it.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: method/property name -> own lock attr it returns.
    lock_props: dict[str, str] = field(default_factory=dict)
    #: __init__ parameters after self, in declaration order.
    init_params: tuple[str, ...] = ()
    methods: dict[str, MethodFacts] = field(default_factory=dict)

    def is_thread_subclass(self) -> bool:
        return any(base == "Thread" for base in self.bases)


@dataclass(frozen=True)
class EmitSite:
    """One ``.emit(...)`` call site (for CON004)."""

    event: Optional[str]
    literal_kwargs: frozenset[str]
    line: int


@dataclass
class ModuleFacts:
    """The phase-1 summary of one parsed module."""

    path: str
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    functions: dict[str, MethodFacts] = field(default_factory=dict)
    emits: list[EmitSite] = field(default_factory=list)


# -- small helpers ------------------------------------------------------------------


def _ctor_name(node: ast.AST) -> Optional[str]:
    """The constructor name when *node* is ``X(...)``/``threading.X(...)``."""
    if not isinstance(node, ast.Call):
        return None
    chain = attribute_chain(node.func)
    if chain:
        return chain[-1]
    return None


def _ctor_candidates(value: ast.expr) -> list[str]:
    """Constructor names reachable through ``or``/ternary alternatives."""
    names: list[str] = []
    stack = [value]
    while stack:
        node = stack.pop()
        name = _ctor_name(node)
        if name is not None:
            names.append(name)
        elif isinstance(node, ast.IfExp):
            stack.extend((node.body, node.orelse))
        elif isinstance(node, ast.BoolOp):
            stack.extend(node.values)
    return names


def _has_timeout(call: ast.Call) -> bool:
    if call.args:
        return True
    return any(kw.arg in ("timeout",) for kw in call.keywords)


# -- the per-function walker --------------------------------------------------------


class _FunctionWalker:
    """Walks one function body tracking the set of held locks.

    Only ``with <lock>:`` regions hold a lock; an explicit
    ``.acquire()``/``.release()`` pair is not modelled.
    """

    def __init__(
        self,
        facts: MethodFacts,
        sink: dict[str, MethodFacts],
        local_types: dict[str, str],
        class_facts: Optional[ClassFacts],
    ) -> None:
        self.facts = facts
        self.sink = sink
        self.local_types = dict(local_types)
        self.cls = class_facts
        self._held: list[Chain] = []

    # -- held-set plumbing ----------------------------------------------------------

    def _snapshot(self) -> tuple[Chain, ...]:
        return tuple(self._held)

    # -- statements -----------------------------------------------------------------

    def walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._walk_nested_def(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._walk_with(stmt)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._walk_expr(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._walk_expr(stmt.iter)
            self._walk_expr(stmt.target)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self.walk_body(stmt.body)
            for handler in stmt.handlers:
                self.walk_body(handler.body)
            self.walk_body(stmt.orelse)
            self.walk_body(stmt.finalbody)
        else:
            # Leaf statements: record local constructor types, then
            # walk every expression.
            if isinstance(stmt, ast.Assign):
                ctor = _ctor_name(stmt.value)
                if ctor is not None:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            self.local_types[target.id] = ctor
            for node in ast.iter_child_nodes(stmt):
                self._walk_expr(node)

    def _walk_with(self, stmt: ast.With | ast.AsyncWith) -> None:
        pushed: list[Chain] = []
        for item in stmt.items:
            self._walk_expr(item.context_expr)
            chain = lock_context_attr(item)
            if chain is not None and chain not in self._held:
                self.facts.acquisitions.append(
                    Acquisition(chain, item.context_expr.lineno)
                )
                self._held.append(chain)
                pushed.append(chain)
        self.walk_body(stmt.body)
        for chain in pushed:
            self._held.remove(chain)

    def _walk_nested_def(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        """A nested def becomes its own pseudo-method of the class.

        Its body runs when *called* (possibly on another thread), so it
        starts with an empty held set but inherits the enclosing local
        constructor types (closures see those variables).
        """
        qualname = f"{self.facts.qualname}.{node.name}"
        nested = MethodFacts(
            name=node.name,
            qualname=qualname,
            class_name=self.facts.class_name,
            path=self.facts.path,
            line=node.lineno,
        )
        self.sink[qualname] = nested
        walker = _FunctionWalker(nested, self.sink, self.local_types, self.cls)
        walker.walk_body(node.body)

    # -- expressions ----------------------------------------------------------------

    def _walk_expr(self, node: ast.AST) -> None:
        """Record accesses/calls/blocking under *node* (no nested defs)."""
        call_funcs: set[int] = set()
        stack: list[ast.AST] = [node]
        order: list[ast.AST] = []
        while stack:
            current = stack.pop()
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            order.append(current)
            if isinstance(current, ast.Call):
                if isinstance(current.func, ast.Attribute) or isinstance(
                    current.func, ast.Name
                ):
                    call_funcs.add(id(current.func))
            stack.extend(ast.iter_child_nodes(current))
        for current in order:
            if isinstance(current, ast.Call):
                self._record_call(current)
            elif isinstance(current, ast.Attribute):
                self._record_attribute(current, call_funcs)

    def _record_attribute(
        self,
        node: ast.Attribute,
        call_funcs: set[int],
    ) -> None:
        if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            return
        if id(node) in call_funcs:
            return
        is_write = isinstance(node.ctx, (ast.Store, ast.Del))
        self.facts.accesses.append(Access(node.attr, node.lineno, is_write))

    def _record_call(self, call: ast.Call) -> None:
        func = call.func
        chain = attribute_chain(func)
        held = self._snapshot()
        # Thread spawns.
        spawn = self._spawn_target(call, chain)
        if spawn is not None:
            self.facts.spawns.append(ThreadSpawn(spawn, call.lineno))
        # Blocking operations.
        blocker = self._blocking(call, chain)
        if blocker is not None:
            self.facts.blocking.append(blocker)
        # Call-graph edges.
        callee = self._encode_callee(func, chain)
        if callee is not None:
            args = [
                *enumerate(call.args),
                *((kw.arg, kw.value) for kw in call.keywords if kw.arg),
            ]
            arg_chains = tuple(
                (key, chain)
                for key, chain in ((key, attribute_chain(value)) for key, value in args)
                if chain is not None and chain[0] == "self"
            )
            self.facts.calls.append(CallSite(callee, call.lineno, held, arg_chains))

    def _encode_callee(
        self, func: ast.expr, chain: Optional[Chain]
    ) -> Optional[Chain]:
        if isinstance(func, ast.Name):
            return ("@name", func.id)
        if chain is None:
            return None
        if chain[0] == "self":
            if len(chain) == 2:
                return ("self", chain[1])
            return ("self", ".".join(chain[1:]))
        root = chain[0]
        if root in self.local_types and len(chain) == 2:
            return ("@local", self.local_types[root], chain[1])
        return None

    def _spawn_target(
        self, call: ast.Call, chain: Optional[Chain]
    ) -> Optional[str]:
        if self.cls is None or not chain or chain[-1] != "Thread":
            return None
        for kw in call.keywords:
            if kw.arg != "target":
                continue
            target_chain = attribute_chain(kw.value)
            if target_chain is not None and target_chain[0] == "self":
                return ".".join(target_chain[1:])
            if isinstance(kw.value, ast.Name):
                # A sibling nested def becomes a pseudo-method qualname.
                qual = f"{self.facts.qualname}.{kw.value.id}"
                if qual in self.sink:
                    return qual
        return None

    def _blocking(
        self, call: ast.Call, chain: Optional[Chain]
    ) -> Optional[BlockingCall]:
        if not chain:
            return None
        last = chain[-1]
        receiver = chain[:-1]
        held = self._snapshot()
        if last in _SOCKET_BLOCKERS and receiver:
            return BlockingCall(
                f"{'.'.join(chain)}()", "socket I/O", call.lineno, held
            )
        if last == "join" and receiver and not _has_timeout(call):
            return BlockingCall(
                f"{'.'.join(chain)}() without timeout", "join", call.lineno, held
            )
        return None


# -- class- and module-level extraction ---------------------------------------------


def _extract_class(cls: ast.ClassDef, path: str) -> ClassFacts:
    facts = ClassFacts(
        name=cls.name, path=path, line=cls.lineno, bases=base_names(cls)
    )
    init = next(
        (
            stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
        ),
        None,
    )
    init_params: set[str] = set()
    if init is not None:
        params = [
            arg.arg
            for arg in (*init.args.posonlyargs, *init.args.args)
            if arg.arg != "self"
        ]
        params.extend(arg.arg for arg in init.args.kwonlyargs)
        facts.init_params = tuple(params)
        init_params = set(params)
    # Attribute classification from every `self.x = ...` in the class.
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        in_init = method.name == "__init__"
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                ctors = _ctor_candidates(node.value)
                for ctor in ctors:
                    if ctor in LOCK_CTORS:
                        facts.lock_attrs.setdefault(attr, LOCK_CTORS[ctor])
                    else:
                        facts.attr_types.setdefault(attr, ctor)
                if (
                    in_init
                    and isinstance(node.value, ast.Name)
                    and node.value.id in init_params
                ):
                    facts.param_attrs.setdefault(attr, node.value.id)
        # Lock-returning helpers: `def lock(self): return self._lock`.
        if not in_init and len(method.body) >= 1:
            returns = [
                stmt
                for stmt in method.body
                if isinstance(stmt, ast.Return) and stmt.value is not None
            ]
            if len(returns) == 1 and len(method.body) <= 2:
                chain = attribute_chain(returns[0].value)
                if (
                    chain is not None
                    and chain[0] == "self"
                    and len(chain) == 2
                    and is_lock_name(chain[1])
                ):
                    facts.lock_props[method.name] = chain[1]
    # Per-method behavioral facts.
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        m_facts = MethodFacts(
            name=method.name,
            qualname=method.name,
            class_name=cls.name,
            path=path,
            line=method.lineno,
        )
        facts.methods[method.name] = m_facts
        walker = _FunctionWalker(m_facts, facts.methods, {}, facts)
        walker.walk_body(method.body)
    return facts


def _extract_emits(tree: ast.Module) -> list[EmitSite]:
    emits: list[EmitSite] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
        ):
            continue
        event: Optional[str] = None
        if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
            node.args[0].value, str
        ):
            event = node.args[0].value
        literal_kwargs = frozenset(
            kw.arg for kw in node.keywords if kw.arg is not None
        )
        emits.append(EmitSite(event, literal_kwargs, node.lineno))
    return emits


def extract_module(module: CodeModule) -> ModuleFacts:
    """Reduce one parsed module to its concurrency facts."""
    facts = ModuleFacts(path=module.path)
    for stmt in module.tree.body:
        if isinstance(stmt, ast.ClassDef):
            cls_facts = _extract_class(stmt, module.path)
            facts.classes[cls_facts.name] = cls_facts
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            m_facts = MethodFacts(
                name=stmt.name,
                qualname=stmt.name,
                class_name="",
                path=module.path,
                line=stmt.lineno,
            )
            facts.functions[stmt.name] = m_facts
            walker = _FunctionWalker(m_facts, facts.functions, {}, None)
            walker.walk_body(stmt.body)
    facts.emits = _extract_emits(module.tree)
    return facts
