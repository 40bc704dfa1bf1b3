"""Phase 2 of the concurrency pass: the whole-program model.

Joins every module's :class:`~repro.analysis.concurrency.facts.ModuleFacts`
into one view:

* **lock identity** — a lock chain resolves through attribute types
  (``self.registry = registry or MetricRegistry()``, or inferred from
  a construction site) and lock-returning properties
  (``MetricRegistry.lock`` → ``_lock``) to one ``Class.attr`` node;
* **call graph** — call sites are resolved through ``self``, typed
  attributes, typed locals, and module-level names, and per-method
  *may-acquire* summaries are closed under the call graph (a bounded
  fixpoint);
* **lock-order graph** — an edge ``A → B`` means some method calls,
  while holding A, a method that may acquire B; each edge carries a
  human-readable witness.

Identity is type-level: all instances of a class share that class's
lock nodes.  That is conservative for ordering (two instances can
deadlock against each other just as one can) but means per-instance
confinement is invisible — see ``docs/analysis.md`` for the known
false-negative classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.analysis.concurrency.facts import (
    Chain,
    ClassFacts,
    MethodFacts,
    ModuleFacts,
)

#: A method key: ("ClassName", "qualname") or ("", "function_name").
MethodKey = tuple[str, str]


@dataclass(frozen=True)
class Witness:
    """One human-readable piece of evidence for a graph edge."""

    file: str
    line: int
    text: str


@dataclass(frozen=True)
class LockOrderEdge:
    """``held`` was held while ``acquired`` was taken somewhere."""

    held: str
    acquired: str
    witness: Witness


class ProgramModel:
    """The resolved whole-program concurrency view."""

    def __init__(self, modules: Iterable[ModuleFacts]) -> None:
        self.modules: list[ModuleFacts] = sorted(
            modules, key=lambda m: m.path
        )
        #: Simple class name -> facts; ambiguous names are dropped.
        self.classes: dict[str, ClassFacts] = {}
        self._ambiguous: set[str] = set()
        #: Module-level functions by simple name (ambiguous dropped).
        self.functions: dict[str, MethodFacts] = {}
        #: Every analyzable method, keyed for call-graph traversal.
        self.methods: dict[MethodKey, MethodFacts] = {}
        #: lock node -> lock kind.
        self.kinds: dict[str, str] = {}
        #: method key -> {lock node -> acquisition witness}.
        self.may_acquire: dict[MethodKey, dict[str, Witness]] = {}
        #: (held node, acquired node) -> edge.
        self.edges: dict[tuple[str, str], LockOrderEdge] = {}
        self._build()

    # -- construction ---------------------------------------------------------------

    def _build(self) -> None:
        self._index()
        self._infer_attr_types()
        self._lock_kinds()
        self._close_summaries()
        self._build_edges()

    def _index(self) -> None:
        for module in self.modules:
            for name, cls in module.classes.items():
                if name in self.classes:
                    self._ambiguous.add(name)
                else:
                    self.classes[name] = cls
                for qual, method in cls.methods.items():
                    self.methods[(name, qual)] = method
            for name, func in module.functions.items():
                if name in self.functions:
                    self._ambiguous.add(name)
                else:
                    self.functions[name] = func
                self.methods[("", name)] = func
        for name in self._ambiguous:
            self.classes.pop(name, None)
            self.functions.pop(name, None)

    def class_of(self, name: str) -> Optional[ClassFacts]:
        return self.classes.get(name)

    # -- attribute-type inference ---------------------------------------------------

    def _infer_attr_types(self) -> None:
        """Propagate attribute types through constructor call sites.

        ``QueryService(registry=self.registry)`` teaches
        ``QueryService.registry`` the type the caller's ``registry``
        attribute already has.  One pass in method order.
        """
        for key in sorted(self.methods):
            method = self.methods[key]
            caller_cls = self.class_of(method.class_name)
            for call in method.calls:
                target = self._ctor_class(call.callee)
                if target is None:
                    continue
                for param, chain in self._call_chains(call, target):
                    attr = self._param_attr(target, param)
                    if attr is None or attr in target.attr_types:
                        continue
                    inferred = self._chain_type(caller_cls, chain)
                    if inferred is not None:
                        target.attr_types[attr] = inferred

    def _ctor_class(self, callee: Chain) -> Optional[ClassFacts]:
        if len(callee) == 2 and callee[0] == "@name":
            return self.class_of(callee[1])
        return None

    @staticmethod
    def _param_attr(cls: ClassFacts, param: str) -> Optional[str]:
        for attr, alias in cls.param_attrs.items():
            if alias == param:
                return attr
        return None

    @staticmethod
    def _param_name(cls: ClassFacts, key: object) -> Optional[str]:
        if isinstance(key, str):
            return key
        if isinstance(key, int) and 0 <= key < len(cls.init_params):
            return cls.init_params[key]
        return None

    def _call_chains(self, call, cls: ClassFacts):
        for key, chain in call.arg_chains:
            param = self._param_name(cls, key)
            if param is not None:
                yield param, chain
        return

    def _chain_type(
        self, cls: Optional[ClassFacts], chain: Chain
    ) -> Optional[str]:
        """The class name a ``self.…`` chain evaluates to, if known."""
        if cls is None or not chain or chain[0] != "self":
            return None
        if len(chain) == 1:
            # A bare ``self`` argument: the caller's own class — the
            # parent-pointer pattern cycles are made of.
            return cls.name
        current = cls
        for segment in chain[1:-1]:
            next_name = current.attr_types.get(segment)
            next_cls = self.class_of(next_name) if next_name else None
            if next_cls is None:
                return None
            current = next_cls
        return current.attr_types.get(chain[-1])

    # -- lock identity --------------------------------------------------------------

    def _lock_kinds(self) -> None:
        for cls_name in sorted(self.classes):
            for attr, kind in sorted(self.classes[cls_name].lock_attrs.items()):
                self.kinds[f"{cls_name}.{attr}"] = kind

    def lock_node(
        self, cls: Optional[ClassFacts], chain: Chain
    ) -> Optional[str]:
        """The ``Class.attr`` node of a ``self.…`` lock chain, if it resolves."""
        if cls is None or not chain or chain[0] != "self":
            return None
        return self._resolve_from(cls, chain[1:])

    def _resolve_from(
        self, cls: ClassFacts, rest: Chain
    ) -> Optional[str]:
        if not rest:
            return None
        current = cls
        for segment in rest[:-1]:
            next_name = current.attr_types.get(segment)
            next_cls = self.class_of(next_name) if next_name else None
            if next_cls is None:
                return None
            current = next_cls
        last = rest[-1]
        if last in current.lock_props:
            last = current.lock_props[last]
        return f"{current.name}.{last}"

    # -- call resolution ------------------------------------------------------------

    def resolve_call(
        self, caller: MethodFacts, callee: Chain
    ) -> Optional[MethodKey]:
        cls = self.class_of(caller.class_name)
        if callee[0] == "self" and len(callee) == 2:
            name = callee[1]
            if cls is None:
                return None
            if "." not in name:
                # Plain self.m() — maybe a real method, maybe deeper.
                if name in cls.methods:
                    return (cls.name, name)
                return None
            # self.attr.m() flattened as "attr.m" (or deeper).
            parts = name.split(".")
            target_type = self._chain_owner(cls, parts)
            if target_type is not None and parts[-1] in target_type.methods:
                return (target_type.name, parts[-1])
            return None
        if callee[0] == "@local" and len(callee) == 3:
            target = self.class_of(callee[1])
            if target is not None and callee[2] in target.methods:
                return (target.name, callee[2])
            return None
        if callee[0] == "@name" and len(callee) == 2:
            name = callee[1]
            # Sibling/enclosing nested defs first (closures call each
            # other): from the caller's own scope outward.
            if cls is not None:
                parts = caller.qualname.split(".")
                for cut in range(len(parts), 0, -1):
                    qual = ".".join((*parts[:cut], name))
                    if qual in cls.methods:
                        return (cls.name, qual)
            target = self.class_of(name)
            if target is not None:
                if "__init__" in target.methods:
                    return (target.name, "__init__")
                return None
            if name in self.functions:
                return ("", name)
            return None
        return None

    def _chain_owner(
        self, cls: ClassFacts, parts: list[str]
    ) -> Optional[ClassFacts]:
        """The class owning ``parts[-1]`` when walking attr types."""
        current = cls
        for segment in parts[:-1]:
            next_name = current.attr_types.get(segment)
            next_cls = self.class_of(next_name) if next_name else None
            if next_cls is None:
                return None
            current = next_cls
        return current

    def display(self, key: MethodKey) -> str:
        cls_name, qual = key
        if cls_name:
            return f"{cls_name}.{qual}"
        return qual

    # -- summaries ------------------------------------------------------------------

    def _close_summaries(self) -> None:
        # Seed with each method's direct facts.
        for key in sorted(self.methods):
            method = self.methods[key]
            cls = self.class_of(method.class_name)
            acquired: dict[str, Witness] = {}
            for acq in method.acquisitions:
                node = self.lock_node(cls, acq.chain)
                if node is None or node in acquired:
                    continue
                acquired[node] = Witness(
                    method.path, acq.line,
                    f"{self.display(key)} acquires {node}",
                )
            self.may_acquire[key] = acquired
        # Close the summaries under the call graph.
        for _ in range(len(self.methods) + 1):
            changed = False
            for key in sorted(self.methods):
                method = self.methods[key]
                for call in method.calls:
                    target = self.resolve_call(method, call.callee)
                    if target is None or target == key:
                        continue
                    for node, witness in self.may_acquire.get(
                        target, {}
                    ).items():
                        if node not in self.may_acquire[key]:
                            self.may_acquire[key][node] = witness
                            changed = True
            if not changed:
                break

    # -- the lock-order graph -------------------------------------------------------

    def _build_edges(self) -> None:
        for key in sorted(self.methods):
            method = self.methods[key]
            cls = self.class_of(method.class_name)
            for call in method.calls:
                if not call.held:
                    continue
                target = self.resolve_call(method, call.callee)
                if target is None or target == key:
                    continue
                held_nodes = []
                for held_chain in call.held:
                    held = self.lock_node(cls, held_chain)
                    if held is not None:
                        held_nodes.append(held)
                if not held_nodes:
                    continue
                for node, origin in sorted(
                    self.may_acquire.get(target, {}).items()
                ):
                    for held in held_nodes:
                        if held == node:
                            # Same lock again through a call: a
                            # self-deadlock only for plain Locks.
                            if self.kinds.get(node) != "lock":
                                continue
                        # An edge keeps the first witness, in method order.
                        self.edges.setdefault((held, node), LockOrderEdge(
                            held, node,
                            Witness(
                                method.path, call.line,
                                f"{self.display(key)} holds {held} and "
                                f"calls {self.display(target)} "
                                f"({origin.file}:{origin.line} acquires "
                                f"{node})",
                            ),
                        ))

    # -- cycle detection ------------------------------------------------------------

    def lock_cycles(self) -> list[tuple[list[str], list[Witness]]]:
        """Every two-lock cycle and every self-edge, sorted.

        Returns ``(cycle_nodes, witnesses)`` pairs: ``[a, b, a]`` with
        ``a < b`` and the witness of each edge in order, or ``[a, a]``
        for a plain ``Lock`` re-acquired through a call while held.
        """
        cycles = []
        for (held, acquired), edge in sorted(self.edges.items()):
            if held == acquired:
                cycles.append(([held, held], [edge.witness]))
            elif held < acquired and (acquired, held) in self.edges:
                back = self.edges[(acquired, held)]
                cycles.append(([held, acquired, held], [edge.witness, back.witness]))
        return cycles
