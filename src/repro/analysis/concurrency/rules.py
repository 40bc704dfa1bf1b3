"""CON001–CON003: the whole-program concurrency rules.

Each checker receives a resolved
:class:`~repro.analysis.concurrency.model.ProgramModel` and yields
:class:`~repro.analysis.diagnostics.Diagnostic` records:

* ``CON001 potential-deadlock`` — a cycle in the lock-order graph,
  including non-reentrant self-cycles (a plain ``Lock`` re-acquired
  through a call chain while already held);
* ``CON002 unguarded-shared-state`` — an attribute reached from both a
  thread entry point (``Thread(target=...)``, executor submit, Thread
  subclass ``run``) and non-thread code, written on at least one side,
  with no common guarding lock;
* ``CON003 blocking-under-lock`` — socket I/O, subprocess spawns,
  timeout-less join/wait operations while holding a mutex
  (directly or through a resolved call chain).  Semaphores are exempt:
  holding an admission slot across work is their purpose.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.concurrency.facts import Access, ClassFacts
from repro.analysis.concurrency.model import MUTEX_KINDS, ProgramModel
from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.analysis.registry import FAMILY_CONCURRENCY, rule


def _diagnostic(
    rule_id: str,
    severity: Severity,
    path: str,
    line: int,
    message: str,
    fix_hint: str = "",
    **data: object,
) -> Diagnostic:
    return Diagnostic(
        rule=rule_id,
        severity=severity,
        message=message,
        location=Location(path, line),
        fix_hint=fix_hint,
        data=data,
    )


# -- CON001: lock-order cycles ------------------------------------------------------


@rule(
    "CON001",
    "potential-deadlock",
    FAMILY_CONCURRENCY,
    Severity.ERROR,
    "cycle in the whole-program lock-order graph",
    "Two code paths that acquire the same locks in opposite orders "
    "deadlock as soon as they interleave under load; every cycle in "
    "the lock-order graph is a standing invitation.",
)
def check_potential_deadlock(model: ProgramModel) -> Iterator[Diagnostic]:
    for cycle, witnesses in model.lock_cycles():
        first = witnesses[0]
        trail = "; ".join(
            f"{w.text} [{w.file}:{w.line}]" for w in witnesses
        )
        if len(cycle) == 2 and cycle[0] == cycle[1]:
            message = (
                f"non-reentrant lock {cycle[0]} may be re-acquired while "
                f"already held: {trail}"
            )
            hint = (
                "break the re-entry (release before the call, or make "
                "the inner path lock-free) rather than switching to "
                "RLock, which only hides the ordering problem"
            )
        else:
            message = (
                "potential deadlock: lock-order cycle "
                + " -> ".join(cycle)
                + f" ({trail})"
            )
            hint = (
                "impose one global acquisition order for these locks "
                "and release before calling into the other component"
            )
        yield _diagnostic(
            "CON001",
            Severity.ERROR,
            first.file,
            first.line,
            message,
            fix_hint=hint,
            cycle=list(cycle),
            witnesses=[f"{w.file}:{w.line}: {w.text}" for w in witnesses],
        )


# -- CON002: thread-escape analysis -------------------------------------------------


def _thread_entries(model: ProgramModel) -> dict[str, dict[str, int]]:
    """class name -> {method qualname -> spawn line} of thread entries."""
    entries: dict[str, dict[str, int]] = {}
    for cls_name in sorted(model.classes):
        cls = model.classes[cls_name]
        if cls.is_thread_subclass() and "run" in cls.methods:
            entries.setdefault(cls_name, {})["run"] = cls.methods[
                "run"
            ].line
        for qual in sorted(cls.methods):
            method = cls.methods[qual]
            for spawn in method.spawns:
                kind, name = spawn.target
                if kind != "self":
                    continue
                if name in cls.methods:
                    entries.setdefault(cls_name, {}).setdefault(
                        name, spawn.line
                    )
                    continue
                if "." in name:
                    # Spawn through a typed attribute: the target
                    # method belongs to another class.
                    seg0, rest = name.split(".", 1)
                    target_type = cls.attr_types.get(seg0)
                    target = (
                        model.class_of(target_type) if target_type else None
                    )
                    if target is not None and rest in target.methods:
                        entries.setdefault(target.name, {}).setdefault(
                            rest, spawn.line
                        )
    return entries


def _thread_closure(
    model: ProgramModel, cls: ClassFacts, seeds: dict[str, int]
) -> dict[str, int]:
    """Seeds plus every same-class method they transitively call."""
    closure = dict(seeds)
    frontier = sorted(seeds)
    while frontier:
        qual = frontier.pop()
        method = cls.methods.get(qual)
        if method is None:
            continue
        for call in method.calls:
            resolved = model.resolve_call(method, call.callee)
            if (
                resolved is not None
                and resolved[0] == cls.name
                and resolved[1] not in closure
            ):
                closure[resolved[1]] = closure[qual]
                frontier.append(resolved[1])
    return closure


def _locked_nodes(
    model: ProgramModel, cls: ClassFacts, access: Access
) -> frozenset[str]:
    nodes = set()
    for chain in access.held:
        node = model.lock_node(cls, chain)
        if node is not None:
            nodes.add(node)
    return frozenset(nodes)


@rule(
    "CON002",
    "unguarded-shared-state",
    FAMILY_CONCURRENCY,
    Severity.ERROR,
    "attribute shared between a thread target and other code "
    "without a common lock",
    "An attribute written from a Thread/executor target and touched "
    "from non-thread code is cross-thread shared state; without one "
    "lock guarding both sides the interleaving is undefined.",
)
def check_unguarded_shared_state(
    model: ProgramModel,
) -> Iterator[Diagnostic]:
    entries = _thread_entries(model)
    for cls_name in sorted(entries):
        cls = model.classes[cls_name]
        thread_side = _thread_closure(model, cls, entries[cls_name])
        reported: set[str] = set()
        # Gather accesses per attr on each side.
        sides: dict[str, tuple[list, list]] = {}
        for qual in sorted(cls.methods):
            if qual == "__init__" or qual.startswith("__init__."):
                continue
            method = cls.methods[qual]
            is_thread = qual in thread_side
            for access in method.accesses:
                attr = access.attr
                if (
                    attr in cls.threadsafe_attrs
                    or attr in cls.lock_attrs
                ):
                    continue
                bucket = sides.setdefault(attr, ([], []))
                bucket[0 if is_thread else 1].append((qual, access))
        for attr in sorted(sides):
            if attr in reported:
                continue
            thread_accesses, main_accesses = sides[attr]
            if not thread_accesses or not main_accesses:
                continue
            conflict = None
            for t_qual, t_access in thread_accesses:
                for m_qual, m_access in main_accesses:
                    if not (t_access.is_write or m_access.is_write):
                        continue
                    t_locks = _locked_nodes(model, cls, t_access)
                    m_locks = _locked_nodes(model, cls, m_access)
                    if t_locks & m_locks:
                        continue
                    conflict = (t_qual, t_access, m_qual, m_access)
                    break
                if conflict:
                    break
            if conflict is None:
                continue
            t_qual, t_access, m_qual, m_access = conflict
            reported.add(attr)
            # Point at a write; prefer the non-thread side so the fix
            # lands where the reader is looking.
            if m_access.is_write:
                site, other = m_access, t_access
                site_qual, other_qual = m_qual, t_qual
                site_desc = "written"
            else:
                site, other = t_access, m_access
                site_qual, other_qual = t_qual, m_qual
                site_desc = "written on the thread side"
            other_side = (
                "thread-side" if site is m_access else "non-thread"
            )
            yield _diagnostic(
                "CON002",
                Severity.ERROR,
                cls.path,
                site.line,
                f"attribute 'self.{attr}' of class {cls.name!r} is "
                f"{site_desc} in {site_qual}() and accessed from "
                f"{other_side} code in {other_qual}() (line "
                f"{other.line}) without a common lock; {t_qual}() runs "
                f"on a spawned thread",
                fix_hint="guard both sides with the same lock, hand the "
                "value over through a Queue/Event, or confine it to one "
                "thread",
                attribute=attr,
                class_name=cls.name,
                thread_method=t_qual,
                other_method=m_qual,
            )


# -- CON003: blocking under a held lock ---------------------------------------------


def _mutex_held(
    model: ProgramModel,
    cls: Optional[ClassFacts],
    held: tuple,
) -> list[str]:
    nodes = []
    for chain in held:
        node = model.lock_node(cls, chain)
        if node is not None and model.node_kind(node) in MUTEX_KINDS:
            nodes.append(node)
    return sorted(set(nodes))


@rule(
    "CON003",
    "blocking-under-lock",
    FAMILY_CONCURRENCY,
    Severity.WARNING,
    "potentially unbounded blocking call while holding a lock",
    "Socket I/O, subprocess spawns, or timeout-less join/wait "
    "calls under a held mutex stall every other thread that needs the "
    "lock for as long as the peer takes; the critical section's "
    "latency becomes unbounded.",
)
def check_blocking_under_lock(model: ProgramModel) -> Iterator[Diagnostic]:
    for key in sorted(model.methods):
        method = model.methods[key]
        cls = model.class_of(method.class_name)
        for blocker in method.blocking:
            nodes = _mutex_held(model, cls, blocker.held)
            if blocker.receiver is not None:
                receiver_node = model.lock_node(cls, blocker.receiver)
                nodes = [n for n in nodes if n != receiver_node]
            if not nodes:
                continue
            yield _diagnostic(
                "CON003",
                Severity.WARNING,
                method.path,
                blocker.line,
                f"{model.display(key)} blocks on {blocker.desc} "
                f"({blocker.kind}) while holding "
                f"{', '.join(nodes)}",
                fix_hint="move the blocking operation outside the "
                "critical section (snapshot under the lock, do I/O "
                "after), or bound it with a timeout",
                kind=blocker.kind,
                locks=nodes,
            )
        seen_calls: set[tuple[int, str]] = set()
        for call in method.calls:
            if not call.held:
                continue
            nodes = _mutex_held(model, cls, call.held)
            if not nodes:
                continue
            target = model.resolve_call(method, call.callee)
            if target is None or target == key:
                continue
            for desc, origin in sorted(
                model.may_block.get(target, {}).items()
            ):
                dedup = (call.line, desc)
                if dedup in seen_calls:
                    continue
                seen_calls.add(dedup)
                yield _diagnostic(
                    "CON003",
                    Severity.WARNING,
                    method.path,
                    call.line,
                    f"{model.display(key)} holds "
                    f"{', '.join(nodes)} and calls "
                    f"{model.display(target)}, which blocks on {desc} "
                    f"({origin.file}:{origin.line})",
                    fix_hint="release the lock before the call, or "
                    "push the blocking work to a snapshot-then-act "
                    "pattern",
                    locks=nodes,
                    callee=model.display(target),
                )
