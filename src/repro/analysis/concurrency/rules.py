"""CON001–CON003: the whole-program concurrency rules.

Each checker receives a resolved
:class:`~repro.analysis.concurrency.model.ProgramModel` and yields
:class:`~repro.analysis.diagnostics.Diagnostic` records:

* ``CON001`` — a two-lock cycle in the lock-order graph, or a plain
  ``Lock`` re-acquired through a call chain while already held;
* ``CON002`` — an attribute reached from both a thread entry point
  (``Thread(target=self.<method>)``, a ``Thread`` subclass's ``run``)
  and non-thread code, written on at least one side;
* ``CON003`` — socket I/O or a timeout-less ``join()`` written inside a
  ``with <lock>:`` block.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.concurrency.facts import ClassFacts
from repro.analysis.concurrency.model import ProgramModel
from repro.analysis.diagnostics import Diagnostic, Location


def _diagnostic(rule_id: str, path: str, line: int, message: str) -> Diagnostic:
    return Diagnostic(rule=rule_id, message=message, location=Location(path, line))


# -- CON001: lock-order cycles ------------------------------------------------------


def check_potential_deadlock(model: ProgramModel) -> Iterator[Diagnostic]:
    """CON001: a cycle in the whole-program lock-order graph.

    Two code paths that acquire the same locks in opposite orders
    deadlock as soon as they interleave under load; every cycle in the
    lock-order graph is a standing invitation.
    """
    for cycle, witnesses in model.lock_cycles():
        trail = "; ".join(f"{w.text} [{w.file}:{w.line}]" for w in witnesses)
        yield _diagnostic(
            "CON001",
            witnesses[0].file,
            witnesses[0].line,
            f"potential deadlock: lock-order cycle {' -> '.join(cycle)} ({trail})",
        )


# -- CON002: thread-escape analysis -------------------------------------------------


def _thread_entries(model: ProgramModel) -> dict[str, dict[str, int]]:
    """class name -> {method qualname -> spawn line} of thread entries."""
    entries: dict[str, dict[str, int]] = {}
    for cls_name in sorted(model.classes):
        cls = model.classes[cls_name]
        if cls.is_thread_subclass() and "run" in cls.methods:
            entries.setdefault(cls_name, {})["run"] = cls.methods["run"].line
        for qual in sorted(cls.methods):
            for spawn in cls.methods[qual].spawns:
                if spawn.target in cls.methods:
                    entries.setdefault(cls_name, {}).setdefault(
                        spawn.target, spawn.line
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


def check_unguarded_shared_state(
    model: ProgramModel,
) -> Iterator[Diagnostic]:
    """CON002: an attribute shared between a thread target and other code.

    An attribute written on one side of a thread boundary and touched
    on the other is cross-thread shared state; hand it over through a
    queue or confine it to one thread instead.
    """
    entries = _thread_entries(model)
    for cls_name in sorted(entries):
        cls = model.classes[cls_name]
        thread_side = _thread_closure(model, cls, entries[cls_name])
        # Gather accesses per attr on each side.
        sides: dict[str, tuple[list, list]] = {}
        for qual in sorted(cls.methods):
            if qual == "__init__" or qual.startswith("__init__."):
                continue
            is_thread = qual in thread_side
            for access in cls.methods[qual].accesses:
                bucket = sides.setdefault(access.attr, ([], []))
                bucket[0 if is_thread else 1].append((qual, access))
        for attr in sorted(sides):
            thread_accesses, main_accesses = sides[attr]
            conflict = next(
                (
                    (t_qual, t_access, m_qual, m_access)
                    for t_qual, t_access in thread_accesses
                    for m_qual, m_access in main_accesses
                    if t_access.is_write or m_access.is_write
                ),
                None,
            )
            if conflict is None:
                continue
            t_qual, t_access, m_qual, m_access = conflict
            # Point at a write; prefer the non-thread side so the fix
            # lands where the reader is looking.
            if m_access.is_write:
                site, other = m_access, t_access
                site_qual, other_qual = m_qual, t_qual
                site_desc = "written"
                other_side = "thread-side"
            else:
                site, other = t_access, m_access
                site_qual, other_qual = t_qual, m_qual
                site_desc = "written on the thread side"
                other_side = "non-thread"
            yield _diagnostic(
                "CON002",
                cls.path,
                site.line,
                f"attribute 'self.{attr}' of class {cls.name!r} is "
                f"{site_desc} in {site_qual}() and accessed from "
                f"{other_side} code in {other_qual}() (line "
                f"{other.line}); {t_qual}() runs on a spawned thread",
            )


# -- CON003: blocking under a held lock ---------------------------------------------


def check_blocking_under_lock(model: ProgramModel) -> Iterator[Diagnostic]:
    """CON003: a potentially unbounded blocking call while holding a lock.

    Socket I/O or a timeout-less join under a held lock stalls every
    other thread that needs the lock for as long as the peer takes; the
    critical section's latency becomes unbounded.
    """
    for key in sorted(model.methods):
        method = model.methods[key]
        cls = model.class_of(method.class_name)
        for blocker in method.blocking:
            nodes = sorted(
                {
                    node
                    for node in (model.lock_node(cls, chain) for chain in blocker.held)
                    if node is not None
                }
            )
            if nodes:
                yield _diagnostic(
                    "CON003",
                    method.path,
                    blocker.line,
                    f"{model.display(key)} blocks on {blocker.desc} "
                    f"({blocker.kind}) while holding {', '.join(nodes)}",
                )
