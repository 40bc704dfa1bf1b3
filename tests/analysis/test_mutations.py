"""Every kept lint rule catches a seeded defect in the real source tree.

Each row names a rule, a file under ``src/repro``, a snippet that
occurs exactly once in it, and its replacement.  Each replacement
seeds a defect of the kind the rule exists for that no other tier-1
test catches.  A rule's first row is the audit mutation that decided
it stays (see ``docs/analysis.md``); a second row, where there is one,
plants the same kind of defect in another file or shape.  SCN006 has
one row: other interval slips in the bundled measures are either
caught by the ordering goldens or too small to cross a sampled plan.

Mutations are applied in memory only: the code and concurrency rules
lint the mutated text; for the scenario rule the mutated module is
executed and its classes rebound wherever the tree imported them, so
the bundled scenarios build with them.

A row whose snippet has drifted out of its file fails, naming the row.
"""

import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import code_rules
from repro.analysis.astutils import CodeModule
from repro.analysis.code_rules import CODE_RULES
from repro.analysis.concurrency import CONCURRENCY_RULES, build_model, contracts, rules
from repro.analysis.runner import (
    builtin_scenarios,
    lint_code,
    lint_concurrency,
    lint_scenarios,
    load_modules,
)
from repro.analysis.scenario import check_measure_properties

PACKAGE = Path(repro.__file__).parent

#: Every shipped rule's checker by rule id.
CHECKERS = {
    "COD001": code_rules.check_lock_discipline,
    "COD002": code_rules.check_lazy_orderer_contract,
    "COD003": code_rules.check_production_assert,
    "COD004": code_rules.check_broad_except,
    "COD006": code_rules.check_bare_sleep,
    "COD007": code_rules.check_library_print,
    "CON001": rules.check_potential_deadlock,
    "CON002": rules.check_unguarded_shared_state,
    "CON003": rules.check_blocking_under_lock,
    "CON004": contracts.check_journal_contract,
    "SCN006": check_measure_properties,
}

ROWS = [
    # A lock-free read of state every other method reads under the lock.
    ("COD001", "observability/journal.py",
     "        with self._lock:\n"
     "            return self._seq\n",
     "        return self._seq\n"),
    # A chaos counter bumped outside the lock that guards its other bump.
    ("COD001", "resilience/chaos.py",
     "            if fault.permanent_outage:\n"
     "                with self._lock:\n"
     "                    self.outages_hit += 1\n",
     "            if fault.permanent_outage:\n"
     "                self.outages_hit += 1\n"),
    # Greedy enumerates each whole plan space before its first plan.
    ("COD002", "ordering/greedy.py",
     "        for space in spaces:\n"
     "            frontier.push(_SpaceBest(space, self.utility))\n",
     "        for space in spaces:\n"
     "            list(space.plans())\n"
     "            frontier.push(_SpaceBest(space, self.utility))\n"),
    # Streamer enumerates each space to skip the empty ones.
    ("COD002", "ordering/streamer.py",
     "        for space_id, space in enumerate(spaces):\n"
     "            root = graph.add_plan(\n",
     "        for space_id, space in enumerate(spaces):\n"
     "            if not list(space.plans()):\n"
     "                continue\n"
     "            root = graph.add_plan(\n"),
    # An invariant that python -O stops checking.
    ("COD003", "ordering/bruteforce.py",
     "            if best_key is None:\n"
     "                raise InternalError(\n"
     '                    "non-empty remaining set produced no best plan"\n'
     "                )\n",
     "            assert best_key is not None, (\n"
     '                "non-empty remaining set produced no best plan"\n'
     "            )\n"),
    ("COD003", "experiments/harness.py",
     "                if returned != min(spec.k, domain.space.size):\n"
     "                    raise InternalError(\n"
     '                        f"{algo.name} returned {returned} of {spec.k} plans"\n'
     "                    )\n",
     "                assert returned == min(spec.k, domain.space.size), (\n"
     '                    f"{algo.name} returned {returned} of {spec.k} plans"\n'
     "                )\n"),
    # The producer's failure never reaches the consumer.
    ("COD004", "service/session.py",
     "            except BaseException as exc:  # surfaced on the consumer\n"
     "                end = exc\n",
     "            except BaseException:\n"
     "                pass\n"),
    # Closing a worker connection now hides every error, not just OSError.
    ("COD004", "cluster/router.py",
     "                closeable.close()\n"
     "            except OSError:\n"
     "                pass\n",
     "                closeable.close()\n"
     "            except Exception:\n"
     "                pass\n"),
    # The probe loop sleeps through stop().
    ("COD006", "cluster/supervisor.py",
     "        while not self._stop.wait(PROBE_INTERVAL_S):\n",
     "        while not self._stop.is_set():\n"
     "            time.sleep(PROBE_INTERVAL_S)\n"),
    # A session's retry backoff no longer ends when the session stops.
    ("COD006", "service/session.py",
     "        self.wake.wait(self.deadline.clamp(seconds))\n",
     "        from time import sleep\n"
     "\n"
     "        sleep(self.deadline.clamp(seconds))\n"),
    # A debug line on stdout for every served request.
    ("COD007", "service/server.py",
     "        with self.registry.lock:\n"
     "            self._m_completed.inc()\n",
     '        print(f"{request_id}: {report.status}")\n'
     "        with self.registry.lock:\n"
     "            self._m_completed.inc()\n"),
    ("COD007", "resilience/manager.py",
     "        value = self.epoch.bump()\n",
     "        value = self.epoch.bump()\n"
     '        print(f"health epoch {value}: {reason}")\n'),
    # Registry lock, then measure lock: the reverse of shared_measure.
    ("CON001", "service/server.py",
     "        with self.registry.lock:\n"
     "            self._m_completed.inc()\n",
     "        with self.registry.lock:\n"
     "            self.shared_measure(measure_name)\n"
     "            self._m_completed.inc()\n"),
    # The board's plain Lock taken again by states() inside __repr__.
    ("CON001", "resilience/breaker.py",
     "    def __repr__(self) -> str:\n"
     "        states = self.states()\n",
     "    def __repr__(self) -> str:\n"
     "        with self._lock:\n"
     "            states = self.states()\n"),
    # The producer thread writes the report the consumer owns.
    ("CON002", "service/session.py",
     "                    if item is None:\n"
     "                        end = _EXHAUSTED\n",
     "                    if item is None:\n"
     "                        self.last_report.exhausted = True\n"
     "                        end = _EXHAUSTED\n"),
    # A progress reading of counters the load thread is still bumping.
    ("CON002", "service/loadgen.py",
     "    def run(self) -> None:\n"
     "        # A worker thread must never die with a traceback: every\n",
     "    def in_flight(self) -> int:\n"
     "        return self.sent - self.completed\n"
     "\n"
     "    def run(self) -> None:\n"
     "        # A worker thread must never die with a traceback: every\n"),
    # A pipe read while holding the routing-table lock.
    ("CON003", "cluster/supervisor.py",
     "                try:\n"
     "                    port = conn.recv()\n",
     "                try:\n"
     "                    with self._lock:\n"
     "                        port = conn.recv()\n"),
    # A health probe's whole round trip under the routing-table lock.
    ("CON003", "cluster/supervisor.py",
     "        with connect(HOST, port, timeout=PROBE_TIMEOUT_S) as sock:\n",
     "        with self._lock, connect(\n"
     "            HOST, port, timeout=PROBE_TIMEOUT_S\n"
     "        ) as sock:\n"),
    # A journal event without a field the schema requires.
    ("CON004", "cluster/supervisor.py",
     '                "cluster.worker", shard=handle.shard, '
     'state="restart_failed"\n',
     '                "cluster.worker", state="restart_failed"\n'),
    ("CON004", "cluster/supervisor.py",
     '                "cluster.worker", shard=handle.shard, '
     'state="abandoned"\n',
     '                "cluster.worker", state="abandoned"\n'),
    # Failure-aware bind-join intervals forget the success probability.
    ("SCN006", "utility/cost.py",
     "        if self.failure_aware:\n"
     "            cost = cost / success\n"
     "        return -cost\n"
     "\n"
     "    # -- monotonicity",
     "        return -cost\n"
     "\n"
     "    # -- monotonicity"),
]


@pytest.fixture(scope="module")
def tree():
    return load_modules([str(PACKAGE)])


@pytest.fixture(scope="module")
def clean_findings(tree):
    """Every kept rule's findings on the unmutated tree."""
    return [
        *lint_code(tree),
        *lint_concurrency(tree),
        *lint_scenarios(builtin_scenarios()),
    ]


def mutated(path, snippet, replacement):
    source = (PACKAGE / path).read_text(encoding="utf-8")
    count = source.count(snippet)
    assert count == 1, (
        f"the snippet occurs {count} times in {path}; update its row"
    )
    return source.replace(snippet, replacement)


def rebind_module(path, source, monkeypatch):
    """Run *source* as the module at *path*; rebind its classes everywhere."""
    name = "repro." + path[: -len(".py")].replace("/", ".")
    namespace = {"__name__": name, "__file__": str(PACKAGE / path)}
    exec(compile(source, str(PACKAGE / path), "exec"), namespace)
    originals = {
        value: namespace[attr]
        for attr, value in vars(sys.modules[name]).items()
        if isinstance(value, type) and value.__module__ == name
    }
    for module in list(sys.modules.values()):
        for attr, value in list(vars(module).items()):
            if isinstance(value, type) and value in originals:
                monkeypatch.setattr(module, attr, originals[value])


def test_every_kept_rule_has_a_row():
    assert set(CHECKERS.values()) == {
        *CODE_RULES, *CONCURRENCY_RULES, check_measure_properties
    }
    assert sorted({row[0] for row in ROWS}) == sorted(CHECKERS)


def row_ids():
    """``COD001-1``, ``COD001-2``, …: the rule and the row's number in it."""
    ids = []
    for rule, *_ in ROWS:
        ids.append(f"{rule}-{sum(i.startswith(rule) for i in ids) + 1}")
    return ids


@pytest.mark.parametrize(
    "rule, path, snippet, replacement", ROWS, ids=row_ids()
)
def test_rule_catches_its_seeded_mutation(
    rule, path, snippet, replacement, tree, clean_findings, monkeypatch
):
    assert [d for d in clean_findings if d.rule == rule] == []
    source = mutated(path, snippet, replacement)
    target = str(PACKAGE / path)
    check = CHECKERS[rule]
    if rule.startswith("COD"):
        findings = list(check(CodeModule.from_source(source, target)))
    elif rule.startswith("CON"):
        modules = [
            CodeModule.from_source(source, target) if m.path == target else m
            for m in tree
        ]
        findings = list(check(build_model(modules)))
    else:
        rebind_module(path, source, monkeypatch)
        findings = [d for c in builtin_scenarios() for d in check(c)]
        target = findings[0].location.file if findings else target
    assert findings, f"{rule} missed its seeded mutation in {path}"
    assert all(d.location.file == target for d in findings)
