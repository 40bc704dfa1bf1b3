"""The one best-first frontier under Greedy, Drips/iDrips and AnyK.

Unit tests of :mod:`repro.ordering.frontier` (tie-break, re-score,
NaN), the shared emission loop's hand-off order, a structural check
that the kernel really is the only frontier heap, and a golden table
pinning the evaluation counts the refactor promised not to move.
"""

import itertools
import math
import re
from pathlib import Path

import pytest

import repro.ordering
from repro.errors import OrderingError, UtilityError
from repro.ordering.anyk import AnyKOrderer
from repro.ordering.drips import DripsPlanner
from repro.ordering.frontier import Frontier, best_first
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.utility.base import ExecutionContext
from repro.utility.cost import LinearCost
from repro.workloads.synthetic import SyntheticParams, generate_domain


class Candidate:
    def __init__(self, key, bound, is_concrete=True, pieces=()):
        self.key = key
        self.bound = bound
        self.is_concrete = is_concrete
        self.pieces = pieces

    def __repr__(self):
        return f"<{'plan' if self.is_concrete else 'region'} {self.key}>"


def drain(frontier):
    while frontier:
        yield frontier.pop()[0]


class TestTieBreak:
    CANDIDATES = [
        Candidate(("b",), 1.0, is_concrete=False),
        Candidate(("a",), 1.0, is_concrete=False),
        Candidate(("d",), 1.0),
        Candidate(("c",), 1.0),
        Candidate(("z",), 2.0, is_concrete=False),
        Candidate(("e",), 0.5),
    ]
    #: bound desc, then concrete before region, then key asc.
    EXPECTED = [("z",), ("c",), ("d",), ("a",), ("b",), ("e",)]

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(range(6)))[::37]
    )
    def test_insertion_order_never_decides(self, order):
        frontier = Frontier(lambda c: c.bound)
        for index in order:
            frontier.push(self.CANDIDATES[index])
        assert [c.key for c in drain(frontier)] == self.EXPECTED

    def test_pop_reports_bound_and_kind(self):
        frontier = Frontier(lambda c: c.bound)
        frontier.push(Candidate(("r",), 3.0, is_concrete=False))
        candidate, bound, is_region = frontier.pop()
        assert (candidate.key, bound, is_region) == (("r",), 3.0, True)
        assert len(frontier) == 0 and frontier.peak == 1

    def test_infinite_bounds_are_ordered_not_rejected(self):
        frontier = Frontier(lambda c: c.bound)
        for key, bound in (("a", -math.inf), ("b", math.inf), ("c", 0.0)):
            frontier.push(Candidate((key,), bound))
        assert [c.key for c in drain(frontier)] == [("b",), ("c",), ("a",)]

    def test_nan_bound_is_refused(self):
        frontier = Frontier(lambda c: c.bound)
        with pytest.raises(OrderingError, match="NaN"):
            frontier.push(Candidate(("a",), math.nan))
        assert len(frontier) == 0


class TestRescore:
    def test_keeps_the_candidates_and_reorders_them(self):
        scale = [1.0]
        frontier = Frontier(lambda c: c.bound * scale[0])
        candidates = [Candidate((name,), bound) for name, bound in
                      (("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 3.0))]
        for candidate in candidates:
            frontier.push(candidate)
        scale[0] = -1.0
        frontier.rescore()
        assert len(frontier) == 4
        popped = list(drain(frontier))
        assert sorted(popped, key=id) == sorted(candidates, key=id)
        assert [c.key for c in popped] == [("a",), ("b",), ("c",), ("d",)]

    def test_nan_after_a_context_change_is_refused(self):
        scale = [1.0]
        frontier = Frontier(lambda c: c.bound * scale[0])
        frontier.push(Candidate(("a",), 1.0))
        scale[0] = math.nan
        with pytest.raises(OrderingError):
            frontier.rescore()


class TestBestFirst:
    def test_regions_are_replaced_by_their_expansion(self):
        leaves = [Candidate(("p",), 5.0), Candidate(("q",), 2.0)]
        inner = Candidate(("pq",), 5.0, is_concrete=False, pieces=leaves)
        other = Candidate(("r",), 3.0)
        root = Candidate(("pqr",), 6.0, is_concrete=False,
                         pieces=[inner, other])
        frontier = Frontier(lambda c: c.bound)
        frontier.push(root)
        expanded = []

        def expand(region):
            expanded.append(region.key)
            return region.pieces

        stream = best_first(frontier, expand)
        assert next(stream)[0].key == ("p",)
        # Lazy: producing the best plan expanded only what bounded it.
        assert expanded == [("pqr",), ("pq",)]
        assert [(c.key, u) for c, u in stream] == [(("r",), 3.0), (("q",), 2.0)]


# -- the emission loop's hand-off ---------------------------------------------


class LoggingContext(ExecutionContext):
    def __init__(self, log):
        super().__init__()
        self.log = log

    def record(self, plan):
        super().record(plan)
        self.log.append(("record", plan.key))


class ContextSensitiveCost(LinearCost):
    """Fully monotonic (so Greedy and AnyK apply) but it
    reads the context: every recorded plan shifts all utilities by one,
    which keeps the order and makes each evaluation's context visible."""

    context_free = False

    def __init__(self, log):
        super().__init__()
        self.log = log

    def new_context(self):
        return LoggingContext(self.log)

    def evaluate(self, plan, context):
        self.log.append(("eval", plan.key, len(context)))
        return super().evaluate(plan, context) - len(context)


@pytest.mark.parametrize("cls", [GreedyOrderer, AnyKOrderer])
def test_handoff_is_report_record_rescore_then_uncover(cls, tiny_domain):
    log = []

    def on_emit(plan):
        log.append(("report", plan.key))
        return True

    stream = cls(ContextSensitiveCost(log)).order(tiny_domain.space, 3, on_emit)
    emitted = [next(stream)]
    assert all(event[0] == "eval" and event[2] == 0 for event in log)
    held = {event[1] for event in log}
    for executed in (1, 2):
        del log[:]
        last = emitted[-1].plan.key
        emitted.append(next(stream))
        assert log[:2] == [("report", last), ("record", last)]
        evaluated = log[2:]
        assert all(
            event[0] == "eval" and event[2] == executed for event in evaluated
        )
        keys = [event[1] for event in evaluated]
        held.discard(last)
        # First the re-score of what the frontier still held ...
        assert set(keys[: len(held)]) == held
        # ... then what the emission uncovered, never seen before.
        assert not set(keys[len(held) :]) & held
        held.update(keys)
    assert len(held) > 1  # the second hand-off had something to re-score
    assert emitted[2].utility == pytest.approx(
        LinearCost().evaluate(emitted[2].plan, ExecutionContext()) - 2
    )


def test_rejected_emission_records_and_rescores_nothing(tiny_domain):
    log = []
    stream = GreedyOrderer(ContextSensitiveCost(log)).order(
        tiny_domain.space, 2, lambda plan: False
    )
    next(stream)
    del log[:]
    next(stream)
    assert all(event[0] == "eval" and event[2] == 0 for event in log)
    assert len(log) <= tiny_domain.space.width  # the uncovered spaces only


# -- NaN through every frontier orderer -----------------------------------------


class NanForSomePlans(LinearCost):
    def evaluate(self, plan, context):
        if plan.sources[0].name.endswith("1"):
            return math.nan
        return super().evaluate(plan, context)


@pytest.mark.parametrize(
    "cls, measure",
    [
        (GreedyOrderer, NanForSomePlans),
        (AnyKOrderer, NanForSomePlans),
        (IDripsOrderer, NanForSomePlans),
    ],
    ids=["greedy", "anyk", "idrips"],
)
def test_nan_utility_raises_instead_of_misordering(cls, measure):
    """At the parent commit Greedy and AnyK emitted -188.5 before
    -184.8 here; a NaN must stop the ordering, not corrupt it."""
    domain = generate_domain(
        SyntheticParams(query_length=2, bucket_size=4, seed=0)
    )
    with pytest.raises((OrderingError, UtilityError)):
        cls(measure()).order_list(domain.space, 16)


def test_nan_utility_raises_in_drips():
    domain = generate_domain(
        SyntheticParams(query_length=2, bucket_size=4, seed=0)
    )

    class AllNan(LinearCost):
        def evaluate(self, plan, context):
            return math.nan

    with pytest.raises((OrderingError, UtilityError)):
        DripsPlanner(AllNan()).best_plan(domain.space)


# -- one mechanism ----------------------------------------------------------------

ORDERING = Path(repro.ordering.__file__).parent


def sources():
    return {path.name: path.read_text() for path in ORDERING.glob("*.py")}


class TestOneKernel:
    def test_only_the_kernel_and_streamer_own_a_heap(self):
        users = {
            name for name, text in sources().items()
            if re.search(r"^\s*(import|from) heapq", text, re.MULTILINE)
        }
        assert users == {"frontier.py", "streamer.py"}

    def test_one_order_method(self):
        owners = [
            name for name, text in sources().items()
            for _ in re.finditer(r"def order\(", text)
        ]
        assert owners == ["base.py"]

    def test_anyk_has_one_enumeration_body(self):
        text = sources()["anyk.py"]
        assert len(re.findall(r"\bFrontier\(", text)) == 1
        assert len(re.findall(r"_emit_best_first\(", text)) == 1
        assert len(re.findall(r"def order_spaces\(", text)) == 1
        assert "_order_lattice" not in text and "_order_intervals" not in text

    def test_every_frontier_orderer_is_on_the_kernel(self):
        texts = sources()
        for name in ("greedy.py", "anyk.py", "drips.py"):
            assert "repro.ordering.frontier import" in texts[name], name
        # iDrips searches through drips_search, not a loop of its own.
        assert "drips_search(" in texts["idrips.py"]


# -- evaluation counts are part of the contract -----------------------------------


def domain(bucket_size):
    return generate_domain(
        SyntheticParams(query_length=3, bucket_size=bucket_size, seed=0)
    )


#: (orderer, measure, bucket size, k) ->
#: (evaluations, evaluations before the first plan, refinements)
GOLDEN_COUNTS = [
    (AnyKOrderer, "linear", 47, 500, (690, 1, 0)),
    (GreedyOrderer, "linear", 47, 500, (605, 1, 0)),
    (IDripsOrderer, "linear", 16, 20, (399, 25, 116)),
    (IDripsOrderer, "coverage", 16, 20, (11670, 31, 5734)),
]


@pytest.mark.parametrize(
    "cls, measure, bucket_size, k, expected",
    GOLDEN_COUNTS,
    ids=[f"{c[0].name}-{c[1]}-{c[2]}" for c in GOLDEN_COUNTS],
)
def test_golden_evaluation_counts(cls, measure, bucket_size, k, expected):
    space_domain = domain(bucket_size)
    orderer = cls(space_domain.measure(measure))
    assert len(orderer.order_list(space_domain.space, k)) == k
    stats = orderer.stats
    assert (
        stats.plans_evaluated,
        stats.first_plan_evaluations,
        stats.refinements,
    ) == expected


def test_greedy_and_anyk_emit_the_same_stream():
    space_domain = domain(47)
    streams = [
        [(entry.plan.key, entry.utility)
         for entry in cls(space_domain.measure("linear")).order_list(
             space_domain.space, 500)]
        for cls in (GreedyOrderer, AnyKOrderer)
    ]
    assert streams[0] == streams[1]
