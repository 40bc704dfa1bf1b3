"""One orderer per regime: the name table and the ``auto`` rule.

``repro.ordering`` owns both; the service, the CLI and the mediator's
default ask it.  These tests pin the rule on every measure the repo
can build, check that what ``auto`` picks is exact (beside PI, on the
measures where it used to *be* PI), and that nobody keeps a second
table.
"""

import re
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.errors import NotApplicableError, OrderingError
from repro.execution.mediator import Mediator
from repro.observability.caching import CachingUtilityMeasure
from repro.ordering import (
    AUTO_ORDERER,
    ORDERER_TABLE,
    PIOrderer,
    StreamerOrderer,
    orderer_class,
    resolve_orderer_name,
)
from repro.ordering.anyk import AnyKOrderer
from repro.resilience.health import SourceHealthTracker
from repro.resilience.measure import HealthAwareMeasure
from repro.service import server
from repro.workloads.random_lav import fuzz_ordering_space
from tests.conftest import assert_valid_ordering
from tests.ordering.equivalence import (
    SWEEP_SEEDS,
    assert_streams_equivalent,
    lav_scenario,
    utility_stream,
)

#: What the rule says for the seven names of ``repro.workloads.MEASURES`` on a
#: synthetic domain (whose per-source transfer costs make bind-join
#: non-monotonic; caching breaks diminishing returns).
CLI_MEASURES = {
    "coverage": "streamer",
    "linear": "anyk",
    "bind-join": "streamer",
    "failure": "streamer",
    "failure-caching": "idrips",
    "monetary": "streamer",
    "monetary-caching": "idrips",
}

WRAPPERS = {
    "bare": lambda measure: measure,
    "cached": CachingUtilityMeasure,
    "health-aware": lambda measure: HealthAwareMeasure(
        measure, SourceHealthTracker()
    ),
}


class TestTheRuleOnEveryMeasure:
    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    @pytest.mark.parametrize("measure_name", sorted(CLI_MEASURES))
    def test_auto_names_the_regime_winner_and_it_constructs(
        self, measure_name, wrapper, small_domain
    ):
        measure = small_domain.measure(measure_name)
        if wrapper == "cached" and not measure.cacheable:
            # A context-dependent value never hits again: no cache.
            with pytest.raises(TypeError, match="plans already executed"):
                CachingUtilityMeasure(measure)
            return
        utility = WRAPPERS[wrapper](measure)
        name = resolve_orderer_name(AUTO_ORDERER, utility)
        assert name == CLI_MEASURES[measure_name]
        # No NotApplicableError: the winner applies to its own regime.
        orderer = orderer_class(AUTO_ORDERER, utility)(utility)
        assert type(orderer) is ORDERER_TABLE[name]
        assert len(orderer.order_list(small_domain.space, 3)) == 3

    def test_auto_is_never_the_baseline(self, small_domain):
        picked = {
            resolve_orderer_name(AUTO_ORDERER, small_domain.measure(name))
            for name in CLI_MEASURES
        }
        assert picked == {"anyk", "streamer", "idrips"}

    def test_unknown_name_is_an_ordering_error(self, small_domain):
        with pytest.raises(OrderingError, match="unknown orderer 'quantum'"):
            orderer_class("quantum", small_domain.measure("coverage"))


#: The measures ``auto`` used to send to PI.
FORMERLY_PI = {
    "coverage": lambda fuzz: fuzz.measure("coverage"),
    "failure": lambda fuzz: fuzz.measure("failure"),
    "failure+caching": lambda fuzz: fuzz.measure("failure-caching"),
    "monetary": lambda fuzz: fuzz.measure("monetary"),
    "monetary+caching": lambda fuzz: fuzz.measure("monetary-caching"),
}


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
@pytest.mark.parametrize("measure_name", sorted(FORMERLY_PI))
def test_auto_is_exact_beside_pi(seed, measure_name):
    """What ``auto`` now picks solves Definition 2.1 as PI does.

    Where the measure ignores the executed set the two utility streams
    are equal rank for rank, ties or not.  Where it reads it (coverage,
    caching) a tie may be broken differently and the *later* utilities
    then legitimately differ (see the next test), so the contract
    itself is checked: every plan maximizes the conditional utility.
    """
    fuzz = fuzz_ordering_space(seed, max_plans=400)
    make = FORMERLY_PI[measure_name]
    k = min(8, fuzz.space.size)
    auto = orderer_class(AUTO_ORDERER, make(fuzz))(make(fuzz))
    assert not isinstance(auto, PIOrderer)
    label = f"{auto.name} vs PI, {measure_name}, fuzz_ordering_space({seed})"
    results = auto.order_list(fuzz.space, k)
    assert len(results) == k, label
    assert_valid_ordering(results, fuzz.space, make(fuzz))
    reference = utility_stream(PIOrderer(make(fuzz)), fuzz.space, k)
    stream = [entry.utility for entry in results]
    if make(fuzz).context_free:
        assert_streams_equivalent(stream, reference, label)
    else:
        assert stream[0] == pytest.approx(reference[0]), label


def test_a_tie_under_a_context_reading_measure_may_fork_the_stream():
    """Why the sweep above cannot compare coverage streams outright:
    two plans tie for rank 1 here, Streamer and PI pick one each, and
    from rank 3 on the conditional utilities differ — both orderings
    satisfy Definition 2.1.  A client that left the choice to ``auto``
    may see either."""
    fuzz = fuzz_ordering_space(1, max_plans=400)
    streamer = StreamerOrderer(fuzz.measure("coverage")).order_list(fuzz.space, 4)
    pi = PIOrderer(fuzz.measure("coverage")).order_list(fuzz.space, 4)
    for results in (streamer, pi):
        assert_valid_ordering(results, fuzz.space, fuzz.measure("coverage"))
    assert streamer[0].utility == pi[0].utility
    assert streamer[0].plan.key != pi[0].plan.key
    assert streamer[2].utility != pytest.approx(pi[2].utility)


class TestAnyKIsTheLatticeOrderer:
    def test_refuses_a_measure_that_is_not_fully_monotonic(self, small_domain):
        with pytest.raises(
            NotApplicableError,
            match="AnyK requires a fully monotonic measure.*'auto' picks 'streamer'",
        ):
            AnyKOrderer(small_domain.measure("coverage"))

    def test_every_guard_names_what_auto_picks(self, small_domain):
        for name, measure, picks in (
            ("greedy", small_domain.measure("failure-caching"), "idrips"),
            ("streamer", small_domain.measure("monetary-caching"), "idrips"),
            ("anyk", small_domain.measure("monetary"), "streamer"),
        ):
            with pytest.raises(NotApplicableError, match=f"'auto' picks '{picks}'"):
                ORDERER_TABLE[name](measure)


class TestMediatorDefault:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS[::5])
    def test_coverage_is_ordered_by_streamer_with_pi_s_answers(self, seed):
        scenario = lav_scenario(seed)
        catalog, facts = scenario.catalog, scenario.source_facts
        query = scenario.query

        def answers(orderer=None):
            utility = scenario.measure("coverage")
            if orderer is not None:
                orderer = orderer(utility)
            batches = list(mediator.answer(query, utility, orderer=orderer))
            return frozenset().union(*(batch.new_answers for batch in batches))

        mediator = Mediator(catalog, facts)
        assert type(mediator.make_orderer(scenario.measure("coverage"))) is StreamerOrderer
        assert answers() == answers(PIOrderer)


SRC = Path(repro.__file__).parent


class TestOneTableOneRule:
    def test_the_service_re_exports_the_very_same_objects(self):
        assert server.ORDERER_TABLE is ORDERER_TABLE
        assert server.resolve_orderer_name is resolve_orderer_name
        assert server.AUTO_ORDERER is AUTO_ORDERER
        assert list(ORDERER_TABLE) == [
            "pi", "exhaustive", "idrips", "streamer", "greedy", "anyk"
        ]
        assert cli.ORDERER_CHOICES == (AUTO_ORDERER, *ORDERER_TABLE)

    def test_one_module_maps_names_to_classes_and_one_function_is_auto(self):
        texts = {
            path.relative_to(SRC).as_posix(): path.read_text()
            for path in SRC.rglob("*.py")
        }
        tables = [
            name for name, text in texts.items()
            if re.search(r"""["']pi["']\s*:\s*PIOrderer""", text)
        ]
        rules = [
            name for name, text in texts.items()
            if "def resolve_orderer_name(" in text
        ]
        assert tables == ["ordering/__init__.py"]
        assert rules == ["ordering/regimes.py"]
        # The library default and the CLI ask the table; they name no
        # baseline of their own.
        for name in ("execution/mediator.py", "cli.py"):
            assert "PIOrderer" not in texts[name], name
