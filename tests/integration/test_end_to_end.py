"""Integration tests across the whole stack."""

import pytest

from repro.execution.instances import materialize_instances
from repro.execution.mediator import Mediator
from repro.ordering.bruteforce import PIOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.reformulation.buckets import build_buckets
from repro.reformulation.inverse_rules import answer_with_inverse_rules
from repro.reformulation.minicon import minicon_plan_queries
from repro.execution.engine import evaluate_conjunctive_query
from repro.workloads.movies import movie_domain
from repro.workloads.synthetic import SyntheticParams, generate_domain

#: The two orderers the anytime claims are checked under.
ORDERERS = (PIOrderer, StreamerOrderer)
ORDERER_IDS = ("PI", "Streamer")


class TestThreeReformulationBackendsAgree:
    """Bucket+soundness, MiniCon, and inverse rules must compute the
    same certain answers on the movie instance."""

    def test_movie_domain_agreement(self):
        domain = movie_domain()
        mediator = Mediator(domain.catalog, domain.source_facts)

        from repro.utility.cost import LinearCost

        bucket_answers = set().union(
            *(b.answers for b in mediator.answer(domain.query, LinearCost()))
        )
        inverse_answers = answer_with_inverse_rules(
            domain.catalog, domain.query, domain.source_facts
        )
        minicon_answers: set = set()
        for rewriting in minicon_plan_queries(domain.query, domain.catalog):
            minicon_answers |= evaluate_conjunctive_query(
                rewriting, domain.source_facts
            )
        assert bucket_answers == inverse_answers == minicon_answers


class TestOrderedMediationOnSynthetic:
    @pytest.fixture(
        params=[(0, 6), (1, 6), (0, 10)],
        ids=lambda param: f"seed{param[0]}-bucket{param[1]}",
    )
    def setup(self, request):
        seed, bucket_size = request.param
        domain = generate_domain(
            SyntheticParams(query_length=2, bucket_size=bucket_size, seed=seed)
        )
        source_facts, _ = materialize_instances(domain.space, domain.model)
        return domain, Mediator(domain.catalog, source_facts)

    def test_streamed_answers_complete(self, setup):
        domain, mediator = setup
        utility = domain.measure("coverage")
        total = set()
        for batch in mediator.answer(
            domain.query, utility, orderer=StreamerOrderer(utility)
        ):
            total |= batch.answers
        assert total == mediator.certain_answers(domain.query)

    @pytest.mark.parametrize("make", ORDERERS, ids=ORDERER_IDS)
    def test_first_plans_carry_most_answers(self, setup, make):
        """Anytime property: under coverage ordering the first quarter
        of plans yields well over half of the answers, and a tenth of
        the plan space (at least three plans) already half."""
        domain, mediator = setup
        utility = domain.measure("coverage")
        batches = list(
            mediator.answer(domain.query, utility, orderer=make(utility))
        )
        all_count = sum(b.new_count for b in batches)
        quarter = batches[: max(1, len(batches) // 4)]
        early = sum(b.new_count for b in quarter)
        assert early > all_count / 2
        tenth = batches[: max(3, domain.space.size // 10)]
        assert sum(b.new_count for b in tenth) >= all_count / 2

    def test_predicted_coverage_matches_execution(self, setup):
        domain, mediator = setup
        utility = domain.measure("coverage")
        total = domain.model.total_universe_size()
        for batch in mediator.answer(
            domain.query, utility, orderer=PIOrderer(utility), max_plans=10
        ):
            assert batch.new_count == pytest.approx(batch.utility * total)


class TestFullPipelineQueryLength3:
    def test_order_then_execute(self):
        domain = generate_domain(
            SyntheticParams(query_length=3, bucket_size=4, seed=2)
        )
        source_facts, _ = materialize_instances(domain.space, domain.model)
        mediator = Mediator(domain.catalog, source_facts)
        utility = domain.measure("coverage")
        batches = list(
            mediator.answer(
                domain.query,
                utility,
                orderer=IDripsOrderer(utility),
                max_plans=8,
            )
        )
        assert len(batches) == 8
        assert all(b.sound for b in batches)
        utilities = [b.utility for b in batches]
        assert utilities == sorted(utilities, reverse=True)


class TestBucketsFeedOrderers:
    def test_reformulated_space_is_orderable(self):
        domain = generate_domain(
            SyntheticParams(query_length=2, bucket_size=5, seed=8)
        )
        space = build_buckets(domain.query, domain.catalog)
        orderer = StreamerOrderer(domain.measure("coverage"))
        results = orderer.order_list(space, 5)
        assert len(results) == 5
