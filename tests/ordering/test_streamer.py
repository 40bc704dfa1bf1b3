"""Tests for Streamer (paper, Figure 5)."""

import pytest

from tests.conftest import assert_valid_ordering

from repro.errors import NotApplicableError
from repro.ordering.abstraction import RandomHeuristic
from repro.ordering.bruteforce import ExhaustiveOrderer, PIOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.workloads.synthetic import SyntheticParams, generate_domain


class TestApplicability:
    def test_rejects_measures_without_diminishing_returns(self, small_domain):
        with pytest.raises(NotApplicableError):
            StreamerOrderer(small_domain.measure("failure-caching"))
        with pytest.raises(NotApplicableError):
            StreamerOrderer(small_domain.measure("monetary-caching"))

    def test_accepts_coverage_and_context_free_costs(self, small_domain):
        StreamerOrderer(small_domain.measure("coverage"))
        StreamerOrderer(small_domain.measure("failure"))
        StreamerOrderer(small_domain.measure("monetary"))


class TestCorrectness:
    def test_valid_coverage_ordering(self, small_domain):
        orderer = StreamerOrderer(small_domain.measure("coverage"))
        results = orderer.order_list(small_domain.space, 20)
        assert len(results) == 20
        assert_valid_ordering(results, small_domain.space, small_domain.measure("coverage"))

    def test_valid_ordering_at_high_overlap(self):
        from repro.workloads.synthetic import SyntheticParams, generate_domain

        domain = generate_domain(
            SyntheticParams(
                query_length=2, bucket_size=6, overlap_rate=0.8, seed=13
            )
        )
        orderer = StreamerOrderer(domain.measure("coverage"))
        results = orderer.order_list(domain.space, 15)
        assert_valid_ordering(results, domain.space, domain.measure("coverage"))

    def test_matches_exhaustive_on_tie_free_measure(self, small_domain):
        k = 20
        a = StreamerOrderer(small_domain.measure("failure")).order_list(
            small_domain.space, k
        )
        b = ExhaustiveOrderer(small_domain.measure("failure")).order_list(
            small_domain.space, k
        )
        assert [r.utility for r in a] == pytest.approx([r.utility for r in b])

    def test_exhausts_space(self, tiny_domain):
        orderer = StreamerOrderer(tiny_domain.measure("coverage"))
        results = orderer.order_list(tiny_domain.space, 50)
        assert len(results) == tiny_domain.space.size
        assert len({r.plan.key for r in results}) == tiny_domain.space.size

    def test_random_heuristic_still_exact(self, small_domain):
        orderer = StreamerOrderer(small_domain.measure("coverage"), RandomHeuristic(4))
        results = orderer.order_list(small_domain.space, 10)
        assert_valid_ordering(results, small_domain.space, small_domain.measure("coverage"))

    def test_coverage_utilities_match_pi_sequence(self, medium_domain):
        """Utility sequences agree with PI (plans may differ on ties)."""
        k = 15
        a = StreamerOrderer(medium_domain.measure("coverage")).order_list(
            medium_domain.space, k
        )
        b = PIOrderer(medium_domain.measure("coverage")).order_list(medium_domain.space, k)
        assert [r.utility for r in a] == pytest.approx([r.utility for r in b])


class TestRecycling:
    def test_links_are_recycled(self, small_domain):
        orderer = StreamerOrderer(small_domain.measure("coverage"))
        orderer.order_list(small_domain.space, 10)
        assert orderer.stats.links_recycled > 0

    def test_context_free_measures_never_invalidate(self, small_domain):
        orderer = StreamerOrderer(small_domain.measure("failure"))
        orderer.order_list(small_domain.space, 10)
        assert orderer.stats.links_invalidated == 0

    def test_reevaluates_fewer_plans_than_idrips(self, medium_domain):
        k = 10
        streamer = StreamerOrderer(medium_domain.measure("coverage"))
        idrips = IDripsOrderer(medium_domain.measure("coverage"))
        streamer.order_list(medium_domain.space, k)
        idrips.order_list(medium_domain.space, k)
        assert streamer.stats.plans_evaluated < idrips.stats.plans_evaluated

    def test_a_link_remembers_every_plan_removed_since_its_creation(self):
        # E(p, q) must grow by each removed plan that can touch p.  A
        # link that forgets one keeps dominating after its witness
        # lost utility, and rank 7 here goes to a plan worth less than
        # one still pending.
        domain = generate_domain(
            SyntheticParams(query_length=2, bucket_size=5, seed=2)
        )
        results = StreamerOrderer(domain.measure("coverage")).order_list(domain.space, 8)
        assert_valid_ordering(results, domain.space, domain.measure("coverage"))

    def test_a_plan_outside_a_links_source_is_not_remembered(self):
        # Work row for `_revalidate_links`' fast path: a removed plan
        # independent of every member of p cannot spoil a witness, so E
        # does not grow.  Growing it anyway makes later witness checks
        # fail: more links are dropped and more plans re-evaluated.
        domain = generate_domain(
            SyntheticParams(query_length=2, bucket_size=6, seed=1, overlap_rate=0.1)
        )
        orderer = StreamerOrderer(domain.measure("coverage"))
        orderer.order_list(domain.space, 20)
        stats = orderer.stats
        assert (stats.plans_evaluated, stats.links_invalidated) == (138, 43)

    def test_first_iteration_far_below_pi(self, medium_domain):
        streamer = StreamerOrderer(medium_domain.measure("coverage"))
        pi = PIOrderer(medium_domain.measure("coverage"))
        next(iter(streamer.order(medium_domain.space, 1)))
        next(iter(pi.order(medium_domain.space, 1)))
        assert (
            streamer.stats.first_plan_evaluations
            < pi.stats.first_plan_evaluations / 2
        )


class TestSoundnessInterleaving:
    def test_unsound_plans_not_recorded(self, small_domain):
        utility = small_domain.measure("coverage")
        orderer = StreamerOrderer(utility)
        flags = iter([True, False] * 50)
        results = orderer.order_list(
            small_domain.space, 10, on_emit=lambda plan: next(flags)
        )
        replay = small_domain.measure("coverage")
        ctx = replay.new_context()
        flags = iter([True, False] * 50)
        for entry in results:
            assert replay.evaluate(entry.plan, ctx) == pytest.approx(entry.utility)
            if next(flags):
                ctx.record(entry.plan)

    def test_all_rejected_plans_keep_static_order(self, small_domain):
        """If nothing executes, the ordering equals the k-best by
        unconditional utility."""
        orderer = StreamerOrderer(small_domain.measure("coverage"))
        results = orderer.order_list(
            small_domain.space, 12, on_emit=lambda plan: False
        )
        utility = small_domain.measure("coverage")
        ctx = utility.new_context()
        static = sorted(
            (utility.evaluate(p, ctx) for p in small_domain.space.plans()),
            reverse=True,
        )
        assert [r.utility for r in results] == pytest.approx(static[:12])
