"""Tests for the Section 3 digital-camera domain."""

from tests.conftest import shared

from repro.ordering.streamer import StreamerOrderer
from repro.utility.coverage import CoverageUtility
from repro.workloads.cameras import camera_domain


def group(source_name):
    """A camera source is named after its group: ``chain3``."""
    return source_name.rstrip("0123456789")


class TestStructure:
    def test_two_buckets(self):
        domain = camera_domain()
        assert domain.space.width == 2

    def test_reseller_groups_present(self):
        domain = camera_domain()
        groups = {group(source.name) for source in domain.catalog}
        assert {"discount", "specialist", "chain", "retail", "free", "paid"} <= groups

    def test_deterministic_per_seed(self):
        a = camera_domain(seed=1)
        b = camera_domain(seed=1)
        names = [s.name for s in a.space.buckets[0].sources]
        for name in names:
            assert a.model.extension(0, name) == b.model.extension(0, name)

    def test_same_group_sources_overlap(self):
        domain = camera_domain()
        chains = [s.name for s in domain.catalog if group(s.name) == "chain"]
        assert shared(domain.model, 0, chains[0], chains[1])

    def test_groups_occupy_their_own_bands(self):
        domain = camera_domain()
        lowest = {}
        for source in domain.space.buckets[0].sources:
            mask = domain.model.extension(0, source.name)
            low = (mask & -mask).bit_length() - 1  # its lowest element
            name = group(source.name)
            lowest[name] = min(low, lowest.get(name, low))
        assert len(set(lowest.values())) == len(lowest)

    def test_every_source_in_model(self):
        domain = camera_domain()
        for bucket in domain.space.buckets:
            for source in bucket.sources:
                assert domain.model.extension(bucket.index, source.name)


class TestOrderingOnCameras:
    def test_streamer_orders_coverage(self):
        domain = camera_domain(seed=3)
        orderer = StreamerOrderer(CoverageUtility(domain.model))
        results = orderer.order_list(domain.space, 5)
        assert len(results) == 5
        utilities = [r.utility for r in results]
        assert utilities == sorted(utilities, reverse=True)

    def test_abstraction_beats_bruteforce_on_evaluations(self):
        from repro.ordering.bruteforce import PIOrderer

        domain = camera_domain(seed=3)
        streamer = StreamerOrderer(CoverageUtility(domain.model))
        pi = PIOrderer(CoverageUtility(domain.model))
        streamer.order_list(domain.space, 1)
        pi.order_list(domain.space, 1)
        assert streamer.stats.plans_evaluated < pi.stats.plans_evaluated
