"""Tests for the synthetic domain generator."""

import pytest

from tests.conftest import shared

from repro.errors import ReformulationError
from repro.workloads.synthetic import SyntheticParams, generate_domain


class TestParams:
    def test_invalid_query_length(self):
        with pytest.raises(ReformulationError):
            SyntheticParams(query_length=0)

    def test_invalid_bucket_size(self):
        with pytest.raises(ReformulationError):
            SyntheticParams(bucket_size=0)

    def test_invalid_overlap(self):
        with pytest.raises(ReformulationError):
            SyntheticParams(overlap_rate=1.5)

    def test_resolved_groups_default(self):
        assert SyntheticParams(bucket_size=24).resolved_groups() == 4
        assert SyntheticParams(bucket_size=3).resolved_groups() == 2

    def test_explicit_groups(self):
        params = SyntheticParams(bucket_size=24, groups_per_bucket=8)
        assert params.resolved_groups() == 8

    def test_overrides_and_params_mutually_exclusive(self):
        with pytest.raises(TypeError):
            generate_domain(SyntheticParams(), bucket_size=4)


class TestGeneratedStructure:
    def test_every_extension_is_nonempty_on_narrow_blocks(self):
        # Four bits per group (the shape of the benchmark's any-k
        # clones): a member can lose its whole core to mutation, and
        # then keeps the core instead of an empty extension.
        domain = generate_domain(
            SyntheticParams(bucket_size=47, bits_per_group=4, seed=0)
        )
        for bucket in domain.space.buckets:
            for source in bucket.sources:
                assert domain.model.extension(bucket.index, source.name)

    def test_shape(self):
        domain = generate_domain(bucket_size=8, query_length=3, seed=0)
        assert domain.space.width == 3
        assert all(len(b) == 8 for b in domain.space.buckets)
        assert domain.space.size == 512

    def test_deterministic_per_seed(self):
        a = generate_domain(bucket_size=6, query_length=2, seed=42)
        b = generate_domain(bucket_size=6, query_length=2, seed=42)
        for bucket_a, bucket_b in zip(a.space.buckets, b.space.buckets):
            for s_a, s_b in zip(bucket_a.sources, bucket_b.sources):
                assert s_a.stats == s_b.stats
                assert a.model.extension(bucket_a.index, s_a.name) == (
                    b.model.extension(bucket_b.index, s_b.name)
                )

    def test_different_seeds_differ(self):
        a = generate_domain(bucket_size=6, query_length=2, seed=1)
        b = generate_domain(bucket_size=6, query_length=2, seed=2)
        masks_a = [a.model.extension(0, s.name) for s in a.space.buckets[0]]
        masks_b = [b.model.extension(0, s.name) for s in b.space.buckets[0]]
        assert masks_a != masks_b

    def test_every_source_has_extension_and_stats(self):
        domain = generate_domain(bucket_size=5, query_length=2, seed=3)
        for bucket in domain.space.buckets:
            for source in bucket.sources:
                mask = domain.model.extension(bucket.index, source.name)
                assert mask > 0
                assert source.stats.n_tuples >= 1

    def test_all_plans_sound(self):
        """Synthetic sources are exact views of their bucket relation,
        so every Cartesian-product plan is sound."""
        from repro.reformulation.soundness import is_sound

        domain = generate_domain(bucket_size=3, query_length=2, seed=4)
        assert all(
            is_sound(domain.query, plan) for plan in domain.space.plans()
        )

    def test_bucket_algorithm_recovers_generated_buckets(self):
        from repro.reformulation.buckets import build_buckets

        domain = generate_domain(bucket_size=4, query_length=2, seed=5)
        rebuilt = build_buckets(domain.query, domain.catalog)
        for original, recovered in zip(domain.space.buckets, rebuilt.buckets):
            assert {s.name for s in original.sources} == {
                s.name for s in recovered.sources
            }


class TestOverlapStructure:
    def test_same_group_sources_overlap(self):
        domain = generate_domain(
            SyntheticParams(
                bucket_size=8, query_length=1, groups_per_bucket=2, seed=6
            )
        )
        names = [s.name for s in domain.space.buckets[0].sources]
        # First half = group 0; all pairs inside overlap.
        for i in range(4):
            for j in range(i + 1, 4):
                assert shared(domain.model, 0, names[i], names[j])

    def test_zero_overlap_rate_separates_groups(self):
        domain = generate_domain(
            SyntheticParams(
                bucket_size=8,
                query_length=1,
                groups_per_bucket=2,
                overlap_rate=0.0,
                seed=6,
            )
        )
        names = [s.name for s in domain.space.buckets[0].sources]
        for left in names[:4]:
            for right in names[4:]:
                assert not shared(domain.model, 0, left, right)

    def test_full_overlap_rate_connects_groups(self):
        domain = generate_domain(
            SyntheticParams(
                bucket_size=8,
                query_length=1,
                groups_per_bucket=2,
                overlap_rate=1.0,
                seed=6,
            )
        )
        names = [s.name for s in domain.space.buckets[0].sources]
        assert shared(domain.model, 0, names[0], names[7])

    def test_mutation_keeps_members_near_core(self):
        domain = generate_domain(
            SyntheticParams(
                bucket_size=6,
                query_length=1,
                groups_per_bucket=2,
                seed=8,
            )
        )
        names = [s.name for s in domain.space.buckets[0].sources]
        # Same-group Jaccard similarity should be high.
        first = domain.model.extension(0, names[0])
        second = domain.model.extension(0, names[1])
        assert (first & second).bit_count() / (first | second).bit_count() > 0.6


class TestUtilityFactories:
    def test_factories_build(self):
        domain = generate_domain(bucket_size=4, query_length=2, seed=9)
        assert domain.measure("coverage").name == "coverage"
        assert domain.measure("linear").is_fully_monotonic
        assert domain.measure("failure").failure_aware
        assert domain.measure("failure-caching").caching
        assert domain.measure("monetary-caching").caching

    def test_domain_sizes_positive(self):
        domain = generate_domain(bucket_size=4, query_length=3, seed=9)
        assert len(domain.domain_sizes) == 3
        assert all(n > 0 for n in domain.domain_sizes)
