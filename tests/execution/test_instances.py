"""Tests for instance materialization from an overlap model."""

import pytest

from repro.errors import ExecutionError
from repro.execution.engine import execute_plan
from repro.execution.instances import (
    element_value,
    materialize_instances,
    product_query,
)
from repro.utility.coverage import plan_box
from repro.utility.boxes import box_size
from repro.workloads.synthetic import SyntheticParams, generate_domain


class TestProductQuery:
    def test_shape(self):
        query = product_query(3)
        assert len(query) == 3
        assert query.head.arity == 3
        assert [a.predicate for a in query.body] == ["r1", "r2", "r3"]

    def test_safe(self):
        assert product_query(2).is_safe()


class TestMaterialization:
    def test_source_rows_match_masks(self, tiny_domain):
        source_facts, schema_facts = materialize_instances(
            tiny_domain.space, tiny_domain.model
        )
        for bucket in tiny_domain.space.buckets:
            for source in bucket.sources:
                mask = tiny_domain.model.extension(bucket.index, source.name)
                assert len(source_facts[source.name]) == mask.bit_count()

    def test_a_model_for_another_width_is_refused(self, tiny_domain):
        wider = generate_domain(
            SyntheticParams(query_length=3, bucket_size=3, seed=7)
        )
        with pytest.raises(ExecutionError, match="buckets"):
            materialize_instances(tiny_domain.space, wider.model)

    def test_schema_is_union_of_sources(self, tiny_domain):
        source_facts, schema_facts = materialize_instances(
            tiny_domain.space, tiny_domain.model
        )
        for bucket in tiny_domain.space.buckets:
            union = set()
            for source in bucket.sources:
                union |= source_facts[source.name]
            assert schema_facts[f"r{bucket.index + 1}"] == union

    def test_plan_answers_equal_box(self, tiny_domain):
        """The central correspondence: executing a plan returns exactly
        the tuples of its box."""
        source_facts, _ = materialize_instances(
            tiny_domain.space, tiny_domain.model
        )
        for plan in tiny_domain.space.plans():
            answers = execute_plan(tiny_domain.query, plan, source_facts)
            assert answers is not None
            box = plan_box(tiny_domain.model, plan)
            assert len(answers) == box_size(box)

    def test_element_values_distinct_per_bucket(self):
        assert element_value(0, 3) != element_value(1, 3)
        assert element_value(0, 3) != element_value(0, 4)
