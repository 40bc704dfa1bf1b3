"""Query reformulation: from user query to plan spaces.

Implements the paper's plan-generation substrate: the bucket algorithm
(Section 2), plan soundness testing by expansion + containment, and
the two alternative reformulation algorithms discussed in Section 7
(inverse rules, MiniCon).
"""

from repro.reformulation.buckets import build_buckets
from repro.reformulation.inverse_rules import answer_with_inverse_rules
from repro.reformulation.minicon import minicon_plan_queries
from repro.reformulation.plans import Bucket, PlanSpace, QueryPlan
from repro.reformulation.soundness import is_sound, plan_query

__all__ = [
    "Bucket",
    "PlanSpace",
    "QueryPlan",
    "answer_with_inverse_rules",
    "build_buckets",
    "is_sound",
    "minicon_plan_queries",
    "plan_query",
]
