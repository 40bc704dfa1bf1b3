"""repro: a reproduction of "Efficiently Ordering Query Plans for Data
Integration" (AnHai Doan & Alon Halevy, ICDE 2002).

The library contains a complete local-as-view data-integration stack —
conjunctive queries, the bucket / MiniCon / inverse-rules
reformulation algorithms, plan soundness, plan execution — and, at its
core, the paper's plan-ordering algorithms: Greedy, iDrips and
Streamer, evaluated against the PI brute-force baseline under the
paper's four utility measures.

Quickstart::

    from repro import (
        movie_domain, Mediator, LinearCost, GreedyOrderer,
    )

    domain = movie_domain()
    mediator = Mediator(domain.catalog, domain.source_facts)
    for batch in mediator.answer(domain.query, LinearCost()):
        print(batch.rank, batch.plan, sorted(batch.new_answers))
"""

from repro.datalog import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
    is_contained,
    parse_atom,
    parse_query,
)
from repro.errors import (
    CatalogError,
    DatalogError,
    ExecutionError,
    NotApplicableError,
    OrderingError,
    ParseError,
    ReformulationError,
    ReproError,
    UtilityError,
)
from repro.execution import AnswerBatch, Mediator, execute_plan
from repro.observability import (
    CachingUtilityMeasure,
    MetricRegistry,
    Tracer,
)
from repro.ordering import (
    DripsPlanner,
    ExhaustiveOrderer,
    ExtensionSimilarityHeuristic,
    GreedyOrderer,
    IDripsOrderer,
    OrderedPlan,
    OrderingStats,
    OutputCountHeuristic,
    PIOrderer,
    PlanOrderer,
    RandomHeuristic,
    StreamerOrderer,
)
from repro.reformulation import (
    Bucket,
    PlanSpace,
    QueryPlan,
    answer_with_inverse_rules,
    build_buckets,
    is_sound,
    minicon_plan_queries,
    plan_query,
)
from repro.service.policy import CancellationToken, RequestPolicy, RetryPolicy
from repro.service.server import QueryRequest, QueryService, ServiceConfig
from repro.service.session import PipelinedSession
from repro.sources import Catalog, OverlapModel, SourceDescription, SourceStats
from repro.utility import (
    BindJoinCost,
    CoverageUtility,
    Interval,
    LinearCost,
    MonetaryCostPerTuple,
    UtilityMeasure,
)
from repro.workloads import (
    Domain,
    SyntheticParams,
    camera_domain,
    generate_domain,
    movie_domain,
)

__version__ = "1.0.0"

__all__ = [
    "AnswerBatch",
    "Atom",
    "BindJoinCost",
    "Bucket",
    "CachingUtilityMeasure",
    "CancellationToken",
    "Catalog",
    "CatalogError",
    "ConjunctiveQuery",
    "Constant",
    "CoverageUtility",
    "DatalogError",
    "Domain",
    "DripsPlanner",
    "ExecutionError",
    "ExhaustiveOrderer",
    "ExtensionSimilarityHeuristic",
    "GreedyOrderer",
    "IDripsOrderer",
    "Interval",
    "LinearCost",
    "Mediator",
    "MetricRegistry",
    "MonetaryCostPerTuple",
    "NotApplicableError",
    "OrderedPlan",
    "OrderingError",
    "OrderingStats",
    "OutputCountHeuristic",
    "OverlapModel",
    "PIOrderer",
    "ParseError",
    "PipelinedSession",
    "PlanOrderer",
    "PlanSpace",
    "QueryPlan",
    "QueryRequest",
    "QueryService",
    "RandomHeuristic",
    "ReformulationError",
    "ReproError",
    "RequestPolicy",
    "RetryPolicy",
    "ServiceConfig",
    "SourceDescription",
    "SourceStats",
    "StreamerOrderer",
    "SyntheticParams",
    "Tracer",
    "UtilityError",
    "UtilityMeasure",
    "Variable",
    "answer_with_inverse_rules",
    "build_buckets",
    "camera_domain",
    "execute_plan",
    "generate_domain",
    "is_contained",
    "is_sound",
    "minicon_plan_queries",
    "movie_domain",
    "parse_atom",
    "parse_query",
    "plan_query",
]
