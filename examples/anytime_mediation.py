"""Anytime mediation: first answers fast on a synthetic domain.

The paper's motivation: with many sources, executing *all* plans is
infeasible, so the system should execute the best plans first and let
the user stop whenever the answer is good enough.  This example
materializes real instances for a synthetic domain, streams answers
under coverage ordering, and shows the "answers gathered vs plans
executed" curve for a good ordering (Streamer) versus an adversarial
one (the same plans, worst-first) — the quality gap the ordering work
buys.

Run with::

    python examples/anytime_mediation.py
"""

from repro import PIOrderer, StreamerOrderer, generate_domain
from repro.execution.instances import materialize_instances
from repro.execution.mediator import Mediator


def coverage_curve(batches, total: int) -> list[float]:
    """Fraction of all answers gathered after each executed plan."""
    got = 0
    curve = []
    for batch in batches:
        got += batch.new_count
        curve.append(got / total)
    return curve


def main() -> None:
    domain = generate_domain(bucket_size=10, query_length=2, seed=11)
    source_facts, schema_facts = materialize_instances(domain.space, domain.model)
    print(
        f"Synthetic domain: {domain.space.size} plans, universe of "
        f"{domain.model.total_universe_size()} potential answers"
    )

    mediator = Mediator(domain.catalog, source_facts)
    utility = domain.measure("coverage")

    # Ground truth: every answer any sound plan can produce.
    all_answers = mediator.certain_answers(domain.query)
    print(f"{len(all_answers)} answers reachable in total\n")

    # Good ordering: Streamer streams best plans first.
    batches = list(
        mediator.answer(
            domain.query, utility, orderer=StreamerOrderer(utility), max_plans=25
        )
    )
    good = coverage_curve(batches, len(all_answers))

    # Adversarial ordering: the same first 25 plans, worst-first.
    worst_first = list(
        mediator.answer(
            domain.query,
            domain.measure("coverage"),
            orderer=PIOrderer(domain.measure("coverage")),
        )
    )[::-1][:25]
    bad = coverage_curve(worst_first, len(all_answers))

    print("plans executed | answers gathered (best-first) | (worst-first)")
    for i in (0, 1, 2, 4, 9, 14, 19, 24):
        print(f"{i + 1:14d} | {good[i]:29.1%} | {bad[i]:12.1%}")

    print()
    print(
        f"After 5 plans the ordered mediator has {good[4]:.0%} of all "
        f"answers; a bad ordering has {bad[4]:.0%}."
    )
    assert good[4] > bad[4], "ordering should front-load answers"


if __name__ == "__main__":
    main()
