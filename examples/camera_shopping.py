"""Camera shopping: similarity-based abstraction on the Section 3 domain.

The paper motivates abstraction with the digital-camera market: dozens
of reseller and review sources fall into a handful of *groups* of
similar sources (discounters, specialist stores, national chains, ...).
This example builds that domain, then orders plans under two
non-monotonic utility measures:

* plan coverage — "show me as many distinct camera/review pairs as
  early as possible";
* average monetary cost per tuple — "pay as little as possible per
  answer".

It reports how few plans Streamer/iDrips evaluate compared to the PI
brute force, i.e. how many resellers the system never needed to look
at individually.

Run with::

    python examples/camera_shopping.py
"""

from repro import (
    CoverageUtility,
    IDripsOrderer,
    MonetaryCostPerTuple,
    PIOrderer,
    StreamerOrderer,
    camera_domain,
)


def group(source) -> str:
    """A camera source is named after its group: ``chain3``."""
    return source.name.rstrip("0123456789")


def main() -> None:
    domain = camera_domain(seed=7)
    reseller_groups = sorted({group(s) for s in domain.space.buckets[0].sources})
    print(f"Camera domain: {len(domain.catalog)} sources, groups: {reseller_groups}")
    print(f"Plan space: {domain.space.size} plans "
          f"({len(domain.space.buckets[0])} resellers x "
          f"{len(domain.space.buckets[1])} review sites)")
    print()

    k = 8

    print(f"=== Plan coverage: the {k} best plans ===")
    coverage = CoverageUtility(domain.model)
    streamer = StreamerOrderer(coverage)
    for entry in streamer.order(domain.space, k):
        reseller, reviews = entry.plan.sources
        print(
            f"  #{entry.rank}: {reseller.name:12s} + {reviews.name:8s} "
            f"covers {entry.utility:6.2%} new answer tuples "
            f"(groups: {group(reseller)}/{group(reviews)})"
        )
    pi = PIOrderer(CoverageUtility(domain.model))
    pi.order_list(domain.space, k)
    print(
        f"  Streamer evaluated {streamer.stats.plans_evaluated} plans; "
        f"brute force evaluated {pi.stats.plans_evaluated}."
    )
    print()

    print(f"=== Monetary cost per tuple: the {k} cheapest plans ===")
    monetary = MonetaryCostPerTuple(domain_sizes=200.0)
    idrips = IDripsOrderer(monetary)
    for entry in idrips.order(domain.space, k):
        reseller, reviews = entry.plan.sources
        print(
            f"  #{entry.rank}: {reseller.name:12s} + {reviews.name:8s} "
            f"costs {-entry.utility:.4f} per tuple"
        )
    print(f"  iDrips evaluated {idrips.stats.plans_evaluated} plans.")


if __name__ == "__main__":
    main()
