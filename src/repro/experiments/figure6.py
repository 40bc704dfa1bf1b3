"""Panel definitions for every table/figure of the paper's evaluation.

Figure 6 has twelve panels: four utility measures, each at k = 1, 10
and 100, plotting time-to-k-th-plan against bucket size for PI,
iDrips, and (where applicable) Streamer.  The in-text sweeps are
:func:`overlap_sweep_spec` and :func:`query_length_spec`;
:mod:`repro.experiments.counts` turns the panels, the sweeps and the
other in-text claims into EXPERIMENTS.md's count tables.

Run from the command line::

    python -m repro.experiments.figure6            # default sizes
    python -m repro.experiments.figure6 --quick    # small sizes
    python -m repro.experiments.figure6 --full     # paper-scale sweep
    python -m repro.experiments.figure6 --panel a b c
    python -m repro.experiments.figure6 --panel overlap qlen   # the sweeps
    python -m repro.experiments.figure6 --check EXPERIMENTS.md
    python -m repro.experiments.figure6 --write EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.experiments.harness import (
    AlgorithmSpec,
    PanelResult,
    PanelSpec,
    algorithm,
    run_panel,
)

#: Bucket-size sweeps per mode.
QUICK_SIZES = (4, 8, 12)
DEFAULT_SIZES = (4, 8, 12, 16)
FULL_SIZES = (8, 16, 24, 32, 40)


def _trio(measure: str) -> tuple[AlgorithmSpec, ...]:
    """PI, iDrips and Streamer on *measure*."""
    return tuple(algorithm(name, measure) for name in ("pi", "idrips", "streamer"))


#: Figure 6's four measure families; each is plotted at k = 1, 10, 100.
_FAMILIES: tuple[tuple[str, str, tuple[AlgorithmSpec, ...]], ...] = (
    # (a)-(c): plan coverage -- Streamer applicable (diminishing returns).
    ("abc", "plan coverage", _trio("coverage")),
    # (d)-(f): cost with source failure, no caching -- full independence.
    ("def", "failure cost (no caching)", _trio("failure")),
    # (g)-(i): cost with failure + caching -- diminishing returns fails,
    # Streamer is not applicable (paper, Section 6).
    ("ghi", "failure cost (caching)", _trio("failure-caching")[:2]),
    # (j)-(l): average monetary cost per tuple, both caching options.
    ("jkl", "monetary cost/tuple",
     (*_trio("monetary"),
      algorithm("pi", "monetary-caching", "PI+cache"),
      algorithm("idrips", "monetary-caching", "iDrips+cache"))),
)

#: Every Figure 6 panel, keyed a-l as in the paper.
PANELS: dict[str, PanelSpec] = {
    letter: PanelSpec(f"6.{letter}", f"{title}, {nth} plan", k, algorithms)
    for letters, title, algorithms in _FAMILIES
    for letter, (k, nth) in zip(letters, ((1, "1st"), (10, "10th"), (100, "100th")))
}


def overlap_sweep_spec(overlap_rate: float, k: int = 20) -> PanelSpec:
    """Section 6 in-text claim: Streamer degrades as overlap grows."""
    # Six groups per bucket give 15 group pairs, so the overlap rate
    # actually moves the number of overlapping source pairs; several
    # seeds average out the coin flips.
    return PanelSpec(
        f"overlap-{overlap_rate}",
        f"coverage, overlap rate {overlap_rate}",
        k,
        (algorithm("pi", "coverage"), algorithm("streamer", "coverage")),
        bucket_sizes=(12,),
        overlap_rate=overlap_rate,
        seeds=(0, 1, 2),
        groups_per_bucket=6,
    )


def query_length_spec(query_length: int, k: int = 10) -> PanelSpec:
    """Section 6 in-text claim: trends persist for query length 1-7."""
    return PanelSpec(
        f"qlen-{query_length}",
        f"failure cost, query length {query_length}",
        k,
        _trio("failure"),
        bucket_sizes=(8,),
        query_length=query_length,
    )


#: The in-text sweeps by ``--panel`` name, one spec per swept value.
SWEEPS: dict[str, tuple[PanelSpec, ...]] = {
    "overlap": tuple(overlap_sweep_spec(rate) for rate in (0.1, 0.3, 0.5, 0.7, 0.9)),
    "qlen": tuple(query_length_spec(length) for length in (1, 2, 3, 4, 5)),
}


def run_panels(
    panel_ids: Sequence[str],
    bucket_sizes: Sequence[int],
) -> list[PanelResult]:
    results = []
    for panel_id in panel_ids:
        if panel_id in SWEEPS:
            # A sweep fixes its own bucket size.
            results.extend(run_panel(spec) for spec in SWEEPS[panel_id])
        else:
            results.append(run_panel(PANELS[panel_id], bucket_sizes=bucket_sizes))
    return results


def _count_tables(path: str, *, write: bool) -> int:
    """Diff, or regenerate, the count tables of the file at *path*."""
    # Imported here: the count tables are built from this module's specs.
    from repro.experiments import counts

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc.strerror}") from None
    generated = counts.generate()
    if write:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(counts.write(text, generated))
        print(f"wrote {len(generated)} count tables to {path}")
        return 0
    problems = counts.check(text, generated)
    for problem in problems:
        print(problem)
    rows = sum(len(table_rows) for table_rows in generated.values())
    print(f"{path}: {rows} generated rows, {len(problems)} difference(s)")
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--panel",
        nargs="*",
        choices=[*sorted(PANELS), *SWEEPS],
        default=sorted(PANELS),
        help="panels to run (a-l), or the overlap-rate / query-length sweep",
    )
    parser.add_argument("--quick", action="store_true", help="small bucket sizes")
    parser.add_argument("--full", action="store_true", help="paper-scale sizes")
    tables = parser.add_mutually_exclusive_group()
    tables.add_argument(
        "--check",
        metavar="PATH",
        help="diff the count tables in PATH (EXPERIMENTS.md) against the "
        "code; exit 1 on any difference",
    )
    tables.add_argument(
        "--write", metavar="PATH", help="regenerate the count tables in PATH"
    )
    args = parser.parse_args(argv)
    if args.check or args.write:
        return _count_tables(args.check or args.write, write=bool(args.write))

    sizes = DEFAULT_SIZES
    if args.quick:
        sizes = QUICK_SIZES
    if args.full:
        sizes = FULL_SIZES

    for result in run_panels(args.panel, sizes):
        print(result.format_table())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
