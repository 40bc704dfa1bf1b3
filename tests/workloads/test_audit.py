"""docs/workloads.md's audit table against the code.

Each row of the table names one mechanism of ``repro.sources``,
``repro.workloads``, ``repro.experiments``, ``repro.cli``,
``repro.service.workloads`` or the bundled scenarios of
``repro.analysis.runner``, and ends in its verdict: "kept" (the
mechanism is there) or anything else (it was deleted).  One probe per
row checks the verdict against the tree, so a mechanism re-added
without its row, or a row left behind by a deletion, fails here.
"""

import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.experiments import counts, figure6, harness
from repro.sources.catalog import Catalog, SourceDescription
from repro.sources.overlap import OverlapModel
from repro.sources.statistics import SourceStats
from repro.workloads import random_lav
from repro.workloads.domain import Domain
from repro.workloads.synthetic import SyntheticParams

DOC = Path(__file__).resolve().parents[2] / "docs" / "workloads.md"
HEADING = "## Which mechanisms exist, and why: the audit"
PACKAGE = Path(repro.__file__).parent


def audit_rows():
    """``(mechanism, verdict)`` for each row of the audit table."""
    section = DOC.read_text(encoding="utf-8").split(HEADING, 1)[1]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = []
    for line in lines[2:]:  # past the header and its rule
        cells = [cell.strip() for cell in line.strip().strip("|").split(" | ")]
        rows.append((cells[0], cells[-1]))
    return rows


def text(path):
    return (PACKAGE / path).read_text(encoding="utf-8")


def params(callable_):
    return set(inspect.signature(callable_).parameters)


def has(obj, name):
    return hasattr(obj, name)


def fields(cls):
    return {field.name for field in dataclasses.fields(cls)}


#: Does the row's mechanism exist in the tree?
PRESENT = {
    "a source's view head must carry its name":
        lambda: 'if self.view.head.predicate != self.name:' in text('sources/catalog.py'),
    'the unsafe-view refusal':
        lambda: 'if not self.view.is_safe():' in text('sources/catalog.py'),
    "`renamed_view`'s memo on the description":
        lambda: 'view = self._renamed.get(suffix)' in text('sources/catalog.py'),
    'source identity by name (`__eq__`)':
        lambda: 'return self.name == other.name' in text('sources/catalog.py'),
    "`add_relation`'s arity-conflict refusal":
        lambda: 'if existing is not None and existing != arity:' in text('sources/catalog.py'),
    '`Catalog.schema` hands out a copy':
        lambda: 'return dict(self._schema)' in text('sources/catalog.py'),
    '`add_source(description, stats=)` re-stats a description':
        lambda: 'elif stats is not None:' in text('sources/catalog.py'),
    'the duplicate-source refusal':
        lambda: 'if source.name in self._sources:' in text('sources/catalog.py'),
    "a source may not take a relation's name":
        lambda: 'if source.name in self._schema:' in text('sources/catalog.py'),
    "a view's unknown-relation refusal":
        lambda: '            if arity is None:\n                raise CatalogError(\n                    f"source {source.name!r} mentions' in text('sources/catalog.py'),
    "a view's arity refusal":
        lambda: '            if arity != atom.arity:\n                raise CatalogError(\n                    f"source {source.name!r} uses' in text('sources/catalog.py'),
    "`Catalog.source`'s unknown-source refusal":
        lambda: '            raise CatalogError(f"unknown source {name!r}") from None' in text('sources/catalog.py'),
    'the predicate index behind `sources_for`':
        lambda: 'self._by_predicate.setdefault(predicate, []).append(description)' in text('sources/catalog.py'),
    "`validate_query`'s unknown-relation refusal":
        lambda: 'raise CatalogError(f"query uses unknown relation {atom.predicate!r}")' in text('sources/catalog.py'),
    "`validate_query`'s arity refusal":
        lambda: '            if arity != atom.arity:\n                raise CatalogError(\n                    f"query uses' in text('sources/catalog.py'),
    '`Catalog.__contains__`':
        lambda: '        return name in self._sources' in text('sources/catalog.py'),
    '`Catalog.__str__` lists the sources':
        lambda: 'lines.extend(str(s) for s in self._sources.values())' in text('sources/catalog.py'),
    '`Catalog.__len__`':
        lambda: 'return len(self._sources)' in text('sources/catalog.py'),
    '`Catalog.__iter__`':
        lambda: 'return iter(self._sources.values())' in text('sources/catalog.py'),
    'the positive-universe refusal':
        lambda: 'if any(size <= 0 for size in self._universe_sizes):' in text('sources/overlap.py'),
    'the bucket-range refusal':
        lambda: 'if not 0 <= bucket < len(self._universe_sizes):' in text('sources/overlap.py'),
    'the negative-mask refusal':
        lambda: 'if mask < 0:' in text('sources/overlap.py'),
    'the mask-exceeds-universe refusal':
        lambda: 'if mask >> self._universe_sizes[bucket]:' in text('sources/overlap.py'),
    '`OverlapModel.universe_size` (the benchmark reads it)':
        lambda: '    def universe_size(self, bucket: int) -> int:\n        return self._universe_sizes[bucket]' in text('sources/overlap.py'),
    '`total_universe_size`':
        lambda: 'total *= size' in text('sources/overlap.py'),
    "`extension`'s missing-extension refusal":
        lambda: '            return self._extensions[(bucket, source_name)]' in text('sources/overlap.py'),
    "`SourceStats`' negative-count refusal":
        lambda: 'if self.n_tuples < 0:' in text('sources/statistics.py'),
    "`SourceStats`' negative-transfer refusal":
        lambda: 'if self.transfer_cost < 0:' in text('sources/statistics.py'),
    "`SourceStats`' failure-probability range":
        lambda: 'if not 0.0 <= self.failure_prob < 1.0:' in text('sources/statistics.py'),
    "`SourceStats`' negative-fee refusal":
        lambda: 'if self.access_fee < 0 or self.fee_per_item < 0:' in text('sources/statistics.py'),
    '`Domain.measure_names` offers only what the inputs allow':
        lambda: 'if all(getattr(self, field) is not None for field in needs)' in text('workloads/domain.py'),
    "`Domain.measure`'s missing-input refusal":
        lambda: '        if missing:' in text('workloads/domain.py'),
    "`Domain.measure`'s unknown-name refusal":
        lambda: '            needs, build = MEASURES[name]' in text('workloads/domain.py'),
    "`bind-join` passes the domain's `uniform_transfer`":
        lambda: 'lambda d: _bind_join(d, uniform_transfer=d.uniform_transfer),' in text('workloads/domain.py'),
    '`failure` is failure-aware':
        lambda: '"failure": (("domain_sizes",), lambda d: _bind_join(d, failure_aware=True)),' in text('workloads/domain.py'),
    '`failure-caching` caches':
        lambda: 'lambda d: _bind_join(d, failure_aware=True, caching=True),' in text('workloads/domain.py'),
    '`monetary-caching` caches':
        lambda: 'lambda d: MonetaryCostPerTuple(domain_sizes=d.domain_sizes, caching=True),' in text('workloads/domain.py'),
    'the bind-join measures read the domain sizes':
        lambda: 'access_overhead=1.0, domain_sizes=domain.domain_sizes, **options' in text('workloads/domain.py'),
    'the monetary measures read the domain sizes':
        lambda: 'lambda d: MonetaryCostPerTuple(domain_sizes=d.domain_sizes),' in text('workloads/domain.py'),
    "`linear`'s access overhead of 1":
        lambda: 'LinearCost(access_overhead=1.0)' in text('workloads/domain.py'),
    'the domain-sizes rule (3 × the largest source)':
        lambda: '3.0 * max(source.stats.n_tuples for source in bucket.sources)' in text('workloads/domain.py'),
    "`SyntheticParams`' query-length refusal":
        lambda: 'if self.query_length < 1:' in text('workloads/synthetic.py'),
    "`SyntheticParams`' bucket-size refusal":
        lambda: 'if self.bucket_size < 1:' in text('workloads/synthetic.py'),
    "`SyntheticParams`' overlap-rate refusal":
        lambda: 'if not 0.0 <= self.overlap_rate <= 1.0:' in text('workloads/synthetic.py'),
    'default groups per bucket (bucket size ÷ 6, at least 2)':
        lambda: 'return max(2, self.bucket_size // 6)' in text('workloads/synthetic.py'),
    '`groups_per_bucket` (the overlap sweep sets it)':
        lambda: 'if self.groups_per_bucket is not None:' in text('workloads/synthetic.py'),
    "`generate_domain`'s params-or-overrides refusal":
        lambda: '    elif overrides:' in text('workloads/synthetic.py'),
    'partner slivers (`overlap_rate`)':
        lambda: 'if rng.random() < params.overlap_rate:' in text('workloads/synthetic.py'),
    'group cores':
        lambda: '    core = cores[group]' in text('workloads/synthetic.py'),
    'members mutate their core (5 %)':
        lambda: '_MUTATION_RATE = 0.05' in text('workloads/synthetic.py'),
    'the empty-member fallback':
        lambda: '    if own == 0:' in text('workloads/synthetic.py'),
    'tuple counts track the own-block extension':
        lambda: 'own_bits = _popcount_in_block(mask, group, block)' in text('workloads/synthetic.py'),
    'group-coherent transfer costs':
        lambda: 'transfer_cost=alpha[group] * rng.uniform(0.9, 1.1),' in text('workloads/synthetic.py'),
    'group-coherent failure probabilities':
        lambda: 'failure_prob=min(0.8, failure[group] * rng.uniform(0.8, 1.2)),' in text('workloads/synthetic.py'),
    'i.i.d. access fees':
        lambda: 'access_fee=rng.uniform(0.5, 3.0),' in text('workloads/synthetic.py'),
    '`random_scenario` redraws a refused view':
        lambda: '            except ReformulationError:\n                continue\n            extension' in text('workloads/random_lav.py'),
    'incomplete source instances (70 %)':
        lambda: '_SOURCE_COMPLETENESS = 0.7' in text('workloads/random_lav.py'),
    '`ordering_scenario` redraws until six plans':
        lambda: 'if candidate_space.size >= _MIN_PLANS:' in text('workloads/random_lav.py'),
    "`ordering_scenario`'s no-scenario refusal":
        lambda: '    if scenario is None or space is None:' in text('workloads/random_lav.py'),
    'one drawn `SourceStats` per source name':
        lambda: 'if source.name not in enriched:' in text('workloads/random_lav.py'),
    "`ordering_scenario`'s uniform transfer cost":
        lambda: 'transfer_cost=1.0,' in text('workloads/random_lav.py'),
    "`ordering_scenario` serves the drawn scenario's catalog":
        lambda: '    return Domain(\n        scenario.catalog,' in text('workloads/random_lav.py'),
    "the fuzz family's single-bucket draws":
        lambda: 'width = 1 if seed % 7 == 3 else rng.randint(2, 4)' in text('workloads/random_lav.py'),
    "the fuzz family's `max_plans` clamp":
        lambda: '        if product <= max_plans:' in text('workloads/random_lav.py'),
    "the fuzz family's four fee profiles":
        lambda: 'fee_profile = FEE_PROFILES[seed % len(FEE_PROFILES)]' in text('workloads/random_lav.py'),
    "the fuzz family's uniform-transfer draws":
        lambda: '1.0 if uniform_transfer else rng.uniform(0.5, 2.0)' in text('workloads/random_lav.py'),
    '`certain_answers_three_ways` with no bucket plan space':
        lambda: '    except ReformulationError:\n        space = None' in text('workloads/random_lav.py'),
    "a camera group's extensions share a band":
        lambda: 'mask |= 1 << (band_start + bit)' in text('workloads/cameras.py'),
    "`run_panel`'s returned-count refusal":
        lambda: 'if returned != min(spec.k, domain.space.size):' in text('experiments/harness.py'),
    '`run_panel(bucket_sizes=)`':
        lambda: '    if bucket_sizes is not None:' in text('experiments/harness.py'),
    '`run_panel` averages over the seeds':
        lambda: '        for seed in spec.seeds:' in text('experiments/harness.py'),
    "`PanelResult.row`'s KeyError":
        lambda: '        raise KeyError((algorithm, bucket_size))' in text('experiments/harness.py'),
    "`format_table`'s evaluations column":
        lambda: 'cells_eval.append(f"{row.plans_evaluated:>16.0f}")' in text('experiments/harness.py'),
    '`algorithm(name=)` labels (`Greedy`, `PI+cache`)':
        lambda: 'return AlgorithmSpec(name or cls.name,' in text('experiments/harness.py'),
    '`counts.check` compares headers':
        lambda: 'if block[:2] != table.header_lines():' in text('experiments/counts.py'),
    '`counts.check` flags rows sharing labels':
        lambda: '            if labels in found:' in text('experiments/counts.py'),
    '`counts.check` flags rows the code does not generate':
        lambda: 'if len(rows) == len(table.rows):' in text('experiments/counts.py'),
    '`counts.check` reports a missing block':
        lambda: 'problems.append(f"{table.name}: {exc.args[0]}")' in text('experiments/counts.py'),
    '`counts.write` rewrites the tables':
        lambda: '        lines[start:end] = table.header_lines() + [\n            _line(labels + cells) for labels, cells in rows.items()\n        ]' in text('experiments/counts.py'),
    '`generate(cheap=True)` keeps only cheap rows':
        lambda: 'if row.cheap or not cheap' in text('experiments/counts.py'),
    '`experiments --check` exits 1 on a difference':
        lambda: '    return 1 if problems else 0' in text('experiments/figure6.py'),
    '`experiments --quick` sizes':
        lambda: '        sizes = QUICK_SIZES' in text('experiments/figure6.py'),
    'a sweep keeps its own bucket size':
        lambda: 'results.extend(run_panel(spec) for spec in SWEEPS[panel_id])' in text('experiments/figure6.py'),
    "`--check` / `--write`'s unreadable-path message":
        lambda: '        raise ReproError(f"cannot read {path}: {exc.strerror}") from None' in text('experiments/figure6.py'),
    'a `ReproError` is one `repro:` line and exit 2':
        lambda: '        print(f"repro: {exc}", file=sys.stderr)\n        return 2' in text('cli.py'),
    'a closed stdout ends the command quietly':
        lambda: '    except BrokenPipeError:' in text('cli.py'),
    '`main` flushes stdout before it returns':
        lambda: '        sys.stdout.flush()\n        return status' in text('cli.py'),
    "`bench-serve --connect`'s HOST:PORT check":
        lambda: '    if not port_text.isdigit():' in text('cli.py'),
    "`metrics-dump`'s unreadable-file message":
        lambda: '    except (OSError, ValueError) as exc:' in text('cli.py'),
    '`metrics-dump` exits 1 on a bad export':
        lambda: '        print(f"metrics-dump: {exc}", file=sys.stderr)\n        return 1' in text('cli.py'),
    '`metrics-dump` needs a path or `--url`':
        lambda: '    if not args.path:' in text('cli.py'),
    '`metrics-dump --url`':
        lambda: '    if args.url:' in text('cli.py'),
    '`order --trace`':
        lambda: '    if args.trace:\n        print()' in text('cli.py'),
    '`order --metrics-out`':
        lambda: '    if args.metrics_out:\n        registry.write_json(' in text('cli.py'),
    '`order --cache`':
        lambda: 'cache=args.cache, registry=registry, tracer=tracer,' in text('cli.py'),
    '`order` prints the non-zero counters':
        lambda: '        if value:\n            print(f"  {key}: {value}")' in text('cli.py'),
    '`simulate --sim-seed` defaults to `--seed`':
        lambda: 'sim_seed = args.sim_seed if args.sim_seed is not None else args.seed' in text('cli.py'),
    '`simulate` resets the simulator between runs':
        lambda: '    simulator.reset(seed=sim_seed)' in text('cli.py'),
    '`simulate --adaptive` bumps the epoch on new failures':
        lambda: '            epoch.bump()' in text('cli.py'),
    '`_given`: an unset flag keeps the default':
        lambda: 'return {name: value for name, value in values.items() if value is not None}' in text('cli.py'),
    '`serve --chaos` reaches the worker spec':
        lambda: 'chaos = bundled_profile(args.chaos).as_dict()' in text('cli.py'),
    '`serve --workers N`':
        lambda: '    if args.workers != 1:' in text('cli.py'),
    '`serve --journal`':
        lambda: '        if args.journal:\n            journal = EventJournal(' in text('cli.py'),
    '`serve --metrics-port`':
        lambda: '        if args.metrics_port is not None:' in text('cli.py'),
    '`serve` stops on SIGTERM':
        lambda: '            signal.signal(signal.SIGTERM, lambda *_: stop.set())' in text('cli.py'),
    '`lint --list-rules`':
        lambda: '    if args.list_rules:' in text('cli.py'),
    "`lint`'s family flags narrow the run":
        lambda: '        run_code=args.code or not explicit,' in text('cli.py'),
    '`--select` / `--ignore` split on commas':
        lambda: 'patterns.extend(p.strip() for p in value.split(",") if p.strip())' in text('cli.py'),
    '`lint` exits 1 on a finding':
        lambda: '    print(render_text(diagnostics))\n    return 1 if diagnostics else 0' in text('cli.py'),
    "`demo` prints each batch's new answers":
        lambda: '        for row in sorted(batch.new_answers):' in text('cli.py'),
    '`repro experiments` forwards its argv':
        lambda: '    if argv and argv[0] == "experiments":' in text('cli.py'),
    '`bench-serve` exits 1 on an errored request':
        lambda: '    return 0 if report.errors == 0 else 1' in text('cli.py'),
    '`bench-serve --degradation-out`':
        lambda: '    if args.degradation_out:' in text('cli.py'),
    "`service_workload`'s unknown-workload refusal":
        lambda: '        raise ServiceError(\n            f"unknown workload' in text('service/workloads.py'),
    'movies serves `linear` and `failure`':
        lambda: '    "movies": ("linear", "failure"),' in text('service/workloads.py'),
    'random-lav serves four measures':
        lambda: '    "random-lav": ("linear", "bind-join", "coverage", "monetary"),' in text('service/workloads.py'),
    '`OverlapModel` in `repro.__all__`':
        lambda: '    "OverlapModel",\n' in text('__init__.py'),
    "`builtin_scenarios`' unknown-scenario refusal":
        lambda: '            raise AnalysisError(\n                f"unknown scenario' in text('analysis/runner.py'),
    "the movies lint scenario's measures":
        lambda: '(movie_domain, ("linear", "bind-join", "failure"))' in text('analysis/runner.py'),
    "the cameras lint scenario's measures":
        lambda: '(camera_domain, ("linear", "bind-join", "coverage"))' in text('analysis/runner.py'),
    "the paper-example lint scenario's measures":
        lambda: '(paper_example, ("linear", "coverage"))' in text('analysis/runner.py'),
    "the synthetic lint scenario's measures":
        lambda: '        ("linear", "bind-join", "coverage", "failure", "monetary"),' in text('analysis/runner.py'),
    "the random-lav lint scenario's measures":
        lambda: '        partial(ordering_scenario, 0),\n        ("linear", "bind-join", "coverage"),' in text('analysis/runner.py'),
    '`OverlapModel.full_mask`':
        lambda: has(OverlapModel, "full_mask"),
    '`OverlapModel.has_extension`':
        lambda: has(OverlapModel, "has_extension"),
    '`OverlapModel.set_extension`':
        lambda: has(OverlapModel, "set_extension"),
    '`OverlapModel.coverage_fraction`':
        lambda: has(OverlapModel, "coverage_fraction"),
    '`OverlapModel.overlap_count`':
        lambda: has(OverlapModel, "overlap_count"),
    '`OverlapModel.overlap_fraction`':
        lambda: has(OverlapModel, "overlap_fraction"),
    '`OverlapModel.jaccard`':
        lambda: has(OverlapModel, "jaccard"),
    '`OverlapModel.disjoint`':
        lambda: has(OverlapModel, "disjoint"),
    '`SourceStats.with_tuples`':
        lambda: has(SourceStats, "with_tuples"),
    '`Catalog.has_relation`':
        lambda: has(Catalog, "has_relation"),
    '`SourceDescription.covers_predicate`':
        lambda: has(SourceDescription, "covers_predicate"),
    '`SourceDescription.head_variables`':
        lambda: has(SourceDescription, "head_variables"),
    '`empty_bucket_space()`':
        lambda: has(random_lav, "empty_bucket_space"),
    '`SyntheticParams.tuples_per_element`':
        lambda: "tuples_per_element" in fields(SyntheticParams),
    '`SyntheticParams.mutation_rate`':
        lambda: "mutation_rate" in fields(SyntheticParams),
    '`SyntheticDomain.params`':
        lambda: "params" in fields(Domain),
    '`random_scenario(facts_per_relation=)`':
        lambda: "facts_per_relation" in params(random_lav.random_scenario),
    '`random_scenario(source_completeness=)`':
        lambda: "source_completeness" in params(random_lav.random_scenario),
    '`random_scenario(domain_size=)`':
        lambda: "domain_size" in params(random_lav.random_scenario),
    '`ordering_scenario(min_plans=)`':
        lambda: "min_plans" in params(random_lav.ordering_scenario),
    '`ordering_scenario(universe_bits=)`':
        lambda: "universe_bits" in params(random_lav.ordering_scenario),
    '`ordering_scenario(**scenario_kwargs)`':
        lambda: params(random_lav.ordering_scenario) != {"seed"},
    '`fuzz_ordering_space(universe_bits=)`':
        lambda: "universe_bits" in params(random_lav.fuzz_ordering_space),
    '`FuzzSpace.describe()`':
        lambda: has(Domain, "describe"),
    '`FuzzSpace.fee_profile` / `seed`':
        lambda: bool({"fee_profile", "seed"} & fields(Domain)),
    '`CameraDomain.groups`':
        lambda: "groups" in fields(Domain),
    '`PanelResult.series`':
        lambda: has(harness.PanelResult, "series"),
    '`PanelResult.format_breakdown`':
        lambda: has(harness.PanelResult, "format_breakdown"),
    '`experiments --breakdown` and `breakdown_spec`':
        lambda: has(figure6, "breakdown_spec") or "--breakdown" in text("experiments/figure6.py"),
    '`experiments --metrics-out` and `PanelResult.as_dict`':
        lambda: "--metrics-out" in text("experiments/figure6.py") or has(harness.PanelResult, "as_dict"),
    '`PanelRow.concrete_evaluations` / `abstract_evaluations`':
        lambda: bool({"concrete_evaluations", "abstract_evaluations"} & fields(harness.PanelRow)),
    '`PanelRow.cache_hits` / `cache_misses`':
        lambda: bool({"cache_hits", "cache_misses"} & fields(harness.PanelRow)),
    '`PanelRow.plans_returned`':
        lambda: "plans_returned" in fields(harness.PanelRow),
    "`counts._stats` / `_counts`' own seeds × algorithms loop (now `run_panel`'s)":
        lambda: has(counts, "_stats"),
    '`cli._make_measure` (now `Domain.measure`)':
        lambda: has(cli, "_make_measure"),
    "`_cmd_lint`'s own closed-pipe handler (now `main`'s)":
        lambda: "BrokenPipeError" in inspect.getsource(cli._cmd_lint),
}


def test_every_row_has_a_probe():
    assert sorted(mechanism for mechanism, _ in audit_rows()) == sorted(PRESENT)


@pytest.mark.parametrize(
    "mechanism, verdict", audit_rows(), ids=[row[0] for row in audit_rows()]
)
def test_the_verdict_matches_the_tree(mechanism, verdict):
    assert PRESENT[mechanism]() == verdict.startswith("kept")
