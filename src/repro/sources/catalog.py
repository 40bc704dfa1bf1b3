"""The source catalog: mediated schema plus LAV source descriptions.

Following the paper (Section 2) we adopt the local-as-view approach:
each source relation is described by a conjunctive query over the
mediated-schema relations, e.g.::

    V1(A, M) :- play_in(A, M), american(M)

meaning that every tuple found in ``V1`` satisfies the conjunction
(sources may be incomplete: ``V1`` need not contain *all* such tuples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import CatalogError
from repro.datalog.parser import parse_query
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom
from repro.sources.statistics import SourceStats


@dataclass(frozen=True)
class SourceDescription:
    """A single data source: name, LAV view definition, statistics."""

    name: str
    view: ConjunctiveQuery
    stats: SourceStats = field(default_factory=SourceStats)
    _hash: int = field(init=False, repr=False, compare=False)
    _renamed: dict[str, ConjunctiveQuery] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.name))
        if self.view.head.predicate != self.name:
            raise CatalogError(
                f"source {self.name!r} has a view head named "
                f"{self.view.head.predicate!r}; they must match"
            )
        if not self.view.is_safe():
            raise CatalogError(f"unsafe source description: {self.view}")

    @property
    def head(self) -> Atom:
        return self.view.head

    @property
    def body(self) -> tuple[Atom, ...]:
        return self.view.body

    @property
    def arity(self) -> int:
        return self.view.head.arity

    def renamed_view(self, suffix: str) -> ConjunctiveQuery:
        """The view with every variable renamed apart by *suffix*.

        Built once per suffix and kept on the description itself, never
        in a table keyed by source name: names repeat across catalogs
        with different views.  The bucket test and the soundness check
        rename the same few views on every request.
        """
        view = self._renamed.get(suffix)
        if view is None:
            view = self._renamed[suffix] = self.view.rename_apart(suffix)
        return view

    def __str__(self) -> str:
        return str(self.view)

    # Identity is by name: a catalog enforces unique names, and the
    # ordering algorithms use sources as dictionary keys heavily.
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceDescription):
            return NotImplemented
        return self.name == other.name


class Catalog:
    """A mediated schema together with the available sources.

    The catalog validates that every source description only mentions
    known schema relations with correct arities, and that source names
    are unique.
    """

    def __init__(self, schema: Optional[dict[str, int]] = None) -> None:
        self._schema: dict[str, int] = dict(schema or {})
        self._sources: dict[str, SourceDescription] = {}
        # predicate -> the sources whose view body mentions it, in
        # insertion order (bucket member order follows it).
        self._by_predicate: dict[str, list[SourceDescription]] = {}

    # -- schema -----------------------------------------------------------------

    def add_relation(self, name: str, arity: int) -> None:
        """Declare a mediated-schema relation."""
        existing = self._schema.get(name)
        if existing is not None and existing != arity:
            raise CatalogError(
                f"relation {name!r} redeclared with arity {arity}, was {existing}"
            )
        self._schema[name] = arity

    @property
    def schema(self) -> dict[str, int]:
        return dict(self._schema)

    # -- sources ----------------------------------------------------------------

    def add_source(
        self,
        description: str | ConjunctiveQuery | SourceDescription,
        stats: Optional[SourceStats] = None,
    ) -> SourceDescription:
        """Register a source.

        *description* may be a :class:`SourceDescription`, a parsed
        view query, or datalog text such as
        ``"v1(A, M) :- play_in(A, M), american(M)"``.
        """
        if isinstance(description, str):
            description = parse_query(description)
        if isinstance(description, ConjunctiveQuery):
            description = SourceDescription(
                description.head.predicate, description, stats or SourceStats()
            )
        elif stats is not None:
            description = SourceDescription(description.name, description.view, stats)
        self._validate(description)
        self._sources[description.name] = description
        for predicate in description.view.predicates():
            self._by_predicate.setdefault(predicate, []).append(description)
        return description

    def _validate(self, source: SourceDescription) -> None:
        if source.name in self._sources:
            raise CatalogError(f"duplicate source name {source.name!r}")
        if source.name in self._schema:
            raise CatalogError(
                f"source name {source.name!r} collides with a schema relation"
            )
        for atom in source.body:
            arity = self._schema.get(atom.predicate)
            if arity is None:
                raise CatalogError(
                    f"source {source.name!r} mentions unknown relation "
                    f"{atom.predicate!r}"
                )
            if arity != atom.arity:
                raise CatalogError(
                    f"source {source.name!r} uses {atom.predicate!r} with arity "
                    f"{atom.arity}, declared {arity}"
                )

    def source(self, name: str) -> SourceDescription:
        try:
            return self._sources[name]
        except KeyError:
            raise CatalogError(f"unknown source {name!r}") from None

    @property
    def sources(self) -> tuple[SourceDescription, ...]:
        return tuple(self._sources.values())

    def sources_for(self, predicate: str) -> tuple[SourceDescription, ...]:
        """Sources whose view body mentions the given schema relation."""
        return tuple(self._by_predicate.get(predicate, ()))

    def validate_query(self, query: ConjunctiveQuery) -> None:
        """Check that a user query only uses declared schema relations."""
        for atom in query.body:
            arity = self._schema.get(atom.predicate)
            if arity is None:
                raise CatalogError(f"query uses unknown relation {atom.predicate!r}")
            if arity != atom.arity:
                raise CatalogError(
                    f"query uses {atom.predicate!r} with arity {atom.arity}, "
                    f"declared {arity}"
                )

    def __len__(self) -> int:
        return len(self._sources)

    def __iter__(self) -> Iterator[SourceDescription]:
        return iter(self._sources.values())

    def __contains__(self, name: object) -> bool:
        return name in self._sources

    def __str__(self) -> str:
        lines = [f"{name}/{arity}" for name, arity in sorted(self._schema.items())]
        lines.extend(str(s) for s in self._sources.values())
        return "\n".join(lines)
