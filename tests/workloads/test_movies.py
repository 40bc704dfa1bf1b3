"""Tests for the Figure 1 movie domain."""

from repro.workloads.movies import movie_domain


class TestMovieDomain:
    def test_schema_matches_figure1(self):
        domain = movie_domain()
        assert domain.catalog.schema == {
            "play_in": 2,
            "review_of": 2,
            "american": 1,
            "russian": 1,
        }

    def test_six_sources(self):
        domain = movie_domain()
        assert [s.name for s in domain.catalog.sources] == [
            "v1", "v2", "v3", "v4", "v5", "v6",
        ]

    def test_source_descriptions_match_figure1(self):
        domain = movie_domain()

        def relations(name):
            return {atom.predicate for atom in domain.catalog.source(name).body}

        assert "american" in relations("v1")
        assert "russian" in relations("v2")
        assert "american" not in relations("v3")
        for name in ("v4", "v5", "v6"):
            assert "review_of" in relations(name)

    def test_query_asks_for_ford_reviews(self):
        domain = movie_domain()
        assert domain.query.name == "q"
        assert '"ford"' in str(domain.query)

    def test_instance_respects_descriptions(self):
        """v1 holds only american-movie rows; v2 only russian ones."""
        domain = movie_domain()
        american = {m for (_a, m) in domain.source_facts["v1"]}
        russian = {m for (_a, m) in domain.source_facts["v2"]}
        assert not american & russian

    def test_every_source_has_data(self):
        domain = movie_domain()
        for source in domain.catalog.sources:
            assert domain.source_facts[source.name]
