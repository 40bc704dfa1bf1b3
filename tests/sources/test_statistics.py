"""Tests for per-source statistics validation."""

import pytest

from repro.errors import CatalogError
from repro.sources.statistics import SourceStats


class TestValidation:
    def test_defaults_are_valid(self):
        stats = SourceStats()
        assert stats.n_tuples == 100

    def test_negative_tuples_rejected(self):
        with pytest.raises(CatalogError):
            SourceStats(n_tuples=-1)

    def test_negative_transfer_cost_rejected(self):
        with pytest.raises(CatalogError):
            SourceStats(transfer_cost=-0.5)

    def test_failure_prob_bounds(self):
        with pytest.raises(CatalogError):
            SourceStats(failure_prob=1.0)
        with pytest.raises(CatalogError):
            SourceStats(failure_prob=-0.1)
        assert SourceStats(failure_prob=0.99).failure_prob == 0.99

    def test_negative_fees_rejected(self):
        with pytest.raises(CatalogError):
            SourceStats(access_fee=-1)
        with pytest.raises(CatalogError):
            SourceStats(fee_per_item=-1)


class TestImmutability:
    def test_immutability(self):
        stats = SourceStats()
        with pytest.raises(Exception):
            stats.n_tuples = 5  # type: ignore[misc]
