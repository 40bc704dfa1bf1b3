"""Tests for the overlap / extension model."""

import pytest

from repro.errors import CatalogError
from repro.sources.overlap import OverlapModel


@pytest.fixture
def model() -> OverlapModel:
    return OverlapModel(
        (8, 4),
        {
            (0, "a"): 0b0000_1111,
            (0, "b"): 0b0011_1100,
            (0, "c"): 0b1100_0000,
            (1, "x"): 0b1010,
            (1, "y"): 0b0101,
        },
    )


class TestConstruction:
    def test_mask_exceeding_universe_rejected(self):
        with pytest.raises(CatalogError):
            OverlapModel((4,), {(0, "a"): 0b10000})

    def test_negative_mask_rejected(self):
        with pytest.raises(CatalogError, match="negative mask"):
            OverlapModel((4,), {(0, "a"): -1})

    def test_bad_bucket_rejected(self):
        with pytest.raises(CatalogError):
            OverlapModel((4,), {(1, "a"): 0b1})

    def test_zero_universe_rejected(self):
        with pytest.raises(CatalogError):
            OverlapModel((0,), {})


class TestAccessors:
    def test_universe_sizes(self, model):
        assert model.universe_sizes == (8, 4)
        assert model.universe_size(1) == 4

    def test_total_universe(self, model):
        assert model.total_universe_size() == 32

    def test_extension_lookup(self, model):
        assert model.extension(0, "a") == 0b0000_1111

    def test_missing_extension_raises(self, model):
        with pytest.raises(CatalogError):
            model.extension(0, "zzz")
