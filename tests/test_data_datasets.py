"""Tests for the synthetic dataset generators (repro.data.datasets)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import (
    dataset_by_name,
    make_b2b,
    make_citeulike_like,
    make_movielens_like,
    make_netflix_like,
)
from repro.exceptions import DataError


class TestMovieLensLike:
    def test_shape_and_spec(self):
        matrix, spec = make_movielens_like(n_users=100, n_items=60, random_state=0)
        assert matrix.shape == (100, 60)
        assert spec.name == "movielens-like"
        assert spec.n_users == 100
        assert "MovieLens" in spec.paper_reference

    def test_density_in_reasonable_range(self):
        matrix, spec = make_movielens_like(n_users=200, n_items=150, random_state=0)
        assert 0.01 < matrix.density < 0.30
        assert spec.target_density == pytest.approx(matrix.density, abs=1e-9)

    def test_no_empty_users_or_items(self):
        matrix, _ = make_movielens_like(n_users=150, n_items=100, random_state=1)
        assert matrix.user_degrees().min() >= 1
        assert matrix.item_degrees().min() >= 1

    def test_deterministic_given_seed(self):
        first, _ = make_movielens_like(n_users=80, n_items=50, random_state=5)
        second, _ = make_movielens_like(n_users=80, n_items=50, random_state=5)
        assert first == second

    def test_different_seeds_differ(self):
        first, _ = make_movielens_like(n_users=80, n_items=50, random_state=5)
        second, _ = make_movielens_like(n_users=80, n_items=50, random_state=6)
        assert first != second

    def test_has_labels(self):
        matrix, _ = make_movielens_like(n_users=30, n_items=20, random_state=0)
        assert matrix.label_of_item(0).startswith("Movie")
        assert matrix.label_of_user(0).startswith("Viewer")


class TestCiteULikeLike:
    def test_more_items_than_users_and_sparser(self):
        cul, cul_spec = make_citeulike_like(n_users=120, n_items=300, random_state=0)
        ml, _ = make_movielens_like(n_users=120, n_items=300, random_state=0)
        assert cul.shape == (120, 300)
        assert cul.density < ml.density

    def test_popularity_skew(self):
        matrix, _ = make_citeulike_like(n_users=150, n_items=400, random_state=0)
        degrees = np.sort(matrix.item_degrees())[::-1]
        top_share = degrees[: len(degrees) // 10].sum() / degrees.sum()
        assert top_share > 0.15  # the popular tenth carries a clear share


class TestNetflixLike:
    def test_is_largest_default_corpus(self):
        matrix, spec = make_netflix_like(n_users=400, n_items=200, random_state=0)
        assert matrix.shape == (400, 200)
        assert spec.name == "netflix-like"
        assert matrix.nnz > 1000


class TestB2B:
    def test_structure_and_metadata(self):
        dataset = make_b2b(n_clients=60, n_products=15, random_state=0)
        assert dataset.matrix.shape == (60, 15)
        assert len(dataset.client_names) == 60
        assert len(dataset.client_industries) == 60
        assert len(dataset.product_names) == 15
        assert dataset.spec is not None and dataset.spec.name == "b2b-like"

    def test_deal_values_cover_every_positive(self):
        dataset = make_b2b(n_clients=40, n_products=12, random_state=1)
        for user, item in dataset.matrix.iter_pairs():
            assert (user, item) in dataset.deal_values
            assert dataset.deal_values[(user, item)] > 0

    def test_client_names_reflect_industry(self):
        dataset = make_b2b(n_clients=30, n_products=10, random_state=2)
        for name, industry in zip(dataset.client_names, dataset.client_industries):
            assert industry in name

    def test_matrix_labels_are_names(self):
        dataset = make_b2b(n_clients=30, n_products=10, random_state=2)
        assert dataset.matrix.label_of_user(0) == dataset.client_names[0]
        assert dataset.matrix.label_of_item(3) == dataset.product_names[3]


class TestDatasetByName:
    @pytest.mark.parametrize("name", ["movielens", "citeulike", "netflix", "b2b"])
    def test_known_names(self, name):
        matrix, spec = dataset_by_name(name, random_state=0, scale=0.05)
        assert matrix.nnz > 0
        assert spec.n_users == matrix.n_users

    def test_scale_changes_size(self):
        small, _ = dataset_by_name("movielens", random_state=0, scale=0.05)
        large, _ = dataset_by_name("movielens", random_state=0, scale=0.1)
        assert large.n_users > small.n_users

    def test_unknown_name_raises(self):
        with pytest.raises(DataError):
            dataset_by_name("lastfm")

    def test_non_positive_scale_raises(self):
        with pytest.raises(DataError):
            dataset_by_name("movielens", scale=0.0)
