"""Tests for the synthetic dataset generators (repro.data.datasets)."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.data.datasets import (
    dataset_by_name,
    make_b2b,
    make_citeulike_like,
    make_movielens_like,
    make_netflix_like,
)
from repro.data.interactions import InteractionMatrix
from repro.exceptions import ConfigurationError, DataError

# Each preset at its default shape: the positive count it holds (to 1%) and
# its minimum degree for every user and every item.
PRESETS = {
    "movielens": (make_movielens_like, 14_705, 4),
    "citeulike": (make_citeulike_like, 13_953, 3),
    "netflix": (make_netflix_like, 72_731, 3),
}


def _structure_digest(matrix: InteractionMatrix) -> str:
    digest = hashlib.sha256()
    csr = matrix.csr()
    for array in (csr.indptr, csr.indices):
        digest.update(array.dtype.str.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestMovieLensLike:
    def test_shape_and_type(self):
        matrix = make_movielens_like(n_users=100, n_items=60, random_state=0)
        assert isinstance(matrix, InteractionMatrix)
        assert matrix.shape == (100, 60)

    def test_density_in_reasonable_range(self):
        matrix = make_movielens_like(n_users=200, n_items=150, random_state=0)
        assert 0.01 < matrix.density < 0.30

    def test_no_empty_users_or_items(self):
        matrix = make_movielens_like(n_users=150, n_items=100, random_state=1)
        assert matrix.user_degrees().min() >= 1
        assert matrix.item_degrees().min() >= 1

    def test_deterministic_given_seed(self):
        first = make_movielens_like(n_users=80, n_items=50, random_state=5)
        second = make_movielens_like(n_users=80, n_items=50, random_state=5)
        assert first == second

    def test_different_seeds_differ(self):
        first = make_movielens_like(n_users=80, n_items=50, random_state=5)
        second = make_movielens_like(n_users=80, n_items=50, random_state=6)
        assert first != second

    def test_has_labels(self):
        matrix = make_movielens_like(n_users=30, n_items=20, random_state=0)
        assert matrix.label_of_item(0).startswith("Movie")
        assert matrix.label_of_user(0).startswith("Viewer")


class TestCiteULikeLike:
    def test_more_items_than_users_and_sparser(self):
        cul = make_citeulike_like(n_users=120, n_items=300, random_state=0)
        ml = make_movielens_like(n_users=120, n_items=300, random_state=0)
        assert cul.shape == (120, 300)
        assert cul.density < ml.density

    def test_popularity_skew(self):
        matrix = make_citeulike_like(n_users=150, n_items=400, random_state=0)
        degrees = np.sort(matrix.item_degrees())[::-1]
        top_share = degrees[: len(degrees) // 10].sum() / degrees.sum()
        assert top_share > 0.15  # the popular tenth carries a clear share


class TestNetflixLike:
    def test_is_largest_default_corpus(self):
        matrix = make_netflix_like(n_users=400, n_items=200, random_state=0)
        assert matrix.shape == (400, 200)
        assert matrix.nnz > 1000


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_default_shape_holds_the_positive_count(self, name):
        make, nnz, min_degree = PRESETS[name]
        matrix = make()
        assert matrix.nnz == pytest.approx(nnz, rel=0.01)
        assert matrix.user_degrees().min() >= min_degree
        assert matrix.item_degrees().min() >= min_degree

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_other_shapes_keep_the_density(self, name):
        make, nnz, _ = PRESETS[name]
        default = make()
        matrix = make(n_users=2 * default.n_users, n_items=default.n_items // 2)
        assert matrix.nnz == pytest.approx(nnz, rel=0.01)
        assert matrix.density == pytest.approx(default.density, rel=0.01)

    # sha256 of indptr and indices at seed 0.  The draws are a contract:
    # a change that moves one changed every corpus built on it.
    PINNED = {
        "movielens": "74fb5c1caa0ac3406f638b766b9ad0f2c81c9a84b1619b4df51b3cb93698b088",
        "citeulike": "47c6e37ab24cecbf95aaef037680cf43790d0c2479289d284f639edd8be5a826",
        "netflix": "ea1450ffc2d6df6b669e78eab15bff60a579c42faff268b4cfdb102a612a2e54",
        "citeulike-a": "0b769d3ea3ab096ac2f56d3f2a7cfcd607553ff8679e4de35114bafb5ee09f66",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_draws_are_pinned(self, name):
        assert _structure_digest(dataset_by_name(name, random_state=0)) == self.PINNED[name]

    def test_citeulike_a_never_builds_a_dense_array(self):
        # One float64 array at 5,551 x 16,980 is 754 MB.
        tracemalloc.start()
        try:
            matrix = dataset_by_name("citeulike-a")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20
        assert matrix.shape == (5551, 16_980)
        assert matrix.nnz == pytest.approx(204_986, rel=0.01)
        assert matrix.user_degrees().min() >= 3
        assert matrix.item_degrees().min() >= 3

    def test_movielens_1m_keeps_the_paper_density(self):
        matrix = dataset_by_name("movielens-1m", scale=0.25)
        assert matrix.shape == (1510, 926)
        assert matrix.density == pytest.approx(836_478 / (6040 * 3706), rel=0.01)


class TestGeneratorArguments:
    @pytest.mark.parametrize("make", [p[0] for p in PRESETS.values()])
    @pytest.mark.parametrize("n_groups", [0, -1, 2.5, "3", None, True])
    def test_n_groups_must_be_a_positive_int(self, make, n_groups):
        with pytest.raises(ConfigurationError):
            make(n_users=30, n_items=20, n_groups=n_groups)

    def test_numpy_n_groups_passes(self):
        assert make_movielens_like(n_groups=np.int64(5)) == make_movielens_like(n_groups=5)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf"), "2", None, True])
    def test_scale_must_be_a_finite_positive_number(self, scale):
        with pytest.raises(DataError):
            dataset_by_name("movielens", scale=scale)


class TestB2B:
    def test_structure_and_metadata(self):
        dataset = make_b2b(n_clients=60, n_products=15, random_state=0)
        assert dataset.matrix.shape == (60, 15)
        assert len(dataset.client_names) == 60
        assert len(dataset.client_industries) == 60
        assert len(dataset.product_names) == 15

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
    @pytest.mark.parametrize(
        "name", ["movielens", "movielens-1m", "citeulike", "citeulike-a", "netflix", "b2b"]
    )
    def test_known_names(self, name):
        matrix = dataset_by_name(name, random_state=0, scale=0.05)
        assert isinstance(matrix, InteractionMatrix)
        assert matrix.nnz > 0

    def test_scale_changes_size(self):
        small = dataset_by_name("movielens", random_state=0, scale=0.05)
        large = dataset_by_name("movielens", random_state=0, scale=0.1)
        assert large.n_users > small.n_users

    def test_unknown_name_raises(self):
        with pytest.raises(DataError):
            dataset_by_name("lastfm")

    def test_non_positive_scale_raises(self):
        with pytest.raises(DataError):
            dataset_by_name("movielens", scale=0.0)
