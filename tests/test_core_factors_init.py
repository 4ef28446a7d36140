"""Tests for the factor container and the cold-start initialisation."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.factors import FactorModel
from repro.core.init import random_init
from repro.exceptions import ConfigurationError


class TestFactorModel:
    def test_shapes_and_counts(self):
        model = FactorModel(np.ones((5, 3)), np.ones((7, 3)))
        assert model.n_users == 5
        assert model.n_items == 7
        assert model.n_coclusters == 3

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            FactorModel(np.ones((5, 3)), np.ones((7, 4)))

    def test_negative_factors_rejected(self):
        with pytest.raises(ConfigurationError):
            FactorModel(-np.ones((2, 2)), np.ones((2, 2)))

    def test_probability_formula(self):
        user_factors = np.array([[1.0, 0.0], [0.5, 0.5]])
        item_factors = np.array([[2.0, 0.0], [0.0, 0.0]])
        model = FactorModel(user_factors, item_factors)
        assert model.affinity(0, 0) == pytest.approx(2.0)
        assert model.predict_proba(0, 0) == pytest.approx(1 - np.exp(-2.0))
        assert model.predict_proba(0, 1) == pytest.approx(0.0)

    def test_user_scores_vector(self):
        model = FactorModel(np.array([[1.0]]), np.array([[0.5], [2.0]]))
        scores = model.user_scores(0)
        np.testing.assert_allclose(scores, 1 - np.exp(-np.array([0.5, 2.0])))

    def test_score_matrix_consistency(self):
        rng = np.random.default_rng(0)
        model = FactorModel(rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (6, 2)))
        matrix = model.score_matrix()
        for user in range(4):
            np.testing.assert_allclose(matrix[user], model.user_scores(user))

    def test_score_matrix_subset(self):
        rng = np.random.default_rng(0)
        model = FactorModel(rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (6, 2)))
        subset = model.score_matrix(np.array([1, 3]))
        np.testing.assert_allclose(subset[0], model.user_scores(1))
        np.testing.assert_allclose(subset[1], model.user_scores(3))

    def test_cocluster_contributions_sum_to_affinity(self):
        rng = np.random.default_rng(1)
        model = FactorModel(rng.uniform(0, 1, (3, 4)), rng.uniform(0, 1, (3, 4)))
        contributions = model.cocluster_contributions(1, 2)
        assert contributions.sum() == pytest.approx(model.affinity(1, 2))

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(2)
        model = FactorModel(rng.uniform(0, 3, (5, 3)), rng.uniform(0, 3, (4, 3)))
        scores = model.score_matrix()
        assert np.all(scores >= 0) and np.all(scores < 1)

    def test_copy_is_deep(self):
        model = FactorModel(np.ones((2, 2)), np.ones((2, 2)))
        clone = model.copy()
        clone.user_factors[0, 0] = 5.0
        assert model.user_factors[0, 0] == 1.0


@pytest.fixture
def sparse_matrix():
    rng = np.random.default_rng(3)
    return sp.csr_matrix((rng.random((40, 30)) < 0.1).astype(float))


class TestInitialization:
    def test_random_init_shapes_and_positivity(self, sparse_matrix):
        users, items = random_init(sparse_matrix, 6, random_state=0)
        assert users.shape == (40, 6)
        assert items.shape == (30, 6)
        assert (users >= 0).all() and (items >= 0).all()

    def test_random_init_deterministic(self, sparse_matrix):
        first = random_init(sparse_matrix, 4, random_state=9)
        second = random_init(sparse_matrix, 4, random_state=9)
        np.testing.assert_array_equal(first[0], second[0])

    def test_random_init_calibrated_to_density(self, sparse_matrix):
        users, items = random_init(sparse_matrix, 8, random_state=0)
        density = sparse_matrix.nnz / (40 * 30)
        expected_affinity = -np.log(1 - density)
        mean_affinity = float(np.mean(users @ items.T))
        assert 0.2 * expected_affinity < mean_affinity < 5 * expected_affinity

    def test_invalid_parameters_raise(self, sparse_matrix):
        with pytest.raises(ConfigurationError):
            random_init(sparse_matrix, 0)


class TestDtypeThreading:
    """float32 support without silent upcasts through init and FactorModel."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_init_dtype(self, sparse_matrix, dtype):
        users, items = random_init(sparse_matrix, 4, random_state=0, dtype=dtype)
        assert users.dtype == dtype
        assert items.dtype == dtype

    def test_float32_init_is_rounded_float64_init(self, sparse_matrix):
        full = random_init(sparse_matrix, 4, random_state=7)
        half = random_init(sparse_matrix, 4, random_state=7, dtype=np.float32)
        np.testing.assert_array_equal(full[0].astype(np.float32), half[0])

    def test_random_init_rejects_bad_dtype(self, sparse_matrix):
        with pytest.raises(ConfigurationError):
            random_init(sparse_matrix, 4, dtype=np.int64)

    def test_factor_model_preserves_float32(self):
        rng = np.random.default_rng(0)
        model = FactorModel(
            rng.random((5, 3)).astype(np.float32),
            rng.random((4, 3)).astype(np.float32),
        )
        assert model.dtype == np.float32
        assert model.user_factors.dtype == np.float32
        assert model.score_matrix().dtype == np.float32

    def test_factor_model_upcasts_mixed_dtypes_to_common(self):
        rng = np.random.default_rng(0)
        model = FactorModel(
            rng.random((5, 3)).astype(np.float32), rng.random((4, 3))
        )
        assert model.dtype == np.float64
        assert model.item_factors.dtype == np.float64

    def test_factor_model_astype(self):
        rng = np.random.default_rng(0)
        model = FactorModel(rng.random((5, 3)), rng.random((4, 3)))
        half = model.astype(np.float32)
        assert half.dtype == np.float32
        np.testing.assert_allclose(
            half.user_factors, model.user_factors, rtol=1e-6, atol=1e-6
        )


class TestGeneratorContract:
    """The documented RNG contract of random_init.

    An int seed materialises a fresh Generator per call (two calls agree); a
    Generator instance is used *as is*, so its stream advances — the property
    the incremental-refit study leans on to drive a base fit and a cold
    refit from one seed.
    """

    def test_int_seed_is_reproducible_per_call(self, sparse_matrix):
        a = random_init(sparse_matrix, 4, random_state=123)
        b = random_init(sparse_matrix, 4, random_state=123)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_generator_stream_advances_across_calls(self, sparse_matrix):
        rng = np.random.default_rng(123)
        first = random_init(sparse_matrix, 4, random_state=rng)
        second = random_init(sparse_matrix, 4, random_state=rng)
        assert not np.array_equal(first[0], second[0])

    def test_generator_is_not_reseeded(self, sparse_matrix):
        # Passing a Generator draws exactly what an int-seeded call would
        # have drawn first — the function must not wrap or re-seed it.
        from_int = random_init(sparse_matrix, 4, random_state=123)
        from_gen = random_init(
            sparse_matrix, 4, random_state=np.random.default_rng(123)
        )
        np.testing.assert_array_equal(from_int[0], from_gen[0])
        np.testing.assert_array_equal(from_int[1], from_gen[1])

    def test_caller_stream_is_consumed(self, sparse_matrix):
        rng = np.random.default_rng(123)
        untouched = np.random.default_rng(123)
        random_init(sparse_matrix, 4, random_state=rng)
        # The caller's stream moved past the draws the init consumed.
        assert rng.random() != untouched.random()
