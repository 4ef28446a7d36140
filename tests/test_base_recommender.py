"""Tests for the shared Recommender interface (via a minimal dummy model)."""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.base import Recommender
from repro.data.interactions import InteractionMatrix
from repro.exceptions import ConfigurationError, NotFittedError


class ConstantScoreRecommender(Recommender):
    """Scores every item by its index — the simplest deterministic ranker."""

    def fit(self, matrix: InteractionMatrix) -> "ConstantScoreRecommender":
        self._set_train_matrix(matrix)
        return self

    def _score_user(self, user: int) -> np.ndarray:
        return np.arange(self.train_matrix.n_items, dtype=float)


class BadShapeRecommender(Recommender):
    """Returns a score vector of the wrong length (to test validation)."""

    def fit(self, matrix: InteractionMatrix) -> "BadShapeRecommender":
        self._set_train_matrix(matrix)
        return self

    def _score_user(self, user: int) -> np.ndarray:
        return np.zeros(3)


@pytest.fixture
def simple_matrix():
    dense = np.zeros((3, 6))
    dense[0, [0, 5]] = 1.0
    dense[1, [1, 2, 3]] = 1.0
    return InteractionMatrix(dense)


class TestFittedState:
    def test_unfitted_access_raises(self, simple_matrix):
        model = ConstantScoreRecommender()
        assert not model.is_fitted
        with pytest.raises(NotFittedError):
            _ = model.train_matrix
        with pytest.raises(NotFittedError):
            model.recommend(0)
        with pytest.raises(NotFittedError):
            model.score_users([0])

    def test_fit_records_matrix(self, simple_matrix):
        model = ConstantScoreRecommender().fit(simple_matrix)
        assert model.is_fitted
        assert model.train_matrix is simple_matrix


class TestRecommend:
    def test_ranking_order_and_exclusion(self, simple_matrix):
        model = ConstantScoreRecommender().fit(simple_matrix)
        # Highest index wins; user 0 has seen items 0 and 5.
        np.testing.assert_array_equal(model.recommend(0, n_items=3), [4, 3, 2])

    def test_include_seen(self, simple_matrix):
        model = ConstantScoreRecommender().fit(simple_matrix)
        np.testing.assert_array_equal(
            model.recommend(0, n_items=3, exclude_seen=False), [5, 4, 3]
        )

    def test_short_list_when_few_unknowns(self, simple_matrix):
        model = ConstantScoreRecommender().fit(simple_matrix)
        # User 1 has 3 unknown items (0, 4, 5); asking for 10 returns only 3.
        ranked = model.recommend(1, n_items=10)
        assert len(ranked) == 3
        assert set(ranked.tolist()) == {0, 4, 5}

    @pytest.mark.parametrize("n_items", [-1, 0, 2.5, "3", None, True])
    def test_list_length_must_be_a_positive_int(self, simple_matrix, n_items):
        model = ConstantScoreRecommender().fit(simple_matrix)
        with pytest.raises(ConfigurationError):
            model.recommend(0, n_items=n_items)

    def test_numpy_list_length_passes(self, simple_matrix):
        model = ConstantScoreRecommender().fit(simple_matrix)
        np.testing.assert_array_equal(model.recommend(0, n_items=np.int64(3)), [4, 3, 2])

    def test_wrong_score_shape_raises(self, simple_matrix):
        model = BadShapeRecommender().fit(simple_matrix)
        with pytest.raises(ValueError):
            model.recommend(0)


class TestScoreUsers:
    def test_default_stacks_score_user(self, simple_matrix):
        model = ConstantScoreRecommender().fit(simple_matrix)
        batch = model.score_users([0, 1])
        assert batch.shape == (2, 6)
        np.testing.assert_array_equal(batch[0], batch[1])

    def test_empty_user_list(self, simple_matrix):
        model = ConstantScoreRecommender().fit(simple_matrix)
        assert model.score_users([]).shape == (0, 6)


def _subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _subclasses(subclass)


def test_no_model_reads_ids_past_the_base_class():
    # score_user, score_users and recommend check the fit and the ids for
    # every model; a model implements _score_user (and may implement
    # _score_users), so an override here would read ids past the gate.
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    models = [cls for cls in _subclasses(Recommender) if cls.__module__.startswith("repro.")]
    assert len(models) >= 8
    offenders = [
        f"{cls.__module__}.{cls.__qualname__}.{name}"
        for cls in models
        for name in ("score_user", "score_users", "recommend")
        if name in vars(cls)
    ]
    assert offenders == []
