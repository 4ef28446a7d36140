"""Tests for the baseline recommenders (popularity, kNN, wALS, BPR)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BPRRecommender,
    ItemKNNRecommender,
    PopularityRecommender,
    UserKNNRecommender,
    WeightedALSRecommender,
)
from repro.baselines.user_knn import cosine_similarity_rows
from repro.data.interactions import InteractionMatrix
from repro.evaluation.evaluator import evaluate_recommender
from repro.exceptions import ConfigurationError, NotFittedError
import scipy.sparse as sp


@pytest.fixture
def block_matrix():
    """Two disjoint user/item blocks plus a couple of bridge interactions."""
    dense = np.zeros((10, 8))
    dense[0:5, 0:4] = 1.0
    dense[5:10, 4:8] = 1.0
    dense[0, 0] = 0.0  # hole inside block 1
    dense[7, 6] = 0.0  # hole inside block 2
    dense[4, 4] = 1.0  # bridge
    return InteractionMatrix(dense)


ALL_BASELINES = [
    ("popularity", lambda: PopularityRecommender()),
    ("user_knn", lambda: UserKNNRecommender(n_neighbors=3)),
    ("item_knn", lambda: ItemKNNRecommender(n_neighbors=3)),
    ("wals", lambda: WeightedALSRecommender(n_factors=4, n_iterations=5, random_state=0)),
    ("bpr", lambda: BPRRecommender(n_factors=4, n_epochs=10, random_state=0)),
]


@pytest.mark.parametrize("name,factory", ALL_BASELINES)
class TestCommonBehaviour:
    def test_fit_score_recommend(self, name, factory, block_matrix):
        model = factory().fit(block_matrix)
        scores = model.score_user(0)
        assert scores.shape == (8,)
        assert np.all(np.isfinite(scores))
        ranked = model.recommend(0, n_items=3)
        assert len(ranked) <= 3
        seen = set(block_matrix.items_of_user(0).tolist())
        assert not (set(int(i) for i in ranked) & seen)

    def test_unfitted_raises(self, name, factory):
        with pytest.raises(NotFittedError):
            factory().score_user(0)

    def test_block_structure_respected(self, name, factory, block_matrix):
        if name == "popularity":
            pytest.skip("popularity is non-personalised by design")
        model = factory().fit(block_matrix)
        # User 1 lives in block 1 (items 0-3); its top recommendation should be
        # the hole (0,0)-side item rather than something from the other block.
        scores = model.score_user(0)
        block_score = scores[0]
        other_block_mean = scores[4:8].mean()
        assert block_score >= other_block_mean


class TestPopularity:
    def test_scores_equal_item_degrees(self, block_matrix):
        model = PopularityRecommender().fit(block_matrix)
        np.testing.assert_allclose(model.score_user(3), block_matrix.item_degrees())

    def test_same_ranking_for_all_users(self, block_matrix):
        model = PopularityRecommender().fit(block_matrix)
        np.testing.assert_array_equal(
            model.recommend(0, n_items=2, exclude_seen=False),
            model.recommend(9, n_items=2, exclude_seen=False),
        )


class TestCosineSimilarity:
    def test_self_similarity_zeroed(self, block_matrix):
        similarity = cosine_similarity_rows(block_matrix.csr())
        assert np.allclose(np.diag(similarity), 0.0)

    def test_identical_rows_have_similarity_one(self):
        matrix = sp.csr_matrix(np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=float))
        similarity = cosine_similarity_rows(matrix)
        assert similarity[0, 1] == pytest.approx(1.0)
        assert similarity[0, 2] == pytest.approx(0.0)

    def test_empty_row_has_zero_similarity(self):
        matrix = sp.csr_matrix(np.array([[1, 1], [0, 0]], dtype=float))
        similarity = cosine_similarity_rows(matrix)
        assert similarity[0, 1] == 0.0 and similarity[1, 0] == 0.0

    def test_symmetry(self, block_matrix):
        similarity = cosine_similarity_rows(block_matrix.csr())
        np.testing.assert_allclose(similarity, similarity.T)


class TestUserKNN:
    def test_invalid_neighbors_raises(self):
        with pytest.raises(ConfigurationError):
            UserKNNRecommender(n_neighbors=0)

    def test_hole_recovery(self, block_matrix):
        model = UserKNNRecommender(n_neighbors=4).fit(block_matrix)
        assert int(model.recommend(0, n_items=1)[0]) == 0  # the (0, 0) hole


class TestItemKNN:
    def test_hole_recovery(self, block_matrix):
        model = ItemKNNRecommender(n_neighbors=4).fit(block_matrix)
        assert int(model.recommend(7, n_items=1)[0]) == 6  # the (7, 6) hole

    def test_invalid_neighbors_raises(self):
        with pytest.raises(ConfigurationError):
            ItemKNNRecommender(n_neighbors=-1)


class TestWeightedALS:
    def test_loss_decreases_over_iterations(self, block_matrix):
        model = WeightedALSRecommender(n_factors=4, n_iterations=8, random_state=0)
        model.fit(block_matrix)
        losses = model.loss_history_
        assert len(losses) == 8
        assert losses[-1] <= losses[0]

    def test_positives_scored_above_unknowns(self, block_matrix):
        model = WeightedALSRecommender(n_factors=6, n_iterations=10, random_state=0)
        model.fit(block_matrix)
        positive_scores, unknown_scores = [], []
        dense = block_matrix.toarray()
        for user in range(block_matrix.n_users):
            scores = model.score_user(user)
            positive_scores.extend(scores[dense[user] > 0])
            unknown_scores.extend(scores[dense[user] == 0])
        assert np.mean(positive_scores) > np.mean(unknown_scores)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            WeightedALSRecommender(n_factors=0)
        with pytest.raises(ConfigurationError):
            WeightedALSRecommender(unknown_weight=1.5)

    def test_deterministic(self, block_matrix):
        first = WeightedALSRecommender(n_factors=4, n_iterations=3, random_state=1).fit(block_matrix)
        second = WeightedALSRecommender(n_factors=4, n_iterations=3, random_state=1).fit(block_matrix)
        np.testing.assert_allclose(first.user_factors_, second.user_factors_)


class TestBPR:
    def test_positives_ranked_above_sampled_negatives(self, block_matrix):
        model = BPRRecommender(n_factors=8, n_epochs=40, random_state=0).fit(block_matrix)
        dense = block_matrix.toarray()
        correct = 0
        total = 0
        rng = np.random.default_rng(0)
        for user in range(block_matrix.n_users):
            scores = model.score_user(user)
            positives = np.flatnonzero(dense[user] > 0)
            unknowns = np.flatnonzero(dense[user] == 0)
            if len(positives) == 0 or len(unknowns) == 0:
                continue
            for positive in positives:
                negative = rng.choice(unknowns)
                total += 1
                if scores[positive] > scores[negative]:
                    correct += 1
        assert correct / total > 0.75

    def test_deterministic(self, block_matrix):
        first = BPRRecommender(n_factors=4, n_epochs=5, random_state=2).fit(block_matrix)
        second = BPRRecommender(n_factors=4, n_epochs=5, random_state=2).fit(block_matrix)
        np.testing.assert_allclose(first.user_factors_, second.user_factors_)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            BPRRecommender(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            BPRRecommender(n_epochs=0)

    def test_empty_matrix_rejected(self):
        from repro.exceptions import ReproError

        empty = InteractionMatrix(np.zeros((3, 3)))
        with pytest.raises(ReproError):
            BPRRecommender(n_epochs=1).fit(empty)


class TestBaselinesBeatRandomOnStructuredData:
    """Every personalised baseline should beat popularity on block-structured data."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: UserKNNRecommender(n_neighbors=10),
            lambda: ItemKNNRecommender(n_neighbors=10),
            lambda: WeightedALSRecommender(n_factors=16, n_iterations=10, random_state=0),
        ],
    )
    def test_beats_popularity(self, factory, movielens_small):
        _, split = movielens_small
        personalised = factory().fit(split.train)
        popularity = PopularityRecommender().fit(split.train)
        users = sorted(split.test_items.keys())[:60]
        personalised_recall = evaluate_recommender(personalised, split, m=20, users=users).recall
        popularity_recall = evaluate_recommender(popularity, split, m=20, users=users).recall
        assert personalised_recall >= popularity_recall
