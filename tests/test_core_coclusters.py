"""Tests for co-cluster extraction and statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coclusters import (
    DEFAULT_MEMBERSHIP_THRESHOLD,
    CoCluster,
    cocluster_statistics,
    extract_coclusters,
)
from repro.core.factors import FactorModel
from repro.data.interactions import InteractionMatrix
from repro.exceptions import ConfigurationError


@pytest.fixture
def block_factors():
    """Hand-built factors with two clean co-clusters and one empty column."""
    user_factors = np.zeros((6, 3))
    item_factors = np.zeros((5, 3))
    user_factors[0:3, 0] = 2.0
    item_factors[0:2, 0] = 2.0
    user_factors[3:6, 1] = 1.5
    item_factors[2:5, 1] = 1.5
    # Column 2 stays empty (below any threshold).
    user_factors[:, 2] = 0.01
    item_factors[:, 2] = 0.01
    return FactorModel(user_factors, item_factors)


@pytest.fixture
def block_matrix():
    dense = np.zeros((6, 5))
    dense[0:3, 0:2] = 1.0
    dense[3:6, 2:5] = 1.0
    dense[3, 4] = 0.0  # one missing entry inside the second block
    return InteractionMatrix(dense)


class TestDefaultThreshold:
    def test_value_matches_half_probability_rule(self):
        # Two borderline members produce P = 1 - exp(-delta^2) = 0.5.
        assert DEFAULT_MEMBERSHIP_THRESHOLD == pytest.approx(np.sqrt(np.log(2.0)))


class TestExtractCoClusters:
    def test_members_and_order(self, block_factors, block_matrix):
        coclusters = extract_coclusters(block_factors, block_matrix)
        assert len(coclusters) == 3
        first, second, third = coclusters
        assert set(first.users.tolist()) == {0, 1, 2}
        assert set(first.items.tolist()) == {0, 1}
        assert set(second.users.tolist()) == {3, 4, 5}
        assert set(second.items.tolist()) == {2, 3, 4}
        assert third.is_empty

    def test_strengths_aligned_and_sorted(self, block_factors):
        coclusters = extract_coclusters(block_factors)
        first = coclusters[0]
        assert len(first.user_strengths) == first.n_users
        assert all(
            earlier >= later
            for earlier, later in zip(first.user_strengths, first.user_strengths[1:])
        )

    def test_density_computation(self, block_factors, block_matrix):
        coclusters = extract_coclusters(block_factors, block_matrix)
        assert coclusters[0].density == pytest.approx(1.0)
        assert coclusters[1].density == pytest.approx(8 / 9)

    def test_density_nan_without_matrix(self, block_factors):
        coclusters = extract_coclusters(block_factors)
        assert np.isnan(coclusters[0].density)

    def test_drop_empty(self, block_factors):
        kept = extract_coclusters(block_factors, drop_empty=True)
        assert len(kept) == 2

    def test_custom_threshold_changes_membership(self, block_factors):
        generous = extract_coclusters(block_factors, membership_threshold=0.005)
        assert generous[2].n_users == 6  # the weak column becomes full under a tiny threshold

    def test_negative_threshold_rejected(self, block_factors):
        with pytest.raises(ConfigurationError):
            extract_coclusters(block_factors, membership_threshold=-1.0)

    def test_overlap_possible(self):
        user_factors = np.array([[2.0, 2.0], [2.0, 0.0]])
        item_factors = np.array([[2.0, 0.0], [0.0, 2.0]])
        coclusters = extract_coclusters(FactorModel(user_factors, item_factors))
        # User 0 belongs to both co-clusters: overlap.
        assert 0 in coclusters[0].users and 0 in coclusters[1].users

    def test_top_members_helpers(self, block_factors):
        cocluster = extract_coclusters(block_factors)[0]
        assert cocluster.top_users(2) == cocluster.users[:2].tolist()
        assert cocluster.top_items(1) == cocluster.items[:1].tolist()


class TestStatistics:
    def test_aggregates(self, block_factors, block_matrix):
        coclusters = extract_coclusters(block_factors, block_matrix)
        stats = cocluster_statistics(coclusters, n_users=6, n_items=5)
        assert stats.n_coclusters == 2  # the empty one is excluded
        assert stats.mean_users == pytest.approx(3.0)
        assert stats.mean_items == pytest.approx(2.5)
        assert 0.8 < stats.mean_density <= 1.0
        assert stats.mean_user_memberships == pytest.approx(1.0)
        assert stats.mean_item_memberships == pytest.approx(1.0)

    def test_as_dict_keys(self, block_factors):
        stats = cocluster_statistics(extract_coclusters(block_factors), n_users=6, n_items=5)
        summary = stats.as_dict()
        for key in ("n_coclusters", "mean_users", "mean_items", "mean_user_memberships"):
            assert key in summary

    def test_empty_cocluster_properties(self):
        empty = CoCluster(
            index=0,
            users=np.array([], dtype=np.int64),
            items=np.array([1]),
            user_strengths=np.array([]),
            item_strengths=np.array([1.0]),
        )
        assert empty.is_empty
        assert empty.n_users == 0 and empty.n_items == 1


class TestOnFittedModel:
    def test_toy_model_produces_overlapping_coclusters(self, fitted_toy_model, toy_dataset):
        coclusters = fitted_toy_model.coclusters(membership_threshold=0.5)
        non_empty = [c for c in coclusters if not c.is_empty]
        assert len(non_empty) == 3
        stats = cocluster_statistics(coclusters, n_users=12, n_items=12)
        # User 6 and item 4 overlap several co-clusters in the toy example, so
        # the average number of memberships must exceed pure partitioning.
        assert stats.mean_item_memberships > 0.5
