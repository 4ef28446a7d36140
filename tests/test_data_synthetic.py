"""Tests for repro.data.synthetic (planted co-clusters and the paper toy)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import (
    make_paper_toy_example,
    make_planted_coclusters,
    membership_recovery_score,
)
from repro.exceptions import DataError


class TestPaperToyExample:
    def test_shape_and_holes(self):
        toy = make_paper_toy_example()
        assert toy.matrix.shape == (12, 12)
        assert len(toy.heldout_pairs) == 3
        # The paper's headline candidate recommendation is (user 6, item 4).
        assert (6, 4) in toy.heldout_pairs
        for user, item in toy.heldout_pairs:
            assert not toy.matrix.contains(user, item)

    def test_three_overlapping_coclusters(self):
        toy = make_paper_toy_example()
        assert toy.n_coclusters == 3
        # User 6 overlaps co-clusters 2 and 3; item 4 appears in all three.
        user_member_count = sum(1 for users in toy.user_memberships if 6 in users)
        item_member_count = sum(1 for items in toy.item_memberships if 4 in items)
        assert user_member_count == 2
        assert item_member_count == 3

    def test_users_and_items_outside_all_coclusters_are_empty(self):
        toy = make_paper_toy_example()
        degrees = toy.matrix.user_degrees()
        for user in (3, 10, 11):
            assert degrees[user] == 0

    def test_overlapping_memberships(self):
        toy = make_paper_toy_example()
        assert toy.n_coclusters == 3
        assert sum(6 in users for users in toy.user_memberships) == 2
        assert sum(4 in items for items in toy.item_memberships) == 3

    def test_deterministic(self):
        assert make_paper_toy_example().matrix == make_paper_toy_example().matrix


class TestPlantedCoClusters:
    def test_basic_shape_and_memberships(self):
        planted = make_planted_coclusters(
            n_users=60, n_items=40, n_coclusters=3, users_per_cocluster=20,
            items_per_cocluster=10, random_state=0,
        )
        assert planted.matrix.shape == (60, 40)
        assert planted.n_coclusters == 3
        for users, items in zip(planted.user_memberships, planted.item_memberships):
            assert len(users) == 20
            assert len(items) == 10

    def test_within_density_dominates_background(self):
        planted = make_planted_coclusters(
            n_users=80, n_items=60, n_coclusters=2, users_per_cocluster=30,
            items_per_cocluster=20, within_density=0.9, background_density=0.01,
            random_state=1,
        )
        dense = planted.matrix.toarray()
        inside_mask = np.zeros_like(dense, dtype=bool)
        for users, items in zip(planted.user_memberships, planted.item_memberships):
            inside_mask[np.ix_(users, items)] = True
        inside_density = dense[inside_mask].mean()
        outside_density = dense[~inside_mask].mean()
        assert inside_density > 0.7
        assert outside_density < 0.1

    def test_holdout_pairs_removed_from_matrix(self):
        planted = make_planted_coclusters(
            holdout_fraction=0.2, random_state=2, n_users=50, n_items=40,
            users_per_cocluster=20, items_per_cocluster=15, n_coclusters=2,
        )
        assert planted.heldout_pairs
        for user, item in planted.heldout_pairs:
            assert not planted.matrix.contains(user, item)

    def test_non_overlapping_mode_partitions(self):
        planted = make_planted_coclusters(
            n_users=60, n_items=40, n_coclusters=3, users_per_cocluster=20,
            items_per_cocluster=10, overlap=False, random_state=3,
        )
        all_users = np.concatenate(planted.user_memberships)
        assert len(all_users) == len(set(all_users.tolist()))

    def test_deterministic_given_seed(self):
        first = make_planted_coclusters(random_state=11)
        second = make_planted_coclusters(random_state=11)
        assert first.matrix == second.matrix

    def test_rejects_oversized_coclusters(self):
        with pytest.raises(DataError):
            make_planted_coclusters(n_users=10, users_per_cocluster=20)

    def test_rejects_bad_holdout_fraction(self):
        with pytest.raises(DataError):
            make_planted_coclusters(holdout_fraction=1.0)

    def test_rejects_disjoint_that_does_not_fit(self):
        with pytest.raises(DataError):
            make_planted_coclusters(
                n_users=30, n_coclusters=4, users_per_cocluster=10, overlap=False
            )


class TestMembershipRecoveryScore:
    def test_perfect_recovery_is_one(self):
        truth = [np.array([0, 1, 2]), np.array([3, 4])]
        assert membership_recovery_score(truth, truth, universe=5) == pytest.approx(1.0)

    def test_disjoint_recovery_is_zero(self):
        truth = [np.array([0, 1])]
        estimate = [np.array([2, 3])]
        assert membership_recovery_score(truth, estimate, universe=4) == 0.0

    def test_partial_overlap(self):
        truth = [np.array([0, 1, 2, 3])]
        estimate = [np.array([2, 3, 4, 5])]
        score = membership_recovery_score(truth, estimate, universe=6)
        assert score == pytest.approx(2 / 6)

    def test_requires_valid_indices(self):
        with pytest.raises(DataError):
            membership_recovery_score([np.array([0, 99])], [np.array([0])], universe=5)

    def test_requires_non_empty_truth(self):
        with pytest.raises(DataError):
            membership_recovery_score([], [np.array([0])], universe=5)
