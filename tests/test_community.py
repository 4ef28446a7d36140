"""Tests for the community-detection comparators (Figure 2 substrate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.community.bigclam import BigClam
from repro.community.bipartite import BipartiteGraph
from repro.community.modularity import GreedyModularityCommunities, modularity
from repro.data.interactions import InteractionMatrix
from repro.data.synthetic import make_paper_toy_example, make_planted_coclusters
from repro.exceptions import DataError, NotFittedError


@pytest.fixture
def two_block_matrix():
    """Two disjoint user-item blocks: the easiest possible community structure."""
    dense = np.zeros((8, 6))
    dense[0:4, 0:3] = 1.0
    dense[4:8, 3:6] = 1.0
    return InteractionMatrix(dense)


class TestBipartiteGraph:
    def test_node_layout_and_counts(self, two_block_matrix):
        graph = BipartiteGraph(two_block_matrix)
        assert graph.n_users == 8
        assert graph.n_items == 6
        assert graph.n_nodes == 14
        assert graph.n_edges == two_block_matrix.nnz

    def test_adjacency_symmetric_and_bipartite(self, two_block_matrix):
        graph = BipartiteGraph(two_block_matrix)
        adjacency = graph.adjacency().toarray()
        np.testing.assert_array_equal(adjacency, adjacency.T)
        # No user-user or item-item edges.
        assert adjacency[:8, :8].sum() == 0
        assert adjacency[8:, 8:].sum() == 0

    def test_degrees_match_interaction_degrees(self, two_block_matrix):
        graph = BipartiteGraph(two_block_matrix)
        degrees = graph.degrees()
        np.testing.assert_array_equal(degrees[:8], two_block_matrix.user_degrees())
        np.testing.assert_array_equal(degrees[8:], two_block_matrix.item_degrees())

    def test_neighbors_of_user_node_are_item_nodes(self, two_block_matrix):
        graph = BipartiteGraph(two_block_matrix)
        neighbors = graph.neighbors(0)
        assert all(not graph.is_user_node(int(node)) for node in neighbors)
        items = sorted(graph.item_of_node(int(node)) for node in neighbors)
        assert items == [0, 1, 2]

    def test_node_index_conversions(self, two_block_matrix):
        graph = BipartiteGraph(two_block_matrix)
        assert graph.item_of_node(8) == 0
        with pytest.raises(DataError):
            graph.item_of_node(2)

    def test_split_nodes(self, two_block_matrix):
        graph = BipartiteGraph(two_block_matrix)
        community = graph.split_nodes([0, 1, 8, 9])
        np.testing.assert_array_equal(community.users, [0, 1])
        np.testing.assert_array_equal(community.items, [0, 1])
        assert community.size == 4

    def test_communities_from_labels_validation(self, two_block_matrix):
        graph = BipartiteGraph(two_block_matrix)
        with pytest.raises(DataError):
            graph.communities_from_labels([0, 1])


class TestModularity:
    def test_modularity_of_perfect_partition_positive(self, two_block_matrix):
        graph = BipartiteGraph(two_block_matrix)
        labels = np.array([0] * 4 + [1] * 4 + [0] * 3 + [1] * 3)
        assert modularity(graph, labels) > 0.3

    def test_modularity_of_single_community_is_zero(self, two_block_matrix):
        graph = BipartiteGraph(two_block_matrix)
        assert modularity(graph, np.zeros(graph.n_nodes)) == pytest.approx(0.0)

    def test_greedy_recovers_disjoint_blocks(self, two_block_matrix):
        detector = GreedyModularityCommunities().fit(two_block_matrix)
        communities = [c for c in detector.communities() if c.size > 1]
        assert len(communities) == 2
        user_sets = [set(c.users.tolist()) for c in communities]
        assert {0, 1, 2, 3} in user_sets
        assert {4, 5, 6, 7} in user_sets
        assert detector.modularity_ > 0.3

    def test_partition_is_non_overlapping(self, two_block_matrix):
        detector = GreedyModularityCommunities().fit(two_block_matrix)
        labels = detector.labels_
        assert labels is not None
        assert len(labels) == 14  # every node gets exactly one label

    def test_empty_graph_rejected(self):
        empty = InteractionMatrix(np.zeros((3, 4)))
        with pytest.raises(DataError):
            GreedyModularityCommunities().fit(empty)

    def test_access_before_fit_raises(self):
        with pytest.raises(DataError):
            GreedyModularityCommunities().communities()

    def test_min_communities_respected(self, two_block_matrix):
        detector = GreedyModularityCommunities(min_communities=4).fit(two_block_matrix)
        assert detector.n_communities >= 4


class TestBigClam:
    def test_fit_on_disjoint_blocks(self, two_block_matrix):
        model = BigClam(n_communities=2, max_iterations=60, random_state=0).fit(two_block_matrix)
        assert model.affiliations_ is not None
        assert model.affiliations_.shape == (14, 2)
        assert (model.affiliations_ >= 0).all()

    def test_log_likelihood_increases(self, two_block_matrix):
        model = BigClam(n_communities=2, max_iterations=40, random_state=0).fit(two_block_matrix)
        assert model.log_likelihoods_[-1] >= model.log_likelihoods_[0]

    def test_communities_do_not_mix_blocks(self, two_block_matrix):
        model = BigClam(n_communities=2, max_iterations=80, random_state=1).fit(two_block_matrix)
        communities = model.communities(threshold=0.4)
        assert len(communities) == 2
        assert all(community.size > 0 for community in communities)
        # Members of one community should come from a single planted block —
        # BIGCLAM may under-cover (the paper's point) but should not mix them.
        for community in communities:
            items = set(community.items.tolist())
            assert not (items & {0, 1, 2}) or not (items & {3, 4, 5})
            users = set(community.users.tolist())
            assert not (users & {0, 1, 2, 3}) or not (users & {4, 5, 6, 7})

    def test_overlap_allowed(self):
        planted = make_planted_coclusters(
            n_users=40, n_items=30, n_coclusters=2, users_per_cocluster=25,
            items_per_cocluster=20, within_density=0.9, background_density=0.0,
            random_state=0,
        )
        model = BigClam(n_communities=2, max_iterations=60, random_state=0).fit(planted.matrix)
        communities = model.communities()
        users_sets = [set(c.users.tolist()) for c in communities]
        # Overlapping affiliation model: membership counts may exceed n_users.
        assert sum(len(s) for s in users_sets) >= len(set().union(*users_sets))

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError):
            BigClam(n_communities=2).fit(InteractionMatrix(np.zeros((2, 2))))

    def test_access_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            BigClam(n_communities=2).communities()

    def test_deterministic_given_seed(self, two_block_matrix):
        first = BigClam(n_communities=2, max_iterations=10, random_state=3).fit(two_block_matrix)
        second = BigClam(n_communities=2, max_iterations=10, random_state=3).fit(two_block_matrix)
        np.testing.assert_allclose(first.affiliations_, second.affiliations_)


class TestFigure2Shape:
    """Qualitative reproduction of Figure 2 on the paper's toy example."""

    def test_non_overlapping_partition_cannot_express_overlap(self):
        toy = make_paper_toy_example()
        detector = GreedyModularityCommunities().fit(toy.matrix)
        # User 6 truly belongs to two co-clusters, but a partition gives it one label.
        labels = detector.labels_
        assert labels is not None
        assert len(np.unique(labels)) >= 2

    def test_community_baselines_miss_most_candidate_recommendations(self, paper_toy_model):
        from _paper import top1_recovered

        toy = make_paper_toy_example()
        pairs = toy.heldout_pairs

        def covered(user_sets, item_sets):
            blocks = [
                ({int(u) for u in users}, {int(i) for i in items})
                for users, items in zip(user_sets, item_sets)
            ]
            return sum(any(u in us and i in its for us, its in blocks) for u, i in pairs)

        modularity = GreedyModularityCommunities().fit(toy.matrix)
        bigclam = BigClam(n_communities=3, max_iterations=150, random_state=0).fit(toy.matrix)
        assert len(pairs) == 3
        # The paper reports the baselines identify only 1 of the 3; allow <= 1.
        assert covered(modularity.user_communities(), modularity.item_communities()) <= 1
        assert covered(bigclam.user_communities(), bigclam.item_communities()) <= 1
        # OCuLaR's ranked recommendations recover all three.
        assert top1_recovered(paper_toy_model, toy) == 3
