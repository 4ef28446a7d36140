"""Bipartite graph view of a one-class interaction matrix.

The paper's Figure 2 feeds the toy purchase matrix to two generic community
detection algorithms.  To do the same, the interaction matrix is interpreted
as a bipartite graph: one node per user, one node per item, and an edge for
every positive example.  Node indices are laid out as

    ``0 .. n_users - 1``                    user nodes
    ``n_users .. n_users + n_items - 1``    item nodes

:class:`BipartiteGraph` exposes the adjacency structure, degree information
and conversions between graph communities and user/item co-cluster sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro.data.interactions import InteractionMatrix
from repro.exceptions import DataError


@dataclass
class Community:
    """A community of graph nodes, split back into user and item members."""

    users: np.ndarray
    items: np.ndarray

    @property
    def size(self) -> int:
        """Total number of member nodes."""
        return len(self.users) + len(self.items)


class BipartiteGraph:
    """Undirected bipartite user-item graph built from positive examples."""

    def __init__(self, matrix: InteractionMatrix) -> None:
        self.matrix = matrix
        self.n_users = matrix.n_users
        self.n_items = matrix.n_items
        self.n_nodes = self.n_users + self.n_items
        csr = matrix.csr()
        upper_right = csr
        lower_left = sp.csr_matrix(csr.T)
        self._adjacency = sp.bmat(
            [
                [sp.csr_matrix((self.n_users, self.n_users)), upper_right],
                [lower_left, sp.csr_matrix((self.n_items, self.n_items))],
            ],
            format="csr",
        )

    # ------------------------------------------------------------------ #
    # Graph structure
    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        """Number of undirected edges (= number of positive examples)."""
        return self.matrix.nnz

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric adjacency matrix of shape ``(n_nodes, n_nodes)``."""
        return self._adjacency

    def degrees(self) -> np.ndarray:
        """Degree of every node."""
        return np.asarray(self._adjacency.sum(axis=1)).ravel()

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbours of ``node`` in the bipartite graph."""
        if not 0 <= node < self.n_nodes:
            raise DataError(f"node {node} out of range [0, {self.n_nodes})")
        start, stop = self._adjacency.indptr[node], self._adjacency.indptr[node + 1]
        return self._adjacency.indices[start:stop].copy()

    def edges(self) -> List[Tuple[int, int]]:
        """All undirected edges as (user-node, item-node) pairs."""
        return [
            (int(user), int(item) + self.n_users) for user, item in self.matrix.iter_pairs()
        ]

    # ------------------------------------------------------------------ #
    # Node index conversions
    # ------------------------------------------------------------------ #
    def is_user_node(self, node: int) -> bool:
        """Whether the graph node indexes a user."""
        return 0 <= node < self.n_users

    def item_of_node(self, node: int) -> int:
        """Map an item node back to its item index."""
        if not self.n_users <= node < self.n_nodes:
            raise DataError(f"node {node} is not an item node")
        return node - self.n_users

    def split_nodes(self, nodes: Iterable[int]) -> Community:
        """Split a set of graph nodes into user indices and item indices."""
        users: List[int] = []
        items: List[int] = []
        for node in nodes:
            if self.is_user_node(int(node)):
                users.append(int(node))
            else:
                items.append(self.item_of_node(int(node)))
        return Community(
            users=np.asarray(sorted(users), dtype=np.int64),
            items=np.asarray(sorted(items), dtype=np.int64),
        )

    def communities_from_labels(self, labels: Sequence[int]) -> List[Community]:
        """Convert a per-node label vector into :class:`Community` objects."""
        if len(labels) != self.n_nodes:
            raise DataError(
                f"labels has {len(labels)} entries but the graph has {self.n_nodes} nodes"
            )
        grouped: Dict[int, List[int]] = {}
        for node, label in enumerate(labels):
            grouped.setdefault(int(label), []).append(node)
        return [self.split_nodes(nodes) for _, nodes in sorted(grouped.items())]

    def communities_from_sets(self, node_sets: Iterable[Set[int]]) -> List[Community]:
        """Convert (possibly overlapping) node sets into :class:`Community` objects."""
        return [self.split_nodes(nodes) for nodes in node_sets]
