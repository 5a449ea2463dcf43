"""Tests for the core Graph type."""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph


class TestConstruction:
    def test_basic(self, triangle):
        assert triangle.n_vertices == 3
        assert triangle.n_edges == 3

    def test_rejects_rectangular(self):
        with pytest.raises(GraphError, match="square"):
            Graph(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(GraphError, match="symmetric"):
            Graph([[0, 1], [0, 0]])

    def test_rejects_self_loops(self):
        with pytest.raises(GraphError, match="loops"):
            Graph([[1.0, 0.0], [0.0, 0.0]])

    def test_rejects_negative_weights(self):
        with pytest.raises(GraphError, match="non-negative"):
            Graph([[0, -1.0], [-1.0, 0]])

    def test_rejects_nan(self):
        with pytest.raises(GraphError, match="non-finite"):
            Graph([[0, np.nan], [np.nan, 0]])

    def test_rejects_wrong_label_length(self):
        with pytest.raises(GraphError, match="labels"):
            Graph(np.zeros((3, 3)), labels=[1, 2])

    def test_adjacency_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.adjacency[0, 1] = 5.0

    def test_empty_graph(self):
        g = Graph(np.zeros((0, 0)))
        assert g.n_vertices == 0 and g.n_edges == 0

    def test_equality_and_hash(self, triangle):
        other = gen.cycle_graph(3)
        assert triangle == other
        assert hash(triangle) == hash(other)

    def test_inequality_on_labels(self, triangle):
        labelled = triangle.with_labels([0, 1, 2])
        assert triangle != labelled

    def test_repr(self, triangle):
        assert "n=3" in repr(triangle)


class TestDerivedQuantities:
    def test_degrees(self, star5):
        degrees = star5.degrees()
        assert degrees[0] == 4.0
        assert np.all(degrees[1:] == 1.0)

    def test_weighted_vs_unweighted_degrees(self):
        g = Graph([[0, 2.0], [2.0, 0]])
        assert g.degrees()[0] == 2.0
        assert g.unweighted_degrees()[0] == 1.0
        assert g.is_weighted

    def test_laplacian_row_sums_zero(self, petersen_like):
        lap = petersen_like.laplacian()
        assert np.allclose(lap.sum(axis=1), 0.0)

    def test_laplacian_psd(self, petersen_like):
        values = np.linalg.eigvalsh(petersen_like.laplacian())
        assert values.min() >= -1e-10

    def test_shortest_paths_path_graph(self, path4):
        dist = path4.shortest_path_lengths()
        assert dist[0, 3] == 3
        assert dist[1, 2] == 1
        assert np.all(np.diag(dist) == 0)

    def test_shortest_paths_disconnected(self):
        g = Graph(np.zeros((3, 3)))
        dist = g.shortest_path_lengths()
        assert dist[0, 1] == -1

    def test_shortest_paths_symmetric(self, petersen_like):
        dist = petersen_like.shortest_path_lengths()
        assert np.array_equal(dist, dist.T)

    def test_shortest_paths_ignore_weights(self):
        # 0 -(5.0)- 1 -(0.25)- 2, plus 3 -(2.0)- 4 and isolated vertex 5.
        adjacency = np.zeros((6, 6))
        for u, v, w in ((0, 1, 5.0), (1, 2, 0.25), (3, 4, 2.0)):
            adjacency[u, v] = adjacency[v, u] = w
        dist = Graph(adjacency).shortest_path_lengths()
        assert dist[0].tolist() == [0, 1, 2, -1, -1, -1]
        assert dist[3].tolist() == [-1, -1, -1, 0, 1, -1]
        assert dist[5].tolist() == [-1, -1, -1, -1, -1, 0]

    def test_diameter(self, path4, petersen_like):
        assert path4.diameter() == 3
        assert petersen_like.diameter() == 2

    def test_diameter_disconnected(self):
        assert Graph(np.zeros((2, 2))).diameter() == -1

    def test_neighbors(self, star5):
        assert star5.neighbors(0) == [1, 2, 3, 4]
        assert star5.neighbors(3) == [0]

    def test_neighbors_out_of_range(self, star5):
        with pytest.raises(GraphError):
            star5.neighbors(17)

    def test_effective_labels_fallback_to_degrees(self, star5):
        labels = star5.effective_labels()
        assert labels[0] == 4 and labels[1] == 1

    def test_effective_labels_uses_labels(self, labelled_graph):
        assert labelled_graph.effective_labels().tolist() == [0, 1, 1, 2]


def reference_hops(adjacency: np.ndarray) -> np.ndarray:
    """Plain per-source BFS over the edges with non-zero weight."""
    n = adjacency.shape[0]
    dist = np.full((n, n), -1, dtype=np.int64)
    for source in range(n):
        dist[source, source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(adjacency[u]):
                if dist[source, v] < 0:
                    dist[source, v] = dist[source, u] + 1
                    queue.append(v)
    return dist


@st.composite
def weighted_adjacency(draw):
    """Sparse symmetric weighted adjacency; zeros dominate, so isolated
    vertices and several components are common."""
    n = draw(st.integers(0, 10))
    weights = st.sampled_from([0.0, 0.0, 0.0, 1.0, 0.5, 3.25])
    entries = draw(st.lists(weights, min_size=n * n, max_size=n * n))
    upper = np.triu(np.asarray(entries).reshape(n, n), k=1)
    return upper + upper.T


@settings(max_examples=60, deadline=None)
@given(adjacency=weighted_adjacency())
@example(adjacency=np.zeros((0, 0)))
@example(adjacency=np.zeros((1, 1)))
@example(adjacency=np.zeros((4, 4)))
def test_shortest_paths_match_reference_bfs(adjacency):
    graph = Graph(adjacency)
    dist = graph.shortest_path_lengths()
    assert dist.dtype == np.int64
    assert dist.shape == adjacency.shape
    assert not dist.flags.writeable
    assert np.array_equal(dist, reference_hops(adjacency))
    assert graph.shortest_path_lengths() is dist


class TestStructureOps:
    def test_edges_iteration(self, triangle):
        edges = sorted((u, v) for u, v, _ in triangle.edges())
        assert edges == [(0, 1), (0, 2), (1, 2)]

    def test_subgraph(self, petersen_like):
        sub = petersen_like.subgraph([0, 1, 2])
        assert sub.n_vertices == 3
        assert sub.n_edges == 2  # 0-1 and 1-2 on the outer cycle

    def test_subgraph_rejects_duplicates(self, triangle):
        with pytest.raises(GraphError, match="unique"):
            triangle.subgraph([0, 0])

    def test_subgraph_keeps_labels(self, labelled_graph):
        sub = labelled_graph.subgraph([1, 3])
        assert sub.labels.tolist() == [1, 2]

    def test_expansion_subgraph_layers(self, path4):
        assert path4.expansion_subgraph(0, 1).n_vertices == 2
        assert path4.expansion_subgraph(0, 2).n_vertices == 3
        assert path4.expansion_subgraph(0, 99).n_vertices == 4

    def test_expansion_subgraph_rejects_negative_layer(self, path4):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            path4.expansion_subgraph(0, -1)

    def test_permuted_isomorphic_invariants(self, petersen_like):
        perm = np.random.default_rng(0).permutation(10)
        permuted = petersen_like.permuted(perm)
        assert permuted.n_edges == petersen_like.n_edges
        assert sorted(permuted.degrees()) == sorted(petersen_like.degrees())

    def test_permuted_rejects_bad_permutation(self, triangle):
        with pytest.raises(GraphError):
            triangle.permuted([0, 0, 1])

    def test_connected_components(self):
        adjacency = np.zeros((5, 5))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        adjacency[2, 3] = adjacency[3, 2] = 1.0
        g = Graph(adjacency)
        components = g.connected_components()
        assert [len(c) for c in components] == [2, 2, 1]

    def test_largest_component(self):
        adjacency = np.zeros((6, 6))
        for u, v in [(0, 1), (1, 2), (3, 4)]:
            adjacency[u, v] = adjacency[v, u] = 1.0
        g = Graph(adjacency)
        assert g.largest_component().n_vertices == 3

    def test_is_connected(self, petersen_like):
        assert petersen_like.is_connected()
        assert not Graph(np.zeros((2, 2))).is_connected()


class TestNetworkxInterop:
    def test_roundtrip(self, petersen_like):
        back = Graph.from_networkx(petersen_like.to_networkx())
        assert back == petersen_like

    def test_labels_roundtrip(self, labelled_graph):
        back = Graph.from_networkx(labelled_graph.to_networkx())
        assert back.labels.tolist() == labelled_graph.labels.tolist()

    def test_networkx_validation(self, petersen_like):
        import networkx as nx

        nx_graph = petersen_like.to_networkx()
        assert nx.is_connected(nx_graph)
        assert nx_graph.number_of_edges() == petersen_like.n_edges
