import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odyn.fixtures import toy_adjacency, toy_graph
from odyn.graphs import (
    degrees,
    from_edge_list,
    laplacian,
    load_graph_json,
    load_matrix_csv,
    row_normalize,
    save_graph_json,
    save_matrix_csv,
)

TOY_EDGES = [
    (0, 1, 0.43),
    (0, 2, 0.57),
    (1, 0, 0.64),
    (1, 2, 0.36),
    (2, 0, 0.70),
    (2, 1, 0.30),
]


class TestFromEdgeList:
    def test_toy_graph(self):
        g = from_edge_list(TOY_EDGES, 3)
        assert g.n == 3
        assert g.edge_count == 6
        np.testing.assert_allclose(g.dense_adjacency(), toy_adjacency())

    def test_empty_graph_is_valid(self):
        g = from_edge_list([], 2)
        assert g.n == 2
        assert g.edge_count == 0
        assert g.to_edge_list() == []

    def test_single_self_loop(self):
        g = from_edge_list([(0, 0, 1.0)], 1)
        np.testing.assert_array_equal(g.dense_adjacency(), [[1.0]])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list([(0, 3, 1.0)], 3)
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list([(-1, 0, 1.0)], 3)

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="negative weight"):
            from_edge_list([(0, 1, -0.5)], 2)

    def test_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            from_edge_list([(0, 1, 0.5), (0, 1, 0.5)], 2)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 5),
                st.floats(0.0, 10.0, allow_nan=False),
            ),
            max_size=20,
        )
    )
    def test_roundtrip_identity(self, raw):
        seen = set()
        edges = []
        for s, d, w in raw:
            if (s, d) not in seen:
                seen.add((s, d))
                edges.append((s, d, w))
        edges.sort(key=lambda e: (e[0], e[1]))
        g = from_edge_list(edges, 6)
        assert g.to_edge_list() == [(s, d, float(w)) for s, d, w in edges]


class TestRowNormalize:
    def test_toy_already_stochastic(self):
        a = toy_adjacency()
        np.testing.assert_allclose(row_normalize(a), a, atol=1e-15)

    def test_forced_by_definition(self):
        out = row_normalize(np.array([[2.0, 2.0], [0.0, 5.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.0, 1.0]])

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="no positive entry"):
            row_normalize(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            row_normalize(np.array([[1.0, -0.1]]))

    def test_random_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(0.1, 2.0, size=(5, 5))
        out = row_normalize(m)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=50)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_rows_sum_to_one_and_nonnegative(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.0, 3.0, size=(n, n)) + np.eye(n) * 0.5
        out = row_normalize(m)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(out == 0, m == 0)


class TestLaplacian:
    def test_toy_is_identity_minus_a(self):
        g = toy_graph()
        lap = laplacian(g)
        np.testing.assert_allclose(lap, np.eye(3) - toy_adjacency(), atol=1e-15)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_empty_graph_gives_zero(self):
        g = from_edge_list([], 3)
        np.testing.assert_array_equal(laplacian(g), np.zeros((3, 3)))

    def test_two_node_symmetric(self):
        g = from_edge_list([(0, 1, 1.0), (1, 0, 1.0)], 2)
        np.testing.assert_allclose(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    @settings(max_examples=30)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_rows_sum_to_zero(self, n, seed):
        rng = np.random.default_rng(seed)
        edges = [
            (i, j, float(rng.uniform(0, 2)))
            for i in range(n)
            for j in range(n)
            if i != j and rng.uniform() < 0.6
        ]
        g = from_edge_list(edges, n)
        np.testing.assert_allclose(laplacian(g) @ np.ones(n), 0.0, atol=1e-12)

    def test_degrees_match_row_sums(self):
        g = toy_graph()
        np.testing.assert_allclose(degrees(g), toy_adjacency().sum(axis=1))


class TestFileFormats:
    def test_graph_json_roundtrip(self, tmp_path):
        g = toy_graph()
        path = tmp_path / "g.json"
        save_graph_json(g, path)
        g2 = load_graph_json(path)
        assert g2.to_edge_list() == g.to_edge_list()
        assert g2.n == g.n

    def test_matrix_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 3))
        path = tmp_path / "m.csv"
        save_matrix_csv(m, path)
        np.testing.assert_array_equal(load_matrix_csv(path), m)

    def test_empty_matrix_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_matrix_csv(path)
