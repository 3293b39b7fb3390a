import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odyn.attention import (
    AttentionWeights,
    build_communication_attention,
    build_option_attention,
    init_attention_weights,
)
from odyn.fixtures import toy_graph, toy_initial_state
from odyn.graphs import from_edge_list
from oracles import dense_adjacency


def identity_weights(dim, d_k=1.0):
    eye = np.eye(dim)
    return AttentionWeights(w_k=eye, w_q=eye, d_k=d_k)


def fully_connected(n):
    return from_edge_list(
        [(i, j, 1.0) for i in range(n) for j in range(n) if i != j], n
    )


def softmax_rows(scores):
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def dense_masked_attention(x, w, g):
    """n-by-n oracle: masked softmax of the dense scores."""
    mask = dense_adjacency(g) > 0
    np.fill_diagonal(mask, True)
    scores = np.where(mask, (x @ w.w_k.T) @ (x @ w.w_q.T).T / w.d_k, -np.inf)
    e = np.where(mask, np.exp(scores - scores.max(axis=1, keepdims=True)), 0.0)
    return e / e.sum(axis=1, keepdims=True)


@st.composite
def graphs_with_loops_and_zero_edges(draw):
    """Graphs with isolated nodes, self-loops and zero-weight edges."""
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    pairs = sorted(draw(st.sets(st.tuples(node, node), max_size=3 * n)))
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=len(pairs),
                            max_size=len(pairs)))
    return from_edge_list([(s, d, v) for (s, d), v in zip(pairs, weights)], n)


class TestCommunicationAttention:
    def test_identity_weights_hand_oracle(self):
        # identity projections, unit temperature, identity state:
        # the score matrix is x x^T = I, softmax'd per row.
        g = fully_connected(3)
        x = np.eye(3)
        out = dense_adjacency(build_communication_attention(x, identity_weights(3), g))
        np.testing.assert_allclose(out, softmax_rows(np.eye(3)), atol=1e-12)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_sum_to_one(self):
        g = toy_graph()
        x = toy_initial_state()
        w = init_attention_weights(4, 3, seed=0)
        out = dense_adjacency(build_communication_attention(x, w, g))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_support_masked_to_edges_and_self_loops(self):
        g = from_edge_list([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], 3)
        w = init_attention_weights(4, 3, seed=3)
        out = dense_adjacency(build_communication_attention(toy_initial_state(), w, g))
        allowed = (dense_adjacency(g) > 0) | np.eye(3, dtype=bool)
        assert np.all(out[~allowed] == 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_isolated_node_gets_self_loop_row(self):
        g = from_edge_list([(0, 1, 1.0)], 3)
        w = init_attention_weights(4, 3, seed=4)
        out = dense_adjacency(build_communication_attention(toy_initial_state(), w, g))
        np.testing.assert_allclose(out[2], [0.0, 0.0, 1.0], atol=1e-12)

    def test_shape_mismatch(self):
        g = toy_graph()
        with pytest.raises(ValueError, match="feature dim"):
            build_communication_attention(
                toy_initial_state(), init_attention_weights(4, 5, seed=0), g
            )
        with pytest.raises(ValueError, match="rows"):
            build_communication_attention(
                np.zeros((2, 3)), init_attention_weights(4, 3, seed=0), g
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_row_stochastic_for_random_inputs(self, n, n_opts, seed):
        rng = np.random.default_rng(seed)
        g = fully_connected(n)
        x = rng.standard_normal((n, n_opts))
        w = init_attention_weights(3, n_opts, seed=seed)
        out = dense_adjacency(build_communication_attention(x, w, g))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0) and np.all(out <= 1 + 1e-15)


    @settings(max_examples=200, deadline=None)
    @given(graphs_with_loops_and_zero_edges(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_edge_softmax_matches_the_dense_masked_oracle(self, g, n_opts, seed):
        x = np.random.default_rng(seed).standard_normal((g.n, n_opts))
        w = init_attention_weights(4, n_opts, seed=seed)
        out = build_communication_attention(x, w, g)
        # support: positive edges and one self-loop per node, rows in target order
        assert np.all(out.rows[1:] >= out.rows[:-1])
        assert np.all(np.diff(out.targets)[np.diff(out.rows) == 0] > 0)
        # the two differ only in rounding: a 4-term dot product per score (BLAS
        # may fuse its multiply-adds), which exp scales by the score, and the
        # order of each row sum; 3 ulp is typical, 7 the worst of 23,000 draws
        np.testing.assert_array_max_ulp(dense_adjacency(out), dense_masked_attention(x, w, g),
                                        maxulp=16)


class TestOptionAttention:
    def test_single_option(self):
        x = np.array([[0.3], [0.7]])
        out = build_option_attention(x, identity_weights(2))
        np.testing.assert_array_equal(out, [[1.0]])

    def test_identical_columns_give_uniform(self):
        col = np.array([0.1, 0.5, 0.9])
        x = np.column_stack([col, col, col])
        out = build_option_attention(x, init_attention_weights(4, 3, seed=5))
        np.testing.assert_allclose(out, np.full((3, 3), 1.0 / 3.0), atol=1e-12)

    def test_identity_weights_hand_oracle(self):
        x = toy_initial_state()
        out = build_option_attention(x, identity_weights(3))
        cols = x.T
        np.testing.assert_allclose(out, softmax_rows(cols @ cols.T), atol=1e-12)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="feature dim"):
            build_option_attention(np.zeros((4, 2)), init_attention_weights(3, 5, seed=0))


class TestWeights:
    def test_init_bounds_and_determinism(self):
        w = init_attention_weights(4, 6, seed=11)
        assert w.attention_dim == 4 and w.feature_dim == 6
        bound = 1.0 / np.sqrt(6)
        for m in (w.w_k, w.w_q):
            assert np.all(np.abs(m) <= bound)
        w2 = init_attention_weights(4, 6, seed=11)
        np.testing.assert_array_equal(w.w_k, w2.w_k)
        np.testing.assert_array_equal(w.w_q, w2.w_q)

    def test_keys_are_drawn_before_queries(self):
        w = init_attention_weights(4, 6, seed=11)
        draws = np.random.default_rng(11).uniform(-1.0 / np.sqrt(6), 1.0 / np.sqrt(6), (8, 6))
        np.testing.assert_array_equal(w.w_k, draws[:4])
        np.testing.assert_array_equal(w.w_q, draws[4:])

    def test_default_temperature_is_attention_dim(self):
        assert init_attention_weights(8, 3, seed=0).d_k == 8.0

    def test_invalid_temperature(self):
        with pytest.raises(ValueError, match="d_k"):
            AttentionWeights(w_k=np.eye(2), w_q=np.eye(2), d_k=0.0)

    def test_key_and_query_shapes_must_match(self):
        with pytest.raises(ValueError, match="share one shape"):
            AttentionWeights(w_k=np.eye(2), w_q=np.eye(3), d_k=1.0)
