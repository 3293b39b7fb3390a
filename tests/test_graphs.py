import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from odyn.attention import build_communication_attention, init_attention_weights
from odyn.fixtures import toy_adjacency, toy_graph
from odyn.graphs import (
    _sorted_graph,
    degrees,
    from_edge_list,
    load_graph_json,
    load_matrix_csv,
    save_matrix_csv,
    sparse_laplacian,
)
from odyn.kernels import kernel_setup
from odyn.train import ATTENTION_DIM, make_sbm_task
from oracles import dense_adjacency, graph_product, laplacian, row_normalize, save_graph_json
from oracles import load_graph_json as oracle_load_graph_json

EPS = np.finfo(np.float64).eps


@st.composite
def graphs(draw, nonfinite=False):
    """Graphs with isolated nodes, trailing empty rows, self-loops or no edge at all.

    Half of them give every row at least one edge.  Weights lie in
    [1e-3, 10]; one in ten is zero, and with ``nonfinite`` one in fifty is
    inf or nan, set after the build (``from_edge_list`` rejects them).
    """
    n = draw(st.integers(0, 12))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.sets(st.tuples(node, node), max_size=3 * n)) if n else set()
    if draw(st.booleans()):
        pairs |= {(i, draw(node)) for i in range(n)}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(1e-3, 10.0, len(pairs))
    kind = rng.uniform(size=len(pairs))
    w[kind < 0.1] = 0.0
    edges = [(s, d, float(v)) for (s, d), v in zip(sorted(pairs), w)]
    draw(st.randoms()).shuffle(edges)
    g = from_edge_list(edges, n)
    if nonfinite:
        w = g.weights.copy()
        w[kind < 0.01], w[(kind >= 0.01) & (kind < 0.02)] = math.inf, math.nan
        g = replace(g, weights=w)
    return g


def states(g, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (g.n,) if data.draw(st.booleans()) else (g.n, data.draw(st.integers(1, 4)))
    return rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-3, 4, shape)


@st.composite
def skewed_graphs(draw):
    """One hub row of degree 9 or more among rows of degree 0 to 2.

    Then n * maxdeg > 2 * edges, so the product sorts the rows into one
    block per power-of-two degree class, and the hub's block holds that
    row alone.
    """
    n = draw(st.integers(12, 40))
    hub = draw(st.integers(0, n - 1))
    targets = draw(st.permutations(range(n)))[:draw(st.integers(9, n))]
    edges = [(hub, t) for t in targets]
    for i in range(n):
        if i != hub:
            edges += [(i, t) for t in draw(st.sets(st.integers(0, n - 1), max_size=2))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return from_edge_list([(s, d, float(w)) for (s, d), w in
                           zip(edges, rng.uniform(0.0, 2.0, len(edges)))], n)


def signed_states(g, data, stack=()):
    """``(n,)`` or ``(n, 1..8)`` states over many magnitudes, with zeros of both signs.

    With ``stack`` dimensions, a ``(*stack, n, 1..8)`` stack of such states.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if not stack and data.draw(st.booleans()):
        shape = (g.n,)
    else:
        shape = (*stack, g.n, data.draw(st.integers(1, 8)))
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    kind = rng.uniform(size=shape)
    x[kind < 0.1], x[(kind >= 0.1) & (kind < 0.15)] = -0.0, 0.0
    return x


def plan_blocks(g, x):
    """The ``(targets, weights)`` blocks of ``g``'s product plan for ``x``'s shape."""
    g @ x
    return g._plans[x.shape[1:]][0]


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
        np.testing.assert_allclose(dense_adjacency(g), toy_adjacency())

    def test_empty_graph_is_valid(self):
        g = from_edge_list([], 2)
        assert g.n == 2
        assert g.edge_count == 0
        assert g.to_edge_list() == []

    def test_single_self_loop(self):
        g = from_edge_list([(0, 0, 1.0)], 1)
        np.testing.assert_array_equal(dense_adjacency(g), [[1.0]])

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


class TestVectorizedBuild:
    @given(graphs(), st.data())
    def test_arrays_match_a_sorted_counting_oracle(self, g, data):
        edges = g.to_edge_list()
        data.draw(st.randoms()).shuffle(edges)
        rebuilt = from_edge_list(edges, g.n)
        triples = sorted(edges)
        counts = [sum(1 for s, _, _ in triples if s == i) for i in range(g.n)]
        np.testing.assert_array_equal(rebuilt.offsets, np.cumsum([0] + counts))
        np.testing.assert_array_equal(rebuilt.targets, [d for _, d, _ in triples])
        np.testing.assert_array_equal(rebuilt.weights, [w for _, _, w in triples])
        assert rebuilt.offsets.dtype == rebuilt.targets.dtype == np.int64
        assert rebuilt.weights.dtype == np.float64

    @given(st.integers(1, 30), st.data())
    def test_the_sort_matches_lexsort_on_multigraphs(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = data.draw(st.integers(0, 4 * n))
        rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
        # each weight names its entry, so the weights are the permutation
        g = _sorted_graph(n, rows, cols, np.arange(m, dtype=np.float64))
        order = np.lexsort((cols, rows))
        np.testing.assert_array_equal(g.weights, order)
        np.testing.assert_array_equal(g.targets, cols[order])
        np.testing.assert_array_equal(g.rows, rows[order])

    @pytest.mark.parametrize("edges", [[[0, 1], [1, 2], [2, 0]], [[0, 1, 1.0, 2.0]], [0, 1, 1.0]])
    def test_rows_that_are_not_triples_are_rejected(self, edges):
        with pytest.raises(ValueError, match="triples"):
            from_edge_list(edges, 3)

    def test_text_entry_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list([[0, "a", 1.0]], 3)

    def test_first_bad_edge_in_input_order_is_reported(self):
        with pytest.raises(ValueError, match=r"^negative weight -0\.5 on edge \(2, 1\)$"):
            from_edge_list([(2, 1, -0.5), (0, 7, 1.0)], 3)
        with pytest.raises(ValueError, match=r"^edge \(2, 7\) out of range for n=3$"):
            from_edge_list([(2, 7, -0.5), (0, 1, -1.0)], 3)
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            from_edge_list([(1, 2, 1.0), (0, 1, 0.5), (1, 0, 1.0), (0, 1, 0.25)], 3)

    def test_an_out_of_range_index_prints_short(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 1234567\) out of range for n=3$"):
            from_edge_list([(0, 1234567, 1.0)], 3)
        with pytest.raises(ValueError, match=r"^edge \(1e\+300, -1\) out of range for n=3$"):
            from_edge_list([(1e300, -1, 1.0)], 3)

    def test_non_finite_weights_are_rejected(self):
        for weight, text in ((math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")):
            with pytest.raises(ValueError, match=rf"^non-finite weight {text} on edge \(1, 2\)$"):
                from_edge_list([(0, 1, 1.0), (1, 2, weight)], 3)
        with pytest.raises(ValueError, match=r"^negative weight -1\.0 on edge \(0, 1\)$"):
            from_edge_list([(0, 1, -1.0), (1, 2, math.inf)], 3)

    def test_node_indices_that_are_not_integers_are_rejected(self):
        for index, text in ((1.9, "1.9"), (math.nan, "nan"), (math.inf, "inf")):
            message = rf"^edge \(0, {text}\) has a node index that is not an integer$"
            with pytest.raises(ValueError, match=message):
                from_edge_list([(0, 1, 1.0), (0.0, index, 1.0)], 2)
        # a whole number of any type reads as that index
        assert from_edge_list([(1.0, True, 2.0)], 2).to_edge_list() == [(1, 1, 2.0)]


class TestSegmentSumProduct:
    @settings(max_examples=200)
    @given(graphs(), st.data())
    def test_matches_the_dense_product(self, g, data):
        x = states(g, data)
        a = dense_adjacency(g)
        out = g @ x
        assert out.shape == x.shape
        bound = 4 * EPS * (np.abs(a) @ np.abs(x))
        assert np.all(np.abs(out - a @ x) <= bound)

    @given(graphs())
    def test_transpose_is_exact_and_built_once(self, g):
        np.testing.assert_array_equal(dense_adjacency(g.T), dense_adjacency(g).T)
        assert g.T is g.T
        for field in ("offsets", "targets", "weights", "rows"):
            back, orig = getattr(g.T.T, field), getattr(g, field)
            np.testing.assert_array_equal(back, orig)
            assert back.dtype == orig.dtype
        assert np.all(np.diff(g.T.targets)[np.diff(g.T.rows) == 0] > 0)

    def test_rows_without_edges_give_exact_zero(self):
        g = from_edge_list([(1, 1, 2.0), (1, 0, 3.0)], 4)
        x = np.array([[1.0, -1.0], [2.0, 5.0], [7.0, 7.0], [9.0, 9.0]])
        np.testing.assert_array_equal(g @ x, [[0.0, 0.0], [7.0, 7.0], [0.0, 0.0], [0.0, 0.0]])
        for n in (0, 3):
            out = from_edge_list([], n) @ np.ones((n, 2))
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, np.zeros((n, 2)))
        assert g.shape == (4, 4)

    def test_one_graph_acts_on_states_of_every_width(self):
        g = toy_graph()
        rng = np.random.default_rng(2)
        for shape in ((3,), (3, 2), (3, 5), (3,), (3, 1), (3, 2)):
            x = rng.standard_normal(shape)
            np.testing.assert_allclose(g @ x, toy_adjacency() @ x, rtol=0, atol=1e-15)

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ValueError, match="cannot act"):
            toy_graph() @ np.ones((4, 2))
        with pytest.raises(ValueError, match="cannot act"):
            toy_graph() @ np.ones((3, 2, 2))

    @settings(max_examples=200)
    @given(graphs(nonfinite=True))
    def test_row_normalized_matches_the_dense_oracle_or_its_error(self, g):
        a = dense_adjacency(g)
        try:
            expected = row_normalize(a)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{e}$"):
                g.row_normalized()
            return
        out = g.row_normalized()
        np.testing.assert_array_equal(out.offsets, g.offsets)
        np.testing.assert_array_equal(out.targets, g.targets)
        assert np.all(np.abs(dense_adjacency(out) - expected) <= 4 * EPS * expected)

    @settings(max_examples=100)
    @given(graphs(), st.data())
    def test_sparse_laplacian_matches_the_dense_one(self, g, data):
        x = states(g, data)
        lap = laplacian(g)
        sparse = sparse_laplacian(g)
        assert np.all(np.diff(sparse.targets)[np.diff(sparse.rows) == 0] > 0)
        bound = 4 * EPS * (np.abs(lap) @ np.ones(g.n))
        assert np.all(np.abs(dense_adjacency(sparse) - lap) <= bound[:, None])
        bound = 4 * EPS * (np.abs(lap) @ np.abs(x))
        assert np.all(np.abs(sparse @ x - lap @ x) <= bound)

    @given(st.one_of(graphs(), graphs().map(sparse_laplacian)))
    def test_row_sums_match_the_edge_order_oracle_bit_for_bit(self, g):
        sums = degrees(g)
        assert sums.dtype == np.float64 and sums.shape == (g.n,)
        assert np.array_equal(sums, graph_product(g, np.ones(g.n)))
        assert np.array_equal(np.signbit(sums), np.signbit(graph_product(g, np.ones(g.n))))

    def test_row_sums_cache_no_product_plan_on_the_graph(self):
        g = from_edge_list([(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5), (2, 2, 1.5)], 3)
        kernel_setup("bimp", g, np.ones((3, 2)))
        degrees(g)
        sparse_laplacian(g)
        g.row_normalized()
        assert g._plans == {}

    def test_row_normalized_errors(self):
        with pytest.raises(ValueError, match="^non-finite entries$"):
            g = from_edge_list([(0, 1, 1.0), (1, 0, 1.0)], 2)
            replace(g, weights=np.array([math.nan, 1.0])).row_normalized()
        with pytest.raises(ValueError, match="^row 1 has no positive entry$"):
            from_edge_list([(0, 1, 1.0)], 3).row_normalized()
        with pytest.raises(ValueError, match="^row 1 has no positive entry$"):
            from_edge_list([(0, 1, 1.0), (1, 0, 0.0)], 2).row_normalized()


class TestProductSummationOrder:
    """``g @ x`` adds each row's terms in CSR order from 0.0, bit for bit."""

    @settings(max_examples=300)
    @given(st.one_of(graphs(), graphs().map(sparse_laplacian), skewed_graphs()), st.data())
    def test_every_bit_matches_the_edge_order_oracle(self, g, data):
        x = signed_states(g, data)
        out, expected = g @ x, graph_product(g, x)
        assert out.shape == x.shape and out.dtype == np.float64
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    @settings(max_examples=100)
    @given(st.one_of(graphs(), skewed_graphs()), st.data())
    def test_a_stack_of_states_matches_the_product_of_each_item(self, g, data):
        # a stack acts along axis -2, as numpy's matmul does with a dense A
        lead = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
        stack = signed_states(g, data, tuple(lead))
        out = g @ stack
        assert out.shape == stack.shape and out.dtype == np.float64
        for index in np.ndindex(*lead):
            item = g @ stack[index]
            assert np.array_equal(out[index], item)
            assert np.array_equal(np.signbit(out[index]), np.signbit(item))

    @given(skewed_graphs(), st.data())
    def test_a_skewed_graph_takes_one_block_per_degree_class(self, g, data):
        x = signed_states(g, data)
        degree = np.diff(g.offsets)
        assert g.n * degree.max() > 2 * g.edge_count
        classes = np.unique(np.floor(np.log2(degree[degree > 0])))
        assert len(plan_blocks(g, x)) == len(classes) + (degree == 0).any()
        np.testing.assert_array_equal(g @ x, graph_product(g, x))

    def test_a_lone_deep_row_at_width_one_sums_in_order(self):
        # 1 + 2**-53 rounds back to 1, so an ordered sum stays at 1.0
        # where a pairwise one would collect the small terms first
        n = 12
        g = from_edge_list([(0, t, 1.0) for t in range(n)] + [(1, 2, 1.0)], n)
        x = np.r_[1.0, np.full(n - 1, 2.0**-53)]
        for state in (x, x[:, None]):
            assert len(plan_blocks(g, state)) == 3
            out = g @ state
            assert out.ravel()[0] == 1.0
            np.testing.assert_array_equal(out, graph_product(g, state))

    @pytest.mark.parametrize("shape", [(8193,), (8193, 1)])
    def test_a_uniform_graph_split_at_width_one_keeps_the_output_shape(self, shape):
        # 8193 rows of degree 16 take just over one block of terms at width one
        n, d = 8193, 16
        targets = np.sort((np.arange(n)[:, None] + 1 + np.arange(d)) % n, axis=1)
        g = from_edge_list([(i, int(t), 1.0 + (i * t) % 7) for i in range(n) for t in targets[i]], n)
        x = np.random.default_rng(9).standard_normal(shape)
        assert len(plan_blocks(g, x)) == 2
        out = g @ x
        assert out.shape == x.shape
        np.testing.assert_array_equal(out, graph_product(g, x))
        np.testing.assert_array_equal(degrees(g), graph_product(g, np.ones(n)))
        g.row_normalized()

    def test_a_block_beyond_the_byte_budget_splits_into_row_runs(self):
        # 1000 rows of 20 edges at 8 columns gather 1.28 MB of terms
        rng = np.random.default_rng(6)
        edges = [(i, int(t), float(w)) for i in range(1000)
                 for t, w in zip(rng.choice(1000, 20, replace=False), rng.uniform(0, 1, 20))]
        g = from_edge_list(edges, 1000)
        x = rng.standard_normal((1000, 8))
        blocks = plan_blocks(g, x)
        assert len(blocks) == 2 and g._plans[(8,)][2] is None
        np.testing.assert_array_equal(g @ x, graph_product(g, x))

    def test_negative_zero_terms_sum_to_positive_zero(self):
        g = sparse_laplacian(from_edge_list([(0, 1, 0.0), (1, 0, 2.0)], 2))
        x = np.array([[-0.0, 1.0], [0.0, -0.0]])
        out = g @ x
        np.testing.assert_array_equal(np.signbit(out), np.signbit(graph_product(g, x)))
        assert not np.signbit(out[0]).any()


class TestProductPlanMemory:
    """A plan holds at most two target cells per edge, plus guard rows."""

    @staticmethod
    def assert_bounded(g, x):
        blocks = plan_blocks(g, x)
        cells = sum(targets.size for targets, _ in blocks)
        guards = sum(targets.shape[0] for targets, _ in blocks)
        assert cells <= 2 * g.edge_count + guards
        for targets, weights in blocks:
            assert weights.shape == targets.shape + x.shape[1:]

    def test_a_star_of_ten_thousand_nodes(self):
        n = 10**4
        star = from_edge_list([(0, j, 1.0 / j) for j in range(1, n)], n)
        x = np.random.default_rng(5).standard_normal(n)
        self.assert_bounded(star, x)
        assert sum(t.size for t, _ in plan_blocks(star, x)) <= 2 * star.edge_count
        np.testing.assert_array_equal(star @ x, graph_product(star, x))
        self.assert_bounded(star.T, x)

    def test_the_sbm_attention_graph_and_its_transpose(self):
        task = make_sbm_task(500, 0.03, 0.004, noise=0.1, seed=0)
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, (task.graph.n, 2))
        aa = build_communication_attention(x0, init_attention_weights(ATTENTION_DIM, 2, seed=0),
                                           task.graph)
        for g in (aa, aa.T):
            self.assert_bounded(g, x0)
            np.testing.assert_array_equal(g @ x0, graph_product(g, x0))


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


# JSON spellings of numbers, each read to the json module's double: the
# integer -0 is 0, -0.0 keeps its sign, and an integer too long for a double
# rounds as Python's int-to-float conversion does
SPELLINGS = ("0", "-0", "-0.0", "0e0", "-0E-0", "1E+2", "1e-05", "2.5", "12", "-1", "1e400",
             "5e-324", "2.2250738585072014e-308", "123456789012345678901234567890",
             "0.1000000000000000055511151231257827021181583404541015625",
             "NaN", "Infinity", "-Infinity")
# one weight in four is special, and one special in three fails the graph
WEIGHTS = st.one_of(
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
    st.integers(0, 10**20),
    st.sampled_from([0.0, 1e300, 5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf,
                     *("#" + token for token in SPELLINGS)]),
)


@st.composite
def graph_texts(draw, weights=WEIGHTS, min_edges=0, max_n=8):
    """``json.dumps`` of a graph file in a drawn layout.

    Nodes may be isolated or the edge list empty; indices are ints or
    floats, and in one file in ten one of them is out of range or an edge
    repeats.  A weight drawn as ``"#token"`` is written as the bare token.
    """
    n = draw(st.integers(1 if min_edges else 0, max_n))
    node = st.integers(0, max(n - 1, 0))
    edge = st.tuples(st.one_of(node, node.map(float)), node, weights).map(list)
    edges = draw(st.lists(edge, min_size=min_edges, max_size=3 * n,
                          unique_by=lambda e: (int(e[0]), e[1]))) if n else []
    # hypothesis favours the ends of a range, so the one case in ten is 5
    if edges and draw(st.integers(0, 9)) == 5:
        edges += [[n, 0, 1.0]] if draw(st.booleans()) else [edges[0]]
    keys = draw(st.permutations(["n", "edges"]))
    text = json.dumps({key: {"n": n, "edges": edges}[key] for key in keys},
                      indent=draw(st.sampled_from([None, 0, 2, "\t"])),
                      separators=draw(st.sampled_from([(",", ":"), (", ", ": "),
                                                       (" ,\n", " :\t"), ("\r\n,", ":  ")])))
    return re.sub(r'"#([^"]*)"', r"\1", text)


def read_graph(reader, path):
    """n and the CSR arrays' bits, or the error text."""
    try:
        g = reader(path)
    except ValueError as e:
        return str(e)
    return g.n, g.offsets.tolist(), g.targets.tolist(), g.weights.view(np.uint64).tolist()


@st.composite
def matrix_files(draw, min_rows=1):
    """A drawn matrix and the layout of its ``save_matrix_csv`` file: blank
    lines (empty, or of spaces and tabs) between rows, and spaces or tabs
    around the commas.  Returns the matrix and a function of the file's
    text."""
    shape = (draw(st.integers(min_rows, 5)), draw(st.integers(1, 4)))
    # a written NaN is "nan", whatever its sign and payload
    values = st.one_of(st.floats(allow_nan=False), st.just(math.nan))
    m = np.array(draw(st.lists(values, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]))).reshape(shape)
    comma = draw(st.sampled_from([",", " , ", "\t,", ", "]))
    blank = st.sampled_from(["", "  ", "\t", " \t "])
    blanks = draw(st.lists(st.lists(blank, max_size=2), min_size=shape[0] + 1,
                           max_size=shape[0] + 1))

    def layout(text):
        rows = [line.replace(",", comma) for line in text.splitlines()]
        return "\n".join(sum(([*b, row] for b, row in zip(blanks, rows)), []) + blanks[-1]) + "\n"

    return m, layout


def write(tmp_path_factory, name, text):
    path = tmp_path_factory.mktemp("files") / name
    path.write_text(text)
    return path


def write_matrix(tmp_path_factory, case):
    m, layout = case
    path = tmp_path_factory.mktemp("files") / "m.csv"
    save_matrix_csv(m, path)
    path.write_text(layout(path.read_text()))
    return path


class TestFileFormats:
    def test_graph_json_roundtrip(self, tmp_path):
        g = toy_graph()
        path = tmp_path / "g.json"
        save_graph_json(g, path)
        g2 = load_graph_json(path)
        assert g2.to_edge_list() == g.to_edge_list()
        assert g2.n == g.n

    @pytest.mark.parametrize("token", SPELLINGS)
    def test_each_spelling_of_a_weight_reads_as_json_reads_it(self, tmp_path, token):
        path = tmp_path / "g.json"
        path.write_text(f'{{"n": 2, "edges": [[0, 1, {token}], [1, 0, 1]]}}')
        assert read_graph(load_graph_json, path) == read_graph(oracle_load_graph_json, path)

    @settings(max_examples=150, deadline=None)
    @given(graph_texts())
    def test_graph_files_read_as_the_json_oracle_reads_them(self, tmp_path_factory, text):
        path = write(tmp_path_factory, "g.json", text)
        assert read_graph(load_graph_json, path) == read_graph(oracle_load_graph_json, path)

    @settings(max_examples=200, deadline=None)
    @given(graph_texts(weights=st.floats(0.0, 1.0), min_edges=1, max_n=9), st.data())
    def test_a_broken_graph_file_raises_one_line_naming_it(self, tmp_path_factory, text, data):
        path = write(tmp_path_factory, "g.json", mutate(text, GRAPH_MUTATIONS, data))
        assert_one_line_error(load_graph_json, path)

    def test_matrix_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 3))
        path = tmp_path / "m.csv"
        save_matrix_csv(m, path)
        np.testing.assert_array_equal(load_matrix_csv(path), m)

    @settings(max_examples=100, deadline=None)
    @given(matrix_files())
    def test_matrix_files_read_back_bit_for_bit(self, tmp_path_factory, case):
        m, _ = case
        got = load_matrix_csv(write_matrix(tmp_path_factory, case))
        assert got.shape == m.shape
        assert got.view(np.uint64).tolist() == m.view(np.uint64).tolist()

    @settings(max_examples=100, deadline=None)
    @given(matrix_files(min_rows=2), st.data())
    def test_a_broken_matrix_file_raises_one_line_naming_it(self, tmp_path_factory, case, data):
        path = write_matrix(tmp_path_factory, case)
        path.write_text(mutate(path.read_text(), MATRIX_MUTATIONS, data))
        assert_one_line_error(load_matrix_csv, path)

    def test_empty_matrix_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_matrix_csv(path)

    def test_matrix_file_of_blank_lines_rejected_as_empty(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(" \n\n\t\n")
        with pytest.raises(ValueError, match="empty"):
            load_matrix_csv(path)

    def test_graph_reader_peak_memory_stays_near_the_file_size(self, tmp_path):
        # the sim-sparse-3k graph: 3000 nodes of out-degree 16, a 1.6 MB
        # file; the json reader peaked at 11.9 MB here, its objects alone
        # about 7x the file
        rng = np.random.default_rng(0)
        edges = []
        for i in range(3000):
            targets = rng.choice(2999, size=16, replace=False)
            targets[targets >= i] += 1
            edges += [[i, int(t), float(w)] for t, w in zip(targets, rng.uniform(0.1, 1.0, 16))]
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 3000, "edges": edges}))
        del edges
        tracemalloc.start()
        try:
            g = load_graph_json(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count == 48000
        assert peak < 8e6

    @pytest.mark.parametrize("text, reason", [
        ("1,0,0\n\n0,1\n", "the number of columns changed from 3 to 2"),
        ("1,0\n \t\n\n0,x\n", "could not convert string 'x' to float64"),
    ])
    def test_a_matrix_file_error_names_no_row(self, tmp_path, text, reason):
        # numpy's row numbers leave the blank lines out, so they would name
        # a line before the faulty one
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as caught:
            load_matrix_csv(path)
        assert str(caught.value) == f"matrix file {path}: {reason}"

    def test_matrix_reader_peak_memory_stays_near_the_matrix_size(self, tmp_path):
        # a reader of one float object per number peaked at 1.6 MB here,
        # 8x the matrix
        m = np.random.default_rng(0).uniform(-1.0, 1.0, (3000, 8))
        save_matrix_csv(m, tmp_path / "m.csv")
        tracemalloc.start()
        try:
            got = load_matrix_csv(tmp_path / "m.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, m)
        assert peak < 3 * m.nbytes


def _space_inside(site, data):
    cut = data.draw(st.integers(1, len(site) - 1))
    return site[:cut] + data.draw(st.sampled_from([" ", "\n", "\t"])) + site[cut:]


def _drop(site, data):
    return ""


def _double(site, data):
    return site * 2


# Mutations that take a file out of its grammar: each kind names the
# pattern whose matches are the sites it may hit, and what it puts there.
NUMBER = r"-?[0-9][0-9.eE+-]*"
GRAPH_MUTATIONS = {
    "drop bracket": (r"[\[\]{}]", _drop),
    "double bracket": (r"[\[\]{}]", _double),
    "drop comma": (r",", _drop),
    "double comma": (r",", _double),
    # a one-digit number: an index below 10, or n
    "drop digit": (r"(?<![\w.+-])[0-9](?![\w.])", _drop),
    "double leading zero": (r"(?<![\w.+-])0", _double),
    "quote number": (NUMBER, lambda site, data: f'"{site}"'),
    "boolean": (NUMBER, lambda site, data: data.draw(st.sampled_from(["true", "false", "null"]))),
    "space in number": (r"[0-9][0-9.eE+-]+", _space_inside),
    "pair": (r",[^,\[\]]*\]", lambda site, data: "]"),
    "quad": (r"\](?=\s*(,|\]))", lambda site, data: ", 1" + site),
    "extra key": (r"\{", lambda site, data: '{"extra": 1, '),
    "trailing text": (r"\Z", lambda site, data: data.draw(
        st.sampled_from(["x", "0", "{}", "[]", ",", '"n"', "]", "}"]))),
}
MATRIX_MUTATIONS = {
    "ragged row": (r"$(?<=\S)", lambda site, data: ", 1"),
    "empty field": (r",", _double),
    "trailing comma": (r"$(?<=\S)", lambda site, data: ","),
    "quote number": (r"[0-9a-z.+-]+", lambda site, data: f'"{site}"'),
    "space in number": (r"[0-9][0-9.e+-]+", _space_inside),
    "letter": (r"[0-9]$", lambda site, data: site + "x"),
}


def mutate(text, mutations, data):
    """``text`` with one site broken by a drawn kind of ``mutations``."""
    pattern, replace = mutations[data.draw(st.sampled_from(sorted(mutations)))]
    sites = [m.span() for m in re.finditer(pattern, text, re.MULTILINE)]
    assume(sites)
    start, stop = data.draw(st.sampled_from(sites))
    return text[:start] + replace(text[start:stop], data) + text[stop:]


def assert_one_line_error(reader, path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as caught:
            reader(path)
    message = str(caught.value)
    assert "\n" not in message and str(path) in message
