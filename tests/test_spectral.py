import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odyn.errors import NumericalError
from odyn.fixtures import random_row_stochastic, toy_adjacency, toy_initial_state
from odyn.graphs import from_edge_list
from odyn.spectral import (
    KroneckerOperator,
    power_iteration,
    symmetric_eigendecomposition,
    unvec,
    vec,
)
from oracles import laplacian


class TestKronMatvec:
    def test_identity_option_factor(self):
        # A zero option coupling makes that factor the identity.
        aa = toy_adjacency()
        op = KroneckerOperator.from_adjacency(aa, np.zeros((2, 2)))
        x0 = np.hstack([toy_initial_state()[:, :2]])
        out = op.matvec(vec(x0))
        expected = vec((aa + np.eye(3)) @ x0)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_ones_vector_maps_to_four(self):
        rng = np.random.default_rng(1)
        aa = random_row_stochastic(4, rng, zero_diagonal=False)
        ao = random_row_stochastic(3, rng, zero_diagonal=False)
        op = KroneckerOperator.from_adjacency(aa, ao)
        ones = np.ones(op.dim)
        # Row sums of both factors are 2, so the product operator maps
        # the constant vector to 4 times itself; confirm by summation.
        assert abs((aa + np.eye(4)).sum(axis=1).max() - 2.0) < 1e-12
        np.testing.assert_allclose(op.matvec(ones), 4.0 * ones, atol=1e-12)

    @settings(max_examples=40)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_materialized_oracle_all_small_sizes(self, na, no, seed):
        rng = np.random.default_rng(seed)
        aa = rng.standard_normal((na, na))
        ao = rng.standard_normal((no, no))
        op = KroneckerOperator.from_adjacency(aa, ao)
        x = rng.standard_normal(na * no)
        dense = np.kron(ao + np.eye(no), aa + np.eye(na))
        np.testing.assert_allclose(op.matvec(x), dense @ x, atol=1e-12)

    def test_dimension_mismatch(self):
        op = KroneckerOperator.from_adjacency(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="length 4"):
            op.matvec(np.ones(5))

    def test_vec_unvec_roundtrip(self):
        m = toy_initial_state()
        np.testing.assert_array_equal(unvec(vec(m), 3, 3), m)


class TestPowerIteration:
    def test_identity_operator(self):
        res = power_iteration(lambda v: v, dim=3, tol=1e-12)
        assert res.eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert res.residual <= 1e-12

    def test_toy_communication_with_swap_option(self):
        aa = toy_adjacency()
        ao = np.array([[0.0, 1.0], [1.0, 0.0]])
        op = KroneckerOperator.from_adjacency(aa, ao)
        res = power_iteration(op.matvec, op.dim, tol=1e-10)
        assert res.eigenvalue == pytest.approx(4.0, abs=1e-8)

    def test_ten_random_stochastic_factor_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            aa = random_row_stochastic(int(rng.integers(2, 6)), rng, zero_diagonal=False)
            ao = random_row_stochastic(int(rng.integers(2, 6)), rng, zero_diagonal=False)
            op = KroneckerOperator.from_adjacency(aa, ao)
            res = power_iteration(op.matvec, op.dim, tol=1e-10)
            assert res.eigenvalue == pytest.approx(4.0, abs=1e-8)

    def test_random_restart_covers_orthogonal_start(self):
        # The constant direction is annihilated; the leading eigenvector
        # only appears after the seeded random restart.
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        res = power_iteration(lambda v: m @ v, dim=2, tol=1e-9)
        assert res.eigenvalue == pytest.approx(2.0, abs=1e-8)

    def test_nonconvergence_raises(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError, match="power iteration"):
            power_iteration(lambda v: rot @ v, dim=2, tol=1e-12, max_iter=60)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            power_iteration(lambda v: v, dim=0)
        with pytest.raises(ValueError):
            power_iteration(lambda v: v, dim=2, tol=0.0)


class TestSymmetricEigendecomposition:
    def test_two_node_laplacian(self):
        vals, vecs = symmetric_eigendecomposition(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(vals, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(2), atol=1e-12)

    def test_path_graph_kernel_mode(self):
        edges = []
        for i in range(4):
            edges += [(i, i + 1, 1.0), (i + 1, i, 1.0)]
        lap = laplacian(from_edge_list(edges, 5))
        vals, vecs = symmetric_eigendecomposition(lap)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(vecs[:, 0]), np.ones(5) / np.sqrt(5), atol=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 6))
        m = (m + m.T) / 2
        vals, vecs = symmetric_eigendecomposition(m)
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.max(np.abs(recon - m)) <= 1e-8
        assert np.all(np.diff(vals) >= -1e-12)

    def test_laplacian_psd(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, (6, 6))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        lap = np.diag(a.sum(axis=1)) - a
        vals, _ = symmetric_eigendecomposition(lap)
        assert np.all(vals >= -1e-10)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            symmetric_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))
