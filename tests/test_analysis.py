import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odyn import analysis
from odyn.analysis import (
    bifurcation_csv,
    bifurcation_sweep,
    dirichlet_energy,
    grandpp_closed_form,
    opinion_diameter,
    power_iteration,
    reduced_equilibria,
    scrambling_check,
)
from odyn.errors import NumericalError
from odyn.fixtures import (
    random_row_stochastic,
    toy_adjacency,
    toy_graph,
    toy_initial_state,
)
from odyn.graphs import from_edge_list
from odyn.integrate import euler_integrate
from odyn.kernels import coupling, kernel_setup, rhs_reduced_1d
from oracles import laplacian


def fully_connected(n):
    return from_edge_list(
        [(i, j, 1.0) for i in range(n) for j in range(n) if i != j], n
    )


class TestDirichletEnergy:
    def test_consensus_is_zero(self):
        g = toy_graph()
        assert dirichlet_energy(np.ones((3, 2)) * 0.7, g) == 0.0

    def test_toy_state_direct_summation_oracle(self):
        g = fully_connected(3)
        x = toy_initial_state()
        brute = 0.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    brute += np.sum((x[i] - x[j]) ** 2)
        brute /= 3
        val = dirichlet_energy(x, g)
        assert val == pytest.approx(brute, abs=1e-15)
        assert val == pytest.approx(0.628, abs=1e-12)

    def test_quadratic_homogeneity(self):
        g = toy_graph()
        x = toy_initial_state()
        assert dirichlet_energy(3.0 * x, g) == pytest.approx(
            9.0 * dirichlet_energy(x, g), rel=1e-12
        )

    def test_empty_graph(self):
        g = from_edge_list([], 3)
        assert dirichlet_energy(toy_initial_state(), g) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            dirichlet_energy(np.zeros((2, 2)), toy_graph())

    @settings(max_examples=40)
    @given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_bits_match_the_gathered_difference_formula(self, n, o, seed):
        rng = np.random.default_rng(seed)
        edges = [(i, j, 1.0) for i in range(n) for j in range(n) if rng.uniform() < 0.4]
        g = from_edge_list(edges, n)
        # a transposed view: the energy reads any memory layout
        x = (rng.standard_normal((o, n)) * 10.0 ** rng.integers(-3, 4, (o, n))).T
        diffs = x[g.rows] - x[g.targets]
        expected = float(np.sum(diffs * diffs) / g.n) if g.edge_count else 0.0
        assert dirichlet_energy(x, g) == expected

    @settings(max_examples=50)
    @given(st.integers(1, 9), st.sampled_from([128, 200, analysis._ENERGY_LEAF]), st.data())
    def test_blocked_sum_has_the_bits_of_one_sum_over_the_whole_gather(self, o, leaf, data):
        # edge counts around the leaf boundaries, none included
        edges = max(0, data.draw(st.integers(0, 4)) * leaf // o + data.draw(st.integers(-3, 3)))
        n = math.isqrt(edges) + data.draw(st.integers(1, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pairs = rng.choice(n * n, edges, replace=False)
        g = from_edge_list(np.column_stack([pairs // n, pairs % n, np.ones(edges)]), n)
        # subnormal to huge: some squares underflow to 0 and some overflow to inf
        x = rng.standard_normal((n, o)) * 10.0 ** rng.integers(-320, 200, (n, o))
        with np.errstate(over="ignore"), mock.patch.object(analysis, "_ENERGY_LEAF", leaf):
            diffs = x[g.rows] - x[g.targets]
            expected = float(np.sum(diffs * diffs) / n) if edges else 0.0
            assert dirichlet_energy(x, g) == expected

    def test_the_energy_gathers_one_leaf_at_a_time(self):
        # 3,000 nodes of out-degree 16 at 8 options: the whole gather is two
        # 3 MB arrays
        n, d = 3000, 16
        targets = (np.arange(n)[:, None] + 1 + 7 * np.arange(d)) % n
        g = from_edge_list(np.column_stack([np.repeat(np.arange(n), d), targets.ravel(),
                                            np.ones(n * d)]), n)
        x = np.random.default_rng(3).standard_normal((n, 8))
        tracemalloc.start()
        try:
            energy = dirichlet_energy(x, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        diffs = x[g.rows] - x[g.targets]
        assert energy == float(np.sum(diffs * diffs) / n)

    @settings(max_examples=40)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_zero_iff_edge_connected_pairs_equal(self, n, seed):
        rng = np.random.default_rng(seed)
        edges = [
            (i, j, 1.0)
            for i in range(n)
            for j in range(n)
            if i != j and rng.uniform() < 0.5
        ]
        g = from_edge_list(edges, n)
        x = rng.standard_normal((n, 2))
        energy = dirichlet_energy(x, g)
        pairs_equal = all(
            np.allclose(x[s], x[d], atol=1e-12) for s, d, _ in g.to_edge_list()
        )
        assert (energy <= 1e-12) == pairs_equal


class TestOpinionDiameter:
    def test_consensus_zero(self):
        assert opinion_diameter(np.ones((4, 3)) * 2.5) == 0.0

    def test_toy_state_hand_value(self):
        # column spreads: 0.32, 0.50, 0.41
        assert opinion_diameter(toy_initial_state()) == pytest.approx(0.50, abs=1e-12)

    def test_permutation_invariance(self):
        x = toy_initial_state()
        assert opinion_diameter(x[[2, 0, 1]]) == opinion_diameter(x)

    def test_vector_input_reads_as_one_option(self):
        assert opinion_diameter(np.array([1.0, 5.0, 2.0])) == 4.0


class TestBifurcation:
    def test_supercritical_structure_with_fitted_damping(self):
        # d = 0.8952, alpha = 1: the critical attention is d / 4 = 0.2238.
        d = 0.8952
        u_star = d / 4.0
        below = reduced_equilibria(u_star * 0.9, d, 1.0)
        above = reduced_equilibria(u_star * 1.1, d, 1.0)
        assert len(below) == 1 and below[0][0] == pytest.approx(0.0, abs=1e-10)
        assert below[0][1] is True
        assert len(above) == 3
        ys = [y for y, _ in above]
        assert ys[0] < 0 < ys[2] and ys[1] == pytest.approx(0.0, abs=1e-10)
        stabilities = [s for _, s in above]
        assert stabilities == [True, False, True]

    def test_equilibria_at_half(self):
        # u = 0.5, d = 1, alpha = 1: nonzero equilibria solve y = tanh(2y).
        y_oracle = 1.0
        for _ in range(200):
            y_oracle = math.tanh(2.0 * y_oracle)
        eq = reduced_equilibria(0.5, 1.0, 1.0)
        assert len(eq) == 3
        assert eq[2][0] == pytest.approx(y_oracle, abs=1e-10)
        assert eq[0][0] == pytest.approx(-y_oracle, abs=1e-10)
        assert eq[2][0] == pytest.approx(0.9575, abs=1e-3)

    def test_positive_input_unfolds_the_pitchfork(self):
        # At the critical attention a positive input leaves exactly one
        # equilibrium, on the positive branch.
        eq = reduced_equilibria(0.25, 1.0, 1.0, b=0.05)
        assert len(eq) == 1
        y, stable = eq[0]
        assert y > 0 and stable

    @staticmethod
    def changes_sign_at(y, u, d, alpha, b):
        """The rhs is zero at y, or has opposite signs at y and the next float up."""
        f_y = rhs_reduced_1d(y, u, d, alpha, b)
        f_next = rhs_reduced_1d(float(np.nextafter(y, np.inf)), u, d, alpha, b)
        return f_y == 0.0 or (f_next != 0.0 and (f_y < 0.0) != (f_next < 0.0))

    def test_a_root_beyond_the_newton_seeds_is_found(self):
        # Newton from seeds on [-2, 2] runs away from the one root, near 20
        ((y, stable),) = reduced_equilibria(0.061, 0.1, 1.0, 1.0)
        assert y == pytest.approx(19.9988, abs=1e-4) and stable
        assert self.changes_sign_at(y, 0.061, 0.1, 1.0, 1.0)

    def test_a_gain_whose_ratio_to_d_overflows_keeps_its_branches(self):
        # c / d = 4e308 / 0.1 overflows; the bend of the rhs sits near 0
        eq = reduced_equilibria(1e307, 0.1, 1.0)
        assert [s for _, s in eq] == [True, False, True]
        assert [y for y, _ in eq] == pytest.approx([-10.0, 0.0, 10.0], abs=1e-12)

    @settings(max_examples=120)
    @given(st.floats(-3.0, 3.0), st.floats(0.02, 3.0), st.floats(0.0, 3.0),
           st.floats(-2.0, 2.0))
    def test_every_sign_change_of_a_dense_scan_holds_a_root(self, u, d, alpha, b):
        eq = reduced_equilibria(u, d, alpha, b)
        roots = [y for y, _ in eq]
        assert all(a2 < b2 for a2, b2 in zip(roots, roots[1:]))
        assert all(self.changes_sign_at(y, u, d, alpha, b) for y in roots)
        # every root lies in |y| <= (1 + |b|) / d, since |tanh| <= 1
        r_max = (1.0 + abs(b)) / d
        grid = np.linspace(-1.0, 1.0, 100_001) * r_max
        sign = np.sign(-d * grid + np.tanh(u * (alpha + 3.0) * grid) + b)
        tol = 1e-9 * max(1.0, r_max)
        for i in np.flatnonzero(sign[:-1] * sign[1:] <= 0):
            assert any(grid[i] - tol <= y <= grid[i + 1] + tol for y in roots), (grid[i], eq)

    def test_sweep_branch_counts(self):
        points = bifurcation_sweep((0.05, 0.6, 112), d=1.0, alpha=1.0)
        for p in points:
            if p.u < 0.24:
                assert len(p.equilibria) == 1
            elif p.u > 0.26:
                assert len(p.equilibria) == 3
                assert [s for _, s in p.equilibria] == [True, False, True]

    def test_sweep_validation(self):
        with pytest.raises(ValueError, match="lo < hi"):
            bifurcation_sweep((0.5, 0.1, 10), 1.0, 1.0)
        with pytest.raises(ValueError, match="two sweep"):
            bifurcation_sweep((0.1, 0.5, 1), 1.0, 1.0)
        with pytest.raises(ValueError, match="damping"):
            bifurcation_sweep((0.1, 0.5, 10), 0.0, 1.0)

    def test_csv_export(self):
        lines = bifurcation_csv(bifurcation_sweep((0.1, 0.3, 3), 1.0, 1.0)).splitlines()
        assert lines[0] == "u,y,stable"
        assert all(len(line.split(",")) == 3 for line in lines[1:])


class TestMonotoneExtremes:
    @settings(max_examples=30)
    @given(st.integers(2, 6), st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_discrete_averaging_contracts_extremes(self, n, steps, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        for _ in range(steps):
            a = random_row_stochastic(n, rng, zero_diagonal=False)
            x_next = a @ x
            assert x_next.max() <= x.max() + 1e-12
            assert x_next.min() >= x.min() - 1e-12
            x = x_next


def coupling_matvec(aa, ao):
    """The joint coupling (Ao + I) kron (Aa + I) on flattened states, through ``coupling``."""
    shape = (aa.shape[0], ao.shape[0])
    return lambda v: coupling(v.reshape(shape), aa, ao, 1.0).ravel(), shape[0] * shape[1]


class TestPowerIteration:
    def test_identity_operator(self):
        res = power_iteration(lambda v: v, dim=3, tol=1e-12)
        assert res.eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert res.residual <= 1e-12

    def test_toy_communication_with_swap_option(self):
        ao = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = power_iteration(*coupling_matvec(toy_adjacency(), ao), tol=1e-10)
        assert res.eigenvalue == pytest.approx(4.0, abs=1e-8)

    def test_ten_random_stochastic_factor_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            aa = random_row_stochastic(int(rng.integers(2, 6)), rng, zero_diagonal=False)
            ao = random_row_stochastic(int(rng.integers(2, 6)), rng, zero_diagonal=False)
            res = power_iteration(*coupling_matvec(aa, ao), tol=1e-10)
            assert res.eigenvalue == pytest.approx(4.0, abs=1e-8)

    def test_seeded_start_covers_the_annihilated_constant_direction(self):
        # The constant direction is annihilated; the seeded random start
        # has a component along the leading eigenvector (1, -1).
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        res = power_iteration(lambda v: m @ v, dim=2, tol=1e-9)
        assert res.eigenvalue == pytest.approx(2.0, abs=1e-8)

    def test_an_operator_that_annihilates_the_start_gives_the_zero_pair(self):
        res = power_iteration(lambda v: 0.0 * v, dim=4)
        assert (res.eigenvalue, res.residual, res.iterations) == (0.0, 0.0, 1)
        assert np.linalg.norm(res.eigenvector) == pytest.approx(1.0, abs=1e-15)

    def test_the_start_is_drawn_afresh_on_every_call(self):
        results = [power_iteration(*coupling_matvec(toy_adjacency(), np.eye(2)[::-1]))
                   for _ in range(2)]
        assert results[0].iterations == results[1].iterations > 1
        assert results[0].eigenvalue.hex() == results[1].eigenvalue.hex()
        assert np.array_equal(results[0].eigenvector, results[1].eigenvector)

    def test_nonconvergence_raises(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError, match="power iteration"):
            power_iteration(lambda v: rot @ v, dim=2, tol=1e-12, max_iter=60)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            power_iteration(lambda v: v, dim=0)
        with pytest.raises(ValueError):
            power_iteration(lambda v: v, dim=2, tol=0.0)


class TestClosedForm:
    def path_graph(self, n=5):
        edges = []
        for i in range(n - 1):
            edges += [(i, i + 1, 1.0), (i + 1, i, 1.0)]
        return from_edge_list(edges, n)

    def test_kernel_mode_is_constant_without_source(self):
        lap = laplacian(self.path_graph())
        x0 = np.ones((5, 2)) * 0.4
        sol = grandpp_closed_form(lap, x0, np.zeros((5, 2)))
        np.testing.assert_allclose(sol.evaluate(3.7), x0, atol=1e-10)

    def test_reconstructs_initial_state(self):
        rng = np.random.default_rng(12)
        lap = laplacian(self.path_graph())
        x0 = rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 3))
        sol = grandpp_closed_form(lap, x0, b)
        assert np.max(np.abs(sol.evaluate(0.0) - x0)) <= 1e-8

    def test_matches_euler_integration(self):
        rng = np.random.default_rng(13)
        g = self.path_graph()
        lap = laplacian(g)
        x0 = rng.standard_normal((5, 2))
        b = rng.standard_normal((5, 2))
        sol = grandpp_closed_form(lap, x0, b)
        setup = kernel_setup("laplacian-source", g, x0, b=b)
        traj = euler_integrate(setup, 1e-3, 5000, record_every=500)
        worst = max(
            np.max(np.abs(traj.states[i] - sol.evaluate(traj.times[i])))
            for i in range(len(traj.times))
        )
        assert worst <= 5e-3

    def test_matches_rk4_integration_tightly(self):
        from odyn.integrate import rk4_integrate

        rng = np.random.default_rng(15)
        g = self.path_graph()
        lap = laplacian(g)
        x0 = rng.standard_normal((5, 2))
        b = rng.standard_normal((5, 2))
        sol = grandpp_closed_form(lap, x0, b)
        setup = kernel_setup("laplacian-source", g, x0, b=b)
        traj = rk4_integrate(setup, 1e-2, 500, record_every=50)
        worst = max(
            np.max(np.abs(traj.states[i] - sol.evaluate(traj.times[i])))
            for i in range(len(traj.times))
        )
        assert worst <= 1e-6

    def test_two_node_laplacian_modes(self):
        sol = grandpp_closed_form(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros((2, 1)),
                                  np.zeros((2, 1)))
        np.testing.assert_allclose(sol.eigenvalues, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(sol.eigenvectors.T @ sol.eigenvectors, np.eye(2), atol=1e-12)

    def test_weighted_complete_graph_accepted_with_nonnegative_modes(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, (6, 6))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        sol = grandpp_closed_form(np.diag(a.sum(axis=1)) - a, np.zeros((6, 1)), np.zeros((6, 1)))
        assert np.all(sol.eigenvalues >= -1e-10)

    def test_non_square_operator_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            grandpp_closed_form(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((2, 1)))

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            grandpp_closed_form(np.array([[1.0, -1.0], [0.0, 0.0]]), np.zeros((2, 1)), np.zeros((2, 1)))

    def test_disconnected_graph_rejected(self):
        g = from_edge_list([(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)], 4)
        with pytest.raises(ValueError, match="repeated"):
            grandpp_closed_form(laplacian(g), np.zeros((4, 1)), np.zeros((4, 1)))


class TestScrambling:
    def test_two_copies_of_toy_influence(self):
        a = toy_adjacency()
        x0 = toy_initial_state()[:, :1]
        report = scrambling_check([a, a], zeta=0.3, x0=x0)
        assert report.window == 2
        assert report.delta > 0
        # the window product is strictly positive, hand-checkable
        assert np.all(a @ a > 0)
        # delta equals the worst-pair best shared column of the product
        phi = a @ a
        masses = [
            np.max(np.minimum(phi[i], phi[k]))
            for i in range(3)
            for k in range(i + 1, 3)
        ]
        assert report.delta == pytest.approx(min(masses), abs=1e-15)

    def test_identity_matrices_are_not_scrambling(self):
        x0 = np.array([[0.0], [1.0], [2.0]])
        report = scrambling_check([np.eye(3), np.eye(3)], zeta=0.5, x0=x0)
        assert report.delta == 0.0
        assert report.diameters == (2.0, 2.0, 2.0)

    def test_long_random_sequence_contracts_exponentially(self):
        rng = np.random.default_rng(14)
        n, zeta, windows = 5, 0.05, 50
        mats = []
        for _ in range(windows * (n - 1)):
            raw = zeta + (1.0 - n * zeta) * rng.dirichlet(np.ones(n), size=n)
            mats.append(raw)
        x0 = rng.standard_normal((n, 1))
        report = scrambling_check(mats, zeta=zeta, x0=x0)
        assert report.delta > 0
        diam = np.array(report.diameters)
        boundaries = diam[:: n - 1]
        assert np.all(np.diff(boundaries) <= 1e-12)
        logs = np.log(diam[diam > 1e-300])
        slope = np.polyfit(np.arange(len(logs)), logs, 1)[0]
        assert slope < 0

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            scrambling_check([np.eye(3) * 2.0], zeta=0.1, x0=np.zeros((3, 1)))

    def test_non_finite_rejected(self):
        m = np.full((3, 3), 1.0 / 3.0)
        m[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            scrambling_check([m, m], zeta=0.1, x0=np.zeros((3, 1)))

    def test_zeta_floor_enforced(self):
        m = np.array([[0.99, 0.01], [0.5, 0.5]])
        with pytest.raises(ValueError, match="positivity floor"):
            scrambling_check([m], zeta=0.1, x0=np.zeros((2, 1)))
