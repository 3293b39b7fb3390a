import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odyn.fixtures import (
    random_row_stochastic,
    toy_adjacency,
    toy_graph,
    toy_initial_state,
)
from odyn import kernels
from odyn.graphs import Graph, degrees, from_edge_list
from odyn.integrate import euler_integrate
from odyn.kernels import (
    KERNEL_TAGS,
    SATURATIONS,
    BimpParams,
    KernelSetup,
    kernel_reads,
    kernel_setup,
    nod_validity,
    rhs_bimp,
    rhs_bimp_filter_form,
    rhs_reduced_1d,
)
from odyn.analysis import opinion_diameter
from oracles import (
    coupling_adjoint,
    dense_adjacency,
    dense_joint_coupling,
    laplacian,
    rhs_linear_opinion,
    row_normalize,
    vec,
)


def toy_params(**overrides):
    defaults = dict(d=1.0, alpha=1.0, b=np.zeros((3, 3)), u=0.25)
    defaults.update(overrides)
    return BimpParams(**defaults)


def dense_bimp(x, aa, ao, p):
    """The saturated kernel on the column-stacked state, as the paper writes it:
    dx/dt = -d x + S(u ((alpha - 1) x + K x)) + b with K the dense joint coupling."""
    xv = vec(x)
    joint = (p.alpha - 1.0) * xv + dense_joint_coupling(aa, ao) @ xv
    return -p.d * xv + p.saturation(p.u * joint) + vec(p.b)


class TestJointCoupling:
    def test_identity_option_factor(self):
        # A zero option coupling makes that factor the identity.
        aa = toy_adjacency()
        x0 = toy_initial_state()[:, :2]
        out = kernels.coupling(x0, aa, np.zeros((2, 2)), 1.0)
        np.testing.assert_allclose(out, (aa + np.eye(3)) @ x0, atol=1e-14)

    def test_ones_maps_to_four(self):
        rng = np.random.default_rng(1)
        aa = random_row_stochastic(4, rng, zero_diagonal=False)
        ao = random_row_stochastic(3, rng, zero_diagonal=False)
        # Row sums of both factors plus I are 2, so the joint coupling maps
        # the constant state to 4 times itself; confirm by summation.
        assert abs((aa + np.eye(4)).sum(axis=1).max() - 2.0) < 1e-12
        ones = np.ones((4, 3))
        np.testing.assert_allclose(kernels.coupling(ones, aa, ao, 1.0), 4.0 * ones, atol=1e-12)

    @settings(max_examples=40)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_dense_oracle_all_small_sizes(self, na, no, seed):
        rng = np.random.default_rng(seed)
        aa = rng.standard_normal((na, na))
        ao = rng.standard_normal((no, no))
        x = rng.standard_normal((na, no))
        np.testing.assert_allclose(
            vec(kernels.coupling(x, aa, ao, 1.0)), dense_joint_coupling(aa, ao) @ vec(x), atol=1e-12
        )


class TestBimpForms:
    def test_zero_state_zero_input_is_equilibrium(self):
        rng = np.random.default_rng(0)
        aa = random_row_stochastic(3, rng)
        ao = random_row_stochastic(3, rng)
        out = rhs_bimp(np.zeros((3, 3)), aa, ao, toy_params())
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_matrix_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        aa = toy_adjacency()
        ao = random_row_stochastic(3, rng)
        x = toy_initial_state()
        p = toy_params(b=toy_initial_state())
        np.testing.assert_allclose(vec(rhs_bimp(x, aa, ao, p)), dense_bimp(x, aa, ao, p), atol=1e-12)

    def test_single_option_reduces_to_uncorrelated_form(self):
        rng = np.random.default_rng(2)
        aa = random_row_stochastic(4, rng)
        ao = np.zeros((1, 1))
        x = rng.standard_normal((4, 1))
        p = BimpParams(d=1.0, alpha=1.2, b=np.zeros((4, 1)), u=0.3)
        expected = -p.d * x + np.tanh(p.u * (p.alpha * x + (aa + np.eye(4)) @ x - x)) + p.b
        np.testing.assert_allclose(rhs_bimp(x, aa, ao, p), expected, atol=1e-12)

    @pytest.mark.parametrize("alpha, seed", [(2.0, 3), (0.0, 5)])
    def test_filter_form_matches_dense_oracle(self, alpha, seed):
        rng = np.random.default_rng(seed)
        aa, ao = random_row_stochastic(4, rng), random_row_stochastic(2, rng)
        x = rng.standard_normal((4, 2))
        p = BimpParams(d=0.8, alpha=alpha, b=rng.standard_normal((4, 2)), u=0.2)
        np.testing.assert_allclose(
            vec(rhs_bimp_filter_form(x, aa, ao, p)), dense_bimp(x, aa, ao, p), atol=1e-12
        )

    def test_filter_form_alpha_one_sharpening_vanishes(self):
        rng = np.random.default_rng(4)
        aa, ao = random_row_stochastic(3, rng), random_row_stochastic(2, rng)
        x = rng.standard_normal((3, 2))
        p = BimpParams(d=1.0, alpha=1.0, b=np.zeros((3, 2)), u=0.25)
        kx = dense_joint_coupling(aa, ao) @ vec(x)
        smoothing_only = -p.d * vec(x) + np.tanh(p.u * p.alpha * kx) + vec(p.b)
        np.testing.assert_allclose(vec(rhs_bimp_filter_form(x, aa, ao, p)), smoothing_only,
                                   atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_matrix_and_filter_forms_match_dense_oracle(self, na, no, seed):
        rng = np.random.default_rng(seed)
        aa = random_row_stochastic(na, rng, zero_diagonal=False)
        ao = random_row_stochastic(no, rng, zero_diagonal=False)
        x = rng.standard_normal((na, no))
        p = BimpParams(
            d=float(rng.uniform(0.0, 2.0)),
            alpha=float(rng.uniform(0.0, 2.5)),
            b=rng.standard_normal((na, no)),
            u=float(rng.uniform(0.05, 1.0)),
        )
        dense = dense_bimp(x, aa, ao, p)
        np.testing.assert_allclose(vec(rhs_bimp(x, aa, ao, p)), dense, atol=1e-12)
        np.testing.assert_allclose(vec(rhs_bimp_filter_form(x, aa, ao, p)), dense, atol=1e-12)

    @pytest.mark.parametrize("form", [rhs_bimp, rhs_bimp_filter_form])
    def test_constant_state_row_sum_formula(self, form):
        # On a constant state c the joint coupling acts as multiplication
        # by 4, so the derivative is (-d c + S(4 u c)) everywhere.
        rng = np.random.default_rng(6)
        aa = random_row_stochastic(4, rng, zero_diagonal=False)
        ao = random_row_stochastic(3, rng, zero_diagonal=False)
        c = 0.37
        p = BimpParams(d=1.3, alpha=1.0, b=np.zeros((4, 3)), u=0.21)
        out = form(np.full((4, 3), c), aa, ao, p)
        np.testing.assert_allclose(
            out, (-p.d * c + math.tanh(4 * p.u * c)) * np.ones((4, 3)), atol=1e-12
        )

    @pytest.mark.parametrize("dense", [True, False])
    def test_preacts_list_receives_the_preactivation_and_changes_no_bit(self, dense):
        rng = np.random.default_rng(13)
        g = from_edge_list([(i, (i + 1) % 5, 1.0) for i in range(5)] + [(0, 2, 0.5)], 5)
        aa = row_normalize(dense_adjacency(g)) if dense else g.row_normalized()
        ao = random_row_stochastic(3, rng, zero_diagonal=False)
        p = BimpParams(d=0.9, alpha=1.7, b=rng.standard_normal((5, 3)), u=0.4)
        preacts = []
        for x in (rng.standard_normal((5, 3)), rng.normal(0.0, 10.0, (5, 3))):
            np.testing.assert_array_equal(rhs_bimp(x, aa, ao, p, preacts), rhs_bimp(x, aa, ao, p))
            np.testing.assert_array_equal(preacts[-1], p.u * kernels.coupling(x, aa, ao, p.alpha))
        assert len(preacts) == 2

    @settings(max_examples=150)
    @given(st.integers(1, 9), st.integers(1, 6), st.sampled_from([(), (1,), (5,), (2, 3)]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_coupling_on_the_transposed_factors_is_the_adjoint_bit_for_bit(
        self, n, o, stack, sparse, seed
    ):
        # a Graph Aa has rows (and so columns of Aa^T) without edges and
        # zero weights; H spans many magnitudes and holds zeros of both signs
        rng = np.random.default_rng(seed)
        if sparse:
            keep = rng.uniform(size=(n, n)) < 0.4
            keep[rng.integers(n)] = False
            i, j = np.nonzero(keep)
            w = rng.uniform(0.0, 2.0, i.size) * (rng.uniform(size=i.size) > 0.1)
            aa = from_edge_list(np.column_stack([i, j, w]), n)
        else:
            aa = rng.standard_normal((n, n))
        ao = rng.standard_normal((o, o))
        shape = (*stack, n, o)
        h = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        h[rng.uniform(size=shape) < 0.1] = 0.0
        h[rng.uniform(size=shape) < 0.05] = -0.0
        alpha = float(rng.uniform(0.0, 3.0))
        got = kernels.coupling(h, aa.T, ao.T, alpha)
        want = coupling_adjoint(h, aa, ao, alpha)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_params_validation(self):
        with pytest.raises(ValueError, match="damping"):
            BimpParams(d=-0.1, alpha=1.0, b=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="attention"):
            BimpParams(d=1.0, alpha=1.0, b=np.zeros((2, 2)), u=0.0)
        with pytest.raises(ValueError, match="finite"):
            BimpParams(d=1.0, alpha=1.0, b=np.array([[np.inf]]))
        # default attention sits at the critical value d / (alpha + 3)
        assert BimpParams(d=0.8952, alpha=1.0, b=np.zeros((1, 1))).u == pytest.approx(0.2238)


class TestLinearKernels:
    def test_hand_evaluated_entry(self):
        a = toy_adjacency()
        out = rhs_linear_opinion(toy_initial_state(), a, a.sum(axis=1))
        assert out[0, 0] == pytest.approx(-0.43 + 0.43 * 0.14 + 0.57 * 0.46, abs=1e-12)
        assert out[0, 0] == pytest.approx(-0.1076, abs=1e-10)

    def test_consensus_is_equilibrium(self):
        a = toy_adjacency()
        x = np.tile([0.2, 0.5, 0.7], (3, 1))
        np.testing.assert_allclose(
            rhs_linear_opinion(x, a, a.sum(axis=1)), 0.0, atol=1e-14
        )

    def test_ones_column_is_equilibrium(self):
        a = toy_adjacency()
        np.testing.assert_allclose(
            rhs_linear_opinion(np.ones((3, 1)), a, a.sum(axis=1)), 0.0, atol=1e-14
        )

    def test_damping_must_match_row_sums(self):
        with pytest.raises(ValueError, match="row sums"):
            rhs_linear_opinion(np.zeros((3, 1)), toy_adjacency(), np.ones(3) * 2.0)

    def test_laplacian_consensus_zero(self):
        x = np.ones((3, 2)) * 0.4
        np.testing.assert_allclose(
            kernel_setup("laplacian", toy_graph(), x).rhs(x), 0.0, atol=1e-14
        )

    @pytest.mark.parametrize("tag", ["laplacian", "linear-od"])
    def test_laplacian_equals_linear_opinion_on_toy(self, tag):
        a = toy_adjacency()
        x = toy_initial_state()
        np.testing.assert_allclose(
            kernel_setup(tag, toy_graph(), x).rhs(x),
            rhs_linear_opinion(x, a, a.sum(axis=1)),
            atol=1e-12,
        )

    def test_two_node_laplacian_value(self):
        g = from_edge_list([(0, 1, 1.0), (1, 0, 1.0)], 2)
        x = np.array([[1.0], [-1.0]])
        np.testing.assert_allclose(kernel_setup("laplacian", g, x).rhs(x), [[-2.0], [2.0]])

    def test_source_zero_matches_plain(self):
        x = toy_initial_state()
        np.testing.assert_array_equal(
            kernel_setup("laplacian-source", toy_graph(), x, b=np.zeros_like(x)).rhs(x),
            kernel_setup("laplacian", toy_graph(), x).rhs(x),
        )

    def test_source_breaks_consensus_equilibrium(self):
        x = np.ones((3, 3)) * 0.5
        b = toy_initial_state()
        assert np.max(np.abs(kernel_setup("laplacian-source", toy_graph(), x, b=b).rhs(x))) > 0.1


class TestGraphconTran:
    def test_equilibrium(self):
        x = np.ones((3, 2)) * 0.3
        setup = kernel_setup("graphcon-tran", toy_graph(), x)
        d = setup.rhs(setup.state0)
        np.testing.assert_allclose(d[0], 0.0, atol=1e-14)
        np.testing.assert_allclose(d[1], 0.0, atol=1e-14)

    def test_initial_derivatives(self):
        aa = toy_adjacency()
        x0 = toy_initial_state()
        setup = kernel_setup("graphcon-tran", toy_graph(), x0)
        np.testing.assert_array_equal(setup.state0, np.stack([x0, np.zeros_like(x0)]))
        d = setup.rhs(setup.state0)
        np.testing.assert_array_equal(d[0], np.zeros_like(x0))
        np.testing.assert_allclose(d[1], (aa - np.eye(3)) @ x0, atol=1e-14)

    def test_long_run_reaches_consensus(self):
        setup = kernel_setup("graphcon-tran", toy_graph(), toy_initial_state())
        traj = euler_integrate(setup, 0.05, 1200, record_every=1200)
        assert opinion_diameter(traj.states[-1]) < 1e-4


@st.composite
def stochastic_couplings(draw):
    """Row-stochastic nonnegative Aa (1-6 agents) and Ao (1-4 options), each
    with or without a zero diagonal (a single agent or option is [1])."""
    na, no = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (random_row_stochastic(na, rng, zero_diagonal=draw(st.booleans())),
            random_row_stochastic(no, rng, zero_diagonal=draw(st.booleans())))


def spectral_abscissa(m):
    return float(np.max(np.linalg.eigvals(m).real))


class TestSaturatedGuarantees:
    """Properties the theory guarantees for every row-stochastic coupling;
    a failing draw is a finding about the theory or the code."""

    @settings(max_examples=200)
    @given(stochastic_couplings(), st.floats(0.1, 2.0), st.floats(0.0, 3.0))
    def test_critical_attention_is_where_the_origin_loses_stability(self, couplings, d, alpha):
        # Jacobian at the origin: -d I + u S'(0) ((alpha - 1) I + K), S'(0) = 1;
        # its abscissa -d + u (alpha + 3) changes sign at u* = d / (alpha + 3).
        aa, ao = couplings
        n = aa.shape[0] * ao.shape[0]
        shift = (alpha - 1.0) * np.eye(n) + dense_joint_coupling(aa, ao)
        u_star = kernels.critical_attention(d, alpha)
        below = spectral_abscissa(-d * np.eye(n) + (1 - 1e-6) * u_star * shift)
        above = spectral_abscissa(-d * np.eye(n) + (1 + 1e-6) * u_star * shift)
        assert below < 0.0 < above, (below, above)

    @settings(max_examples=200)
    @given(
        stochastic_couplings(),
        st.sampled_from([(SATURATIONS["tanh"], 1.0), (SATURATIONS["softsign"], 1.0),
                         (SATURATIONS["arctan"], math.pi / 2)]),
        st.floats(0.1, 2.0),
        st.floats(1e-3, 0.99),
        st.floats(0.0, 3.0),
        st.floats(-3.0, 3.0),
        st.floats(0.0, 10.0),
        st.floats(0.0, 5.0),
        st.integers(1, 60),
        st.integers(0, 2**32 - 1),
    )
    def test_euler_snapshots_stay_within_the_state_bound(
        self, couplings, saturation, d, dt_d, alpha, log_u, x_scale, b_scale, steps, seed
    ):
        # With |S| <= s and dt d < 1, one Euler step gives
        # |X_{k+1}| <= (1 - d dt) |X_k| + dt (s + |b|) <= R.  Allowance: eight
        # roundings (five in the update, one in S, two in R), each at most
        # half an ulp of a quantity no larger than 2R.
        aa, ao = couplings
        fn, s = saturation
        rng = np.random.default_rng(seed)
        x0 = x_scale * rng.standard_normal((aa.shape[0], ao.shape[0]))
        b = b_scale * rng.standard_normal(x0.shape)
        p = BimpParams(d=d, alpha=alpha, b=b, u=10.0**log_u, saturation=fn)
        traj = euler_integrate(KernelSetup(lambda x: rhs_bimp(x, aa, ao, p), x0, damping=d),
                               dt_d / d, steps)
        r = max(np.max(np.abs(x0)), (s + np.max(np.abs(b))) / d)
        worst = max(float(np.max(np.abs(x))) for x in traj.states)
        assert worst <= r * (1.0 + 8 * np.finfo(float).eps), (worst, r)


class TestGread:
    def test_fixed_points_of_reaction_term(self):
        rhs = kernel_setup("gread-f", toy_graph(), np.zeros((3, 2))).rhs
        np.testing.assert_allclose(rhs(np.zeros((3, 2))), 0.0, atol=1e-14)
        np.testing.assert_allclose(rhs(np.ones((3, 2))), 0.0, atol=1e-14)

    def test_deep_negative_states_decrease_monotonically(self):
        lap = laplacian(toy_graph())
        # |[L X]_i| <= c |X|_max with c the largest absolute row sum of L
        c = float(np.max(np.sum(np.abs(lap), axis=1)))
        x = np.full((3, 2), -(c + 1.0))
        assert np.all(kernel_setup("gread-f", toy_graph(), x).rhs(x) < 0.0)

    def test_fbstar_dominated_by_constant_mode(self):
        # With alpha > beta > 0 the slowest-decaying (here: growing) mode
        # is the constant vector; verify in the Laplacian's eigenbasis.
        edges = []
        for i in range(4):
            edges += [(i, (i + 1) % 4, 1.0), ((i + 1) % 4, i, 1.0)]
        g = from_edge_list(edges, 4)
        lap = laplacian(g)
        vals, vecs = np.linalg.eigh(lap)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        setup = kernel_setup("gread-fb", g, np.random.default_rng(9).uniform(0, 1, (4, 2)),
                             alpha=1.0, beta=0.3)
        traj = euler_integrate(setup, 0.05, 600, record_every=600)
        x_end = traj.states[-1]
        coeffs = vecs.T @ x_end
        lead = np.abs(coeffs[0]).max()
        rest = np.abs(coeffs[1:]).max()
        assert rest < 1e-6 * lead


class TestReduced1d:
    def test_origin_is_equilibrium(self):
        assert rhs_reduced_1d(0.0, u=0.5, d=1.0, alpha=1.0) == 0.0

    def test_equilibria_match_fixed_point_oracle(self):
        # At u (alpha + 3) = 2 the nonzero equilibria solve y = tanh(2 y);
        # locate one by damped fixed-point iteration, independent of the
        # Newton machinery used elsewhere.
        y = 1.0
        for _ in range(200):
            y = math.tanh(2.0 * y)
        assert y == pytest.approx(0.9575, abs=1e-3)
        assert rhs_reduced_1d(y, u=0.5, d=1.0, alpha=1.0) == pytest.approx(0.0, abs=1e-12)

    def test_near_critical_amplitude_matches_cubic_normal_form(self):
        # Just above the critical attention the nonzero equilibrium of the
        # saturated system is within 5% of the cubic normal form's
        # sqrt((c - d) / c) amplitude, where c = u (alpha + 3).
        d, alpha = 1.0, 1.0
        u_star = d / (alpha + 3.0)
        u = u_star * 1.001
        c = u * (alpha + 3.0)
        cubic_amp = math.sqrt(3.0 * (c - d) / c**3)
        y = cubic_amp
        for _ in range(10000):
            y = y + 0.5 * rhs_reduced_1d(y, u, d, alpha)
        assert y > 0
        assert abs(y - cubic_amp) / cubic_amp < 0.05


class TestSaturations:
    def test_validity_partition(self):
        valid = {name for name, f in SATURATIONS.items() if nod_validity(f) is None}
        assert valid == {"tanh", "softsign", "arctan"}

    def test_rejection_reasons(self):
        assert "origin" in nod_validity(SATURATIONS["sigmoid"])
        assert "differentiable" in nod_validity(SATURATIONS["relu"])
        assert "slope" in nod_validity(SATURATIONS["gelu"])
        assert "third derivative" in nod_validity(SATURATIONS["identity"])


class TestKernelSetup:
    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            kernel_setup("heat", toy_graph(), toy_initial_state())

    def test_reduced_requires_scalar(self):
        with pytest.raises(ValueError, match="1x1"):
            kernel_setup("reduced", toy_graph(), toy_initial_state())

    @pytest.mark.parametrize("tag", [tag for tag in KERNEL_TAGS if tag != "bimp"])
    def test_only_bimp_reads_the_saturation(self, tag):
        g, x0 = (from_edge_list([], 1), np.array([[0.3]])) if tag == "reduced" else (
            toy_graph(), toy_initial_state())
        kernel_setup(tag, g, x0, saturation=SATURATIONS["tanh"])
        with pytest.raises(ValueError, match=f"kernel '{tag}' has no saturation"):
            kernel_setup(tag, g, x0, saturation=SATURATIONS["softsign"])

    @pytest.mark.parametrize("tag", KERNEL_TAGS)
    def test_an_unread_option_may_be_passed_at_its_default(self, tag):
        g, x0 = (from_edge_list([], 1), np.array([[0.3]])) if tag == "reduced" else (
            toy_graph(), toy_initial_state())
        kernel_setup(tag, g, x0, d=1.0, alpha=1.0, u=None, b=None, beta=0.5,
                     saturation=SATURATIONS["tanh"], seed=3)

    def test_bimp_setup_reports_damping(self):
        setup = kernel_setup("bimp", toy_graph(), toy_initial_state(), d=0.7)
        assert setup.damping == 0.7

    @pytest.mark.parametrize("tag", sorted(SATURATIONS))
    def test_bimp_closure_equals_rhs_bimp_bit_for_bit(self, tag):
        # the closure adds no arithmetic to rhs_bimp's
        rng = np.random.default_rng(12)
        n, o = 6, 4
        g = from_edge_list([(i, j, float(rng.uniform(0.1, 1.0)))
                            for i in range(n) for j in range(n) if i != j], n)
        x0 = rng.uniform(-1.0, 1.0, (n, o))
        b = rng.uniform(-0.5, 0.5, (n, o))
        kw = dict(d=0.8, alpha=1.5, b=b, saturation=SATURATIONS[tag])
        setup = kernel_setup("bimp", g, x0, seed=5, **kw)
        aa = g.row_normalized()
        ao = random_row_stochastic(o, np.random.default_rng(5))
        for x in (x0, rng.uniform(-3.0, 3.0, (n, o)), rng.normal(0.0, 10.0, (n, o))):
            np.testing.assert_array_equal(setup.rhs(x), rhs_bimp(x, aa, ao, BimpParams(**kw)))


GRAPH_TAGS = [tag for tag in KERNEL_TAGS if tag != "reduced"]


def sparse_fixture(n=7, o=3):
    """Out-degree 2 on a ring with chords, plus a self-loop on node 0."""
    rng = np.random.default_rng(4)
    edges = [(i, (i + k) % n, float(rng.uniform(0.1, 1.0))) for i in range(n) for k in (1, 3)]
    g = from_edge_list(edges + [(0, 0, 0.5)], n)
    return g, rng.uniform(-1.0, 1.0, (n, o))


def dense_rhs(tag, g, x0):
    """The kernel's right-hand side on dense n-by-n matrices."""
    a, lap, aa = dense_adjacency(g), laplacian(g), row_normalize(dense_adjacency(g))
    ao = random_row_stochastic(x0.shape[1], np.random.default_rng(0))
    return {
        "bimp": lambda x: rhs_bimp(x, aa, ao, BimpParams(d=1.0, alpha=1.0, b=x0)),
        "linear-od": lambda x: rhs_linear_opinion(x, a, a.sum(axis=1)),
        "laplacian": lambda x: -(lap @ x),
        "laplacian-source": lambda x: -(lap @ x) + x0,
        "graphcon-tran": lambda s: np.stack([s[1], (aa @ s[0] - s[0]) - s[1]]),
        "gread-f": lambda x: -(lap @ x) + x * (1.0 - x),
        "gread-fb": lambda x: -1.0 * (lap @ x) + 0.5 * (lap @ x + x),
    }[tag]


def source_if_read(tag, x0):
    """``x0`` as the source of a row that reads ``b``, else the default."""
    return x0 if "b" in kernel_reads(tag) else None


class TestSparseCoupling:
    @pytest.mark.parametrize("tag", GRAPH_TAGS)
    def test_setup_never_builds_a_dense_matrix(self, tag, monkeypatch):
        product = Graph.__matmul__

        def sparse_only(self, x):
            # g @ I is the package's one route to an n-by-n form of a graph
            if np.shape(x) == self.shape:
                raise AssertionError("an n-by-n matrix was built")
            return product(self, x)

        monkeypatch.setattr(Graph, "__matmul__", sparse_only)
        g, x0 = sparse_fixture()
        setup = kernel_setup(tag, g, x0, b=source_if_read(tag, x0))
        state = setup.state0
        for _ in range(3):
            state = state + 0.01 * setup.rhs(state)
        assert np.isfinite(state).all()
        held = [cell.cell_contents for cell in setup.rhs.__closure__ or ()]
        held += [v for obj in held for v in getattr(obj, "__dict__", {}).values()]
        assert not any(isinstance(v, np.ndarray) and v.shape == (g.n, g.n) for v in held)

    @pytest.mark.parametrize("tag", GRAPH_TAGS)
    def test_rhs_matches_the_dense_form(self, tag):
        g, x0 = sparse_fixture()
        setup = kernel_setup(tag, g, x0, b=source_if_read(tag, x0))
        oracle = dense_rhs(tag, g, x0)
        rng = np.random.default_rng(9)
        for scale in (1.0, 5.0, 0.01):
            state = rng.uniform(-scale, scale, setup.state0.shape)
            np.testing.assert_allclose(setup.rhs(state), oracle(state), rtol=1e-14, atol=1e-15)

    def test_laplacian_flows_report_the_largest_out_degree(self):
        g, x0 = sparse_fixture()
        for tag in ("linear-od", "laplacian", "laplacian-source"):
            assert kernel_setup(tag, g, x0).damping == degrees(g).max()
