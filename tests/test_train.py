import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odyn import kernels, train
from odyn.attention import (
    build_communication_attention,
    build_option_attention,
    init_attention_weights,
)
from odyn.errors import NumericalError
from odyn.fixtures import _gradient_problem, random_row_stochastic
from odyn.graphs import Graph, from_edge_list
from odyn.kernels import coupling
from odyn.train import (
    TrainConfig,
    backward_grad,
    encoding_grad,
    finite_difference_grad,
    forward_unroll,
    gradient_check,
    gradient_upper_bound,
    jacobian_chain_norm,
    make_sbm_task,
    mse_loss,
    save_history_csv,
    train_sgd,
)
import oracles
from oracles import dense_adjacency


def small_fixture(seed, na=6, no=3, f=3, steps=4, dt=0.05, d=1.0, alpha=1.0):
    cfg = TrainConfig(lr=0.0, epochs=0, steps=steps, dt=dt, d=d, alpha=alpha, seed=seed)
    x_in, w, aa, ao, target = _gradient_problem(np.random.default_rng(seed), na, no, f)
    return cfg, aa, ao, x_in, w, target


def count_couplings_by_operand(tape, monkeypatch):
    """Count :func:`coupling` calls, looked up in either module, by their operands.

    On a tape with dense couplings, a call with ``tape.aa`` counts as
    "forward", one with views of the transposes of ``tape.aa`` and
    ``tape.ao`` as "transposed", and any other as "other".
    """
    calls = collections.Counter()
    product = kernels.coupling

    def is_transpose(view, m):
        return np.shares_memory(view, m) and np.array_equal(view, m.T)

    def counted(x, aa, ao, alpha):
        if aa is tape.aa:
            calls["forward"] += 1
        elif is_transpose(aa, tape.aa) and is_transpose(ao, tape.ao):
            calls["transposed"] += 1
        else:
            calls["other"] += 1
        return product(x, aa, ao, alpha)

    for module in (kernels, train):
        monkeypatch.setattr(module, "coupling", counted)
    return calls


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="1/d"):
            TrainConfig(lr=0.1, epochs=1, steps=1, dt=0.5, d=2.0, alpha=1.0)
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(lr=-0.1, epochs=1, steps=1, dt=0.1, d=1.0, alpha=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, message", [
        ("lr", "learning rate"), ("dt", "step size"), ("d", "damping d"),
        ("alpha", "self-reinforcement alpha"),
    ])
    def test_non_finite_hyperparameters_are_rejected(self, field, message, bad):
        good = dict(lr=0.1, epochs=1, steps=1, dt=0.1, d=1.0, alpha=1.0)
        with pytest.raises(ValueError, match=f"^{message} must be finite .*, got {bad}$"):
            TrainConfig(**{**good, field: bad})

    def test_attention_pinned_to_critical_value(self):
        cfg = TrainConfig(lr=0.1, epochs=1, steps=1, dt=0.1, d=0.8, alpha=1.0)
        assert cfg.u == pytest.approx(0.2)


class TestForwardUnroll:
    def test_single_step_expansion(self):
        cfg, aa, ao, x_in, w, _ = small_fixture(0, steps=1)
        x_final, tape = forward_unroll(x_in, w, aa, ao, cfg)
        x0 = x_in @ w
        mixed = aa @ x0
        coupling = cfg.alpha * x0 + mixed + x0 @ ao.T + mixed @ ao.T
        expected = (1.0 - cfg.d * cfg.dt) * x0 + cfg.dt * np.tanh(cfg.u * coupling) + cfg.dt * x0
        np.testing.assert_allclose(x_final, expected, atol=1e-14)
        assert len(tape.states) == 2

    def test_zero_encoder_stays_at_zero(self):
        cfg, aa, ao, x_in, _, _ = small_fixture(1, steps=6)
        w = np.zeros((x_in.shape[1], 3))
        x_final, tape = forward_unroll(x_in, w, aa, ao, cfg)
        np.testing.assert_array_equal(x_final, np.zeros_like(x_final))
        for s in tape.states:
            np.testing.assert_array_equal(s, np.zeros_like(s))

    def test_matches_generic_integrator(self):
        # bit-exact against a plain-numpy Euler loop written out in full
        cfg, aa, ao, x_in, w, _ = small_fixture(2, na=16, steps=8)
        x_final, tape = forward_unroll(x_in, w, aa, ao, cfg)
        x0 = x_in @ w
        x = x0
        states, preacts = [x0], []
        for _ in range(cfg.steps):
            mixed = aa @ x
            z = cfg.u * (cfg.alpha * x + mixed + x @ ao.T + mixed @ ao.T)
            x = x + cfg.dt * (-cfg.d * x + np.tanh(z) + x0)
            states.append(x)
            preacts.append(z)
        np.testing.assert_array_equal(x_final, x)
        assert len(tape.states) == len(states)
        for got, want in zip(tape.states, states):
            np.testing.assert_array_equal(got, want)
        assert len(tape.preacts) == len(preacts)
        for got, want in zip(tape.preacts, preacts):
            np.testing.assert_array_equal(got, want)

    def test_determinism(self):
        cfg, aa, ao, x_in, w, _ = small_fixture(3)
        a = forward_unroll(x_in, w, aa, ao, cfg)[0]
        b = forward_unroll(x_in, w, aa, ao, cfg)[0]
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", ["agent", "agent-graph", "option"])
    def test_rejects_a_misshaped_coupling_before_any_rhs_call(self, bad, monkeypatch):
        calls = collections.Counter()

        def counted(*args):
            calls["rhs_bimp"] += 1
            return kernels.rhs_bimp(*args)

        monkeypatch.setattr(train, "rhs_bimp", counted)
        cfg, aa, ao, x_in, w, _ = small_fixture(3)
        forward_unroll(x_in, w, aa, ao, cfg)
        assert calls["rhs_bimp"] == cfg.steps
        calls.clear()
        aa, ao = {"agent": (np.eye(5), ao), "agent-graph": (from_edge_list([], 7), ao),
                  "option": (aa, np.eye(2))}[bad]
        with pytest.raises(ValueError, match=f"{bad.split('-')[0]} coupling must be"):
            forward_unroll(x_in, w, aa, ao, cfg)
        assert calls["rhs_bimp"] == 0


class TestMseLoss:
    def test_zero_at_target(self):
        x = np.ones((2, 2))
        assert mse_loss(x, x) == 0.0

    def test_scalar_formula(self):
        assert mse_loss(np.array([[1.0]]), np.array([[0.0]])) == 0.5

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        x, t = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        brute = sum(
            (x[i, j] - t[i, j]) ** 2 for i in range(3) for j in range(4)
        ) / (2 * 12)
        assert mse_loss(x, t) == pytest.approx(brute, rel=1e-12)


class TestBackwardGrad:
    def test_zero_depth_is_linear_least_squares(self):
        cfg, aa, ao, x_in, w, target = small_fixture(5, steps=0)
        x_final, tape = forward_unroll(x_in, w, aa, ao, cfg)
        grad = backward_grad(tape, target, cfg)
        expected = x_in.T @ (x_final - target) / x_final.size
        np.testing.assert_allclose(grad, expected, atol=1e-14)

    def test_matches_finite_differences(self):
        cfg, aa, ao, x_in, w, target = small_fixture(6, na=16, no=4, steps=8)
        rep = gradient_check(x_in, w, aa, ao, target, cfg)
        assert rep.rel_error < 1e-5

    def test_within_analytic_bound(self):
        for seed in range(5):
            cfg, aa, ao, x_in, w, target = small_fixture(seed + 10, steps=6, dt=0.1)
            rep = gradient_check(x_in, w, aa, ao, target, cfg)
            assert rep.inf_norm <= rep.bound

    def test_tape_mismatch_rejected(self):
        cfg, aa, ao, x_in, w, target = small_fixture(7, steps=2)
        _, tape = forward_unroll(x_in, w, aa, ao, cfg)
        with pytest.raises(ValueError, match="target shape"):
            backward_grad(tape, np.zeros((2, 2)), cfg)
        short = dataclasses.replace(tape, preacts=tape.preacts[:-1])
        with pytest.raises(ValueError, match="unroll depth"):
            backward_grad(short, target, cfg)

    @settings(max_examples=60)
    @given(st.booleans(), st.integers(1, 5), st.integers(1, 4), st.integers(0, 12),
           st.floats(0.0, 3.0), st.floats(0.01, 0.9), st.integers(0, 2**32 - 1))
    def test_equals_the_reverse_loop_that_recomputes_the_preactivations(
        self, attention, n_per_block, n_options, steps, alpha, dt, seed
    ):
        rng = np.random.default_rng(seed)
        n = 2 * n_per_block
        cfg = TrainConfig(lr=0.0, epochs=0, steps=steps, dt=dt, d=1.0, alpha=alpha)
        x_in = rng.uniform(-1, 1, (n, 3))
        w = rng.uniform(-1, 1, (3, n_options))
        target = rng.uniform(-1, 1, (n, n_options))
        if attention:
            graph = make_sbm_task(n_per_block, 0.8, 0.3, noise=0.1, seed=seed).graph
            weights = init_attention_weights(4, n_options, seed=seed)
            aa = build_communication_attention(x_in @ w, weights, graph)
        else:
            aa = random_row_stochastic(n, rng, zero_diagonal=False)
        ao = random_row_stochastic(n_options, rng, zero_diagonal=False)
        _, tape = forward_unroll(x_in, w, aa, ao, cfg)
        # oracle: the same reverse loop, recomputing each pre-activation from the states
        grad_state = (tape.states[-1] - target) / tape.states[-1].size
        grad_x0 = np.zeros_like(grad_state)
        for t in range(cfg.steps, 0, -1):
            grad_x0 += cfg.dt * grad_state
            z = cfg.u * coupling(tape.states[t - 1], aa, ao, cfg.alpha)
            h = cfg.dt * grad_state * (1.0 / np.cosh(z)) ** 2
            grad_state = (1.0 - cfg.d * cfg.dt) * grad_state + cfg.u * oracles.coupling_adjoint(
                h, aa, ao, cfg.alpha
            )
        assert np.array_equal(encoding_grad(tape, target, cfg), grad_x0 + grad_state)

    def test_reverse_step_makes_one_adjoint_and_no_forward_coupling(self, monkeypatch):
        cfg, aa, ao, x_in, w, target = small_fixture(11, steps=7)
        _, tape = forward_unroll(x_in, w, aa, ao, cfg)
        calls = count_couplings_by_operand(tape, monkeypatch)
        encoding_grad(tape, target, cfg)
        assert calls == {"transposed": cfg.steps}


class TestFiniteDifference:
    def test_quadratic_toy(self):
        # A 1-agent, 1-option, zero-depth fixture with x_in = sqrt(2)
        # makes the loss exactly w^2, whose derivative at w = 3 is 6.
        cfg = TrainConfig(lr=0.0, epochs=0, steps=0, dt=0.1, d=1.0, alpha=1.0)
        x_in = np.array([[np.sqrt(2.0)]])
        target = np.array([[0.0]])
        aa = np.ones((1, 1))
        ao = np.ones((1, 1))
        w = np.array([[3.0]])
        fd = finite_difference_grad(x_in, w, target, aa, ao, cfg, h=1e-5)
        assert fd[0, 0] == pytest.approx(6.0, abs=1e-8)

    @pytest.mark.parametrize("h", [0.0, -1e-5, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, h):
        cfg, aa, ao, x_in, w, target = small_fixture(8, steps=1)
        with pytest.raises(ValueError, match="difference step h must be finite and positive"):
            finite_difference_grad(x_in, w, target, aa, ao, cfg, h=h)

    def test_error_shrinks_quadratically_with_h(self):
        cfg, aa, ao, x_in, w, target = small_fixture(8, steps=3)
        _, tape = forward_unroll(x_in, w, aa, ao, cfg)
        exact = backward_grad(tape, target, cfg)
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            fd = finite_difference_grad(x_in, w, target, aa, ao, cfg, h=h)
            errs.append(np.max(np.abs(fd - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


class TestGradientBound:
    def test_zero_norms_give_zero(self):
        cfg = TrainConfig(lr=0.0, epochs=0, steps=8, dt=0.1, d=1.0, alpha=1.0)
        assert gradient_upper_bound(cfg, 0.0, 0.0, 0.0, 4, 2) == 0.0

    def test_arithmetic_example(self):
        # M = 8, dt = 0.1, u = 0.25, all norms 1:
        # (0.8 + 1.8 + 1.0) * (1 + 0.8) * (1 + 0.2) / (Na No)
        cfg = TrainConfig(lr=0.0, epochs=0, steps=8, dt=0.1, d=1.0, alpha=1.0)
        assert cfg.u == 0.25
        expected = (0.8 + 1.8 + 1.0) * 1.8 * 1.2
        assert gradient_upper_bound(cfg, 1.0, 1.0, 1.0, 1, 1) == pytest.approx(
            expected, rel=1e-12
        )

    def test_bound_nonnegative(self):
        cfg = TrainConfig(lr=0.0, epochs=0, steps=2, dt=0.05, d=0.5, alpha=0.0)
        assert gradient_upper_bound(cfg, 0.3, 0.1, 0.2, 3, 2) >= 0.0


class TestJacobianChain:
    def test_per_step_jacobian_stays_near_identity_scaling(self):
        # one-step chain norm is within dt * u * (|alpha - 1| + 4) of the
        # damped identity factor
        cfg, aa, ao, x_in, w, _ = small_fixture(9, steps=1)
        _, tape = forward_unroll(x_in, w, aa, ao, cfg)
        j = oracles.step_jacobian(tape.states[0], aa, ao, cfg)
        base = (1.0 - cfg.d * cfg.dt) * np.eye(j.shape[0])
        drift = np.max(np.sum(np.abs(j - base), axis=1))
        assert drift <= cfg.dt * cfg.u * (abs(cfg.alpha - 1.0) + 4.0) + 1e-12

    def test_deep_chain_does_not_vanish(self):
        cfg = TrainConfig(lr=0.0, epochs=0, steps=128, dt=0.05, d=1.0, alpha=1.0, seed=0)
        rng = np.random.default_rng(20)
        aa = random_row_stochastic(8, rng, zero_diagonal=False)
        ao = random_row_stochastic(3, rng, zero_diagonal=False)
        x_in = rng.uniform(-1, 1, (8, 3))
        w = rng.uniform(-1, 1, (3, 3))
        _, tape = forward_unroll(x_in, w, aa, ao, cfg)
        assert jacobian_chain_norm(tape, cfg) >= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8), st.integers(1, 4), st.integers(0, 16), st.integers(0, 2**32 - 1),
        st.sampled_from([0.05, 0.1]), st.floats(0.5, 1.5), st.floats(0.0, 2.0),
    )
    def test_reverse_sweep_matches_the_dense_product(self, na, no, steps, seed, dt, d, alpha):
        cfg, aa, ao, x_in, w, _ = small_fixture(
            seed, na=na, no=no, steps=steps, dt=dt, d=d, alpha=alpha
        )
        _, tape = forward_unroll(x_in, w, aa, ao, cfg)
        dense = np.max(np.sum(np.abs(oracles.jacobian_chain(tape, cfg)), axis=1))
        assert jacobian_chain_norm(tape, cfg) == pytest.approx(dense, rel=1e-12)

    def test_chain_norm_on_an_attention_graph_tape(self):
        # train_sgd's tapes hold the agent attention as a Graph, whose
        # product takes the reverse sweep's stack of cotangents
        task = make_sbm_task(4, 0.6, 0.2, noise=0.3, seed=5)
        cfg = TrainConfig(lr=0.0, epochs=0, steps=12, dt=0.1, d=1.0, alpha=1.0, seed=5)
        w = np.random.default_rng(5).uniform(-0.5, 0.5, (2, 2))
        x0 = task.x_in @ w
        aa = build_communication_attention(
            x0, init_attention_weights(train.ATTENTION_DIM, 2, seed=5), task.graph
        )
        ao = build_option_attention(
            x0, init_attention_weights(train.ATTENTION_DIM, task.graph.n, seed=6)
        )
        assert isinstance(aa, Graph)
        _, tape = forward_unroll(task.x_in, w, aa, ao, cfg)
        dense = np.max(np.sum(np.abs(oracles.jacobian_chain(tape, cfg)), axis=1))
        assert jacobian_chain_norm(tape, cfg) == pytest.approx(dense, rel=1e-12)

    def test_chain_norm_leaves_no_plan_that_grows_with_the_stack(self, monkeypatch):
        # the sweep multiplies a stack of 400 cotangents, 800 columns, by
        # aa.T; a plan that repeated each weight across them would take 22 MB
        task = make_sbm_task(100, 0.1, 0.02, noise=0.3, seed=5)
        cfg = TrainConfig(lr=0.0, epochs=0, steps=2, dt=0.1, d=1.0, alpha=1.0, seed=5)
        w = np.random.default_rng(5).uniform(-0.5, 0.5, (2, 2))
        x0 = task.x_in @ w
        aa = build_communication_attention(
            x0, init_attention_weights(train.ATTENTION_DIM, 2, seed=5), task.graph
        )
        ao = build_option_attention(
            x0, init_attention_weights(train.ATTENTION_DIM, task.graph.n, seed=6)
        )
        _, tape = forward_unroll(task.x_in, w, aa, ao, cfg)
        norm = jacobian_chain_norm(tape, cfg)

        def plan_bytes(*plans):
            return sum(t.nbytes + wt.nbytes for blocks, _, _ in plans for t, wt in blocks)

        for g in (aa, aa.T):
            g @ x0
            assert plan_bytes(*g._plans.values()) <= 3 * plan_bytes(g._plans[x0.shape])

        def oracle_product(g, x):
            return np.moveaxis(oracles.graph_product(g, np.moveaxis(x, -2, 0)), 0, -2)

        monkeypatch.setattr(Graph, "__matmul__", oracle_product)
        assert jacobian_chain_norm(tape, cfg) == norm

    def test_chain_norm_makes_no_encoding_gradient_call(self, monkeypatch):
        # the benchmark counts reverse updates through encoding_grad; the
        # chain norm sweeps the reverse step on its own
        cfg, aa, ao, x_in, w, _ = small_fixture(4, steps=5)
        _, tape = forward_unroll(x_in, w, aa, ao, cfg)
        calls = count_couplings_by_operand(tape, monkeypatch)
        monkeypatch.setattr(train, "encoding_grad", None)
        jacobian_chain_norm(tape, cfg)
        assert calls == {"transposed": cfg.steps}


class TestSbmTask:
    def test_disjoint_cliques(self):
        task = make_sbm_task(3, 1.0, 0.0, noise=0.0, seed=0)
        a = dense_adjacency(task.graph)
        assert np.all(a[:3, 3:] == 0) and np.all(a[3:, :3] == 0)
        block = a[:3, :3]
        assert np.all(block + np.eye(3) == 1.0)

    def test_zero_noise_features_are_separable(self):
        task = make_sbm_task(4, 0.9, 0.1, noise=0.0, seed=1)
        np.testing.assert_array_equal(task.x_in, task.target)

    def test_seed_reproducibility(self):
        t1 = make_sbm_task(5, 0.8, 0.05, noise=0.1, seed=42)
        t2 = make_sbm_task(5, 0.8, 0.05, noise=0.1, seed=42)
        np.testing.assert_array_equal(t1.x_in, t2.x_in)
        assert t1.graph.to_edge_list() == t2.graph.to_edge_list()

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="p_in"):
            make_sbm_task(3, 1.5, 0.0, noise=0.0, seed=0)

    @pytest.mark.parametrize("noise", [-1.0, -1e-300, math.nan, math.inf])
    def test_noise_must_be_finite_and_nonnegative(self, noise):
        with pytest.raises(ValueError, match="noise must be finite and nonnegative"):
            make_sbm_task(3, 1.0, 0.0, noise=noise, seed=0)

    @pytest.mark.parametrize("n_per_block, seed, p_in, p_out", [
        *((15, seed, p_in, p_out) for p_in, p_out in ((0.8, 0.05), (0.3, 0.3), (1.0, 0.0),
                                                      (0.05, 0.6)) for seed in (0, 1, 3, 17)),
        # 179,700 pairs, drawn in three runs
        (300, 5, 0.03, 0.004),
        (300, 6, 0.01, 0.05),
        (1, 0, 0.5, 0.5),
        (1, 2, 1.0, 0.0),
        (1, 4, 0.0, 1.0),
    ])
    def test_same_dataset_as_one_draw_per_pair_in_a_loop(self, n_per_block, seed, p_in, p_out):
        noise = 0.1
        rng = np.random.default_rng(seed)
        n = 2 * n_per_block
        labels = np.repeat([0, 1], n_per_block)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.uniform() < (p_in if labels[i] == labels[j] else p_out):
                    edges += [(i, j, 1.0), (j, i, 1.0)]
        expected = from_edge_list(edges, n)
        x_in = np.eye(2)[labels] + noise * rng.standard_normal((n, 2))
        task = make_sbm_task(n_per_block, p_in, p_out, noise=noise, seed=seed)
        for field in ("offsets", "targets", "weights"):
            np.testing.assert_array_equal(getattr(task.graph, field), getattr(expected, field))
        np.testing.assert_array_equal(task.x_in, x_in)

    def test_set_up_memory_grows_with_the_edges_not_the_pairs(self):
        # 1,999,000 pairs and 67,974 edges: arrays over every pair would
        # take about 80 MB
        make_sbm_task(1, 0.5, 0.5, noise=0.1, seed=0)
        tracemalloc.start()
        try:
            make_sbm_task(1000, 0.03, 0.004, noise=0.1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestTrainSgd:
    def test_zero_learning_rate_keeps_weights(self):
        task = make_sbm_task(5, 0.8, 0.05, noise=0.1, seed=2)
        cfg = TrainConfig(lr=0.0, epochs=5, steps=4, dt=0.1, d=1.0, alpha=1.0, seed=2)
        _, history = train_sgd(task, cfg)
        losses = [l for l, _ in history]
        assert all(l == losses[0] for l in losses)

    def test_reference_run_reaches_high_accuracy(self):
        task = make_sbm_task(10, 0.8, 0.05, noise=0.1, seed=1)
        cfg = TrainConfig(lr=0.1, epochs=200, steps=8, dt=0.1, d=1.0, alpha=1.0, seed=1)
        _, history = train_sgd(task, cfg)
        assert history[-1][1] >= 0.9

    def test_loss_decreases_on_every_seed(self):
        for seed in range(1, 11):
            task = make_sbm_task(10, 0.8, 0.05, noise=0.1, seed=seed)
            cfg = TrainConfig(lr=0.1, epochs=40, steps=8, dt=0.1, d=1.0, alpha=1.0, seed=seed)
            _, history = train_sgd(task, cfg)
            assert history[-1][0] < history[0][0]

    def test_divergence_aborts_with_epoch(self):
        task = make_sbm_task(5, 0.8, 0.05, noise=0.1, seed=3)
        cfg = TrainConfig(lr=1e9, epochs=50, steps=8, dt=0.1, d=1.0, alpha=1.0, seed=3)
        with pytest.raises(NumericalError, match="epoch"):
            with np.errstate(over="ignore", invalid="ignore"):
                train_sgd(task, cfg)

    def test_divergence_inside_the_unroll_reports_the_epoch(self):
        task = make_sbm_task(5, 0.8, 0.05, noise=0.1, seed=3)
        huge = dataclasses.replace(task, x_in=task.x_in * 1e307)
        cfg = TrainConfig(lr=0.1, epochs=5, steps=8, dt=0.1, d=1.0, alpha=1.0, seed=3)
        # the attention build overflows on such features as well
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="diverged at epoch 0") as info:
                train_sgd(huge, cfg)
        # the encoded start is already beyond the integrator's magnitude limit
        assert str(info.value.__cause__) == "state norm above 1e+50 at step 0"

    def test_training_never_builds_a_dense_agent_coupling(self, monkeypatch):
        product = Graph.__matmul__

        def sparse_only(self, x):
            # g @ I is the package's one route to an n-by-n form of a graph
            if np.shape(x) == self.shape:
                raise AssertionError("dense agent coupling built during training")
            return product(self, x)

        task = make_sbm_task(20, 0.3, 0.05, noise=0.1, seed=4)
        cfg = TrainConfig(lr=0.1, epochs=2, steps=8, dt=0.1, d=1.0, alpha=1.0, seed=4)
        monkeypatch.setattr(Graph, "__matmul__", sparse_only)
        _, history = train_sgd(task, cfg)
        assert len(history) == 3 and history[-1][0] < history[0][0]

    def test_history_csv(self, tmp_path):
        path = tmp_path / "hist.csv"
        save_history_csv([(0.5, 0.5), (0.25, 1.0)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert lines[1] == "0,0.5,0.5"
