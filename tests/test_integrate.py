import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odyn.analysis import grandpp_closed_form, opinion_diameter, scrambling_check
from odyn.errors import NumericalError
from odyn.fixtures import toy_graph, toy_initial_state
from odyn.graphs import from_edge_list
from odyn.integrate import (
    CHUNK_ROWS,
    MAGNITUDE_LIMIT,
    Trajectory,
    euler_integrate,
    rk4_integrate,
    save_metrics_csv,
    save_trajectory_csv,
)
from odyn.kernels import KERNEL_TAGS, KernelSetup, kernel_reads, kernel_setup
from oracles import laplacian


def scalar_decay(s):
    return -s


class TestEuler:
    def test_single_step_definition(self):
        setup = kernel_setup("bimp", toy_graph(), toy_initial_state(), b=toy_initial_state())
        x0 = toy_initial_state()
        dt = 1e-3
        traj = euler_integrate(setup, dt, 1)
        expected = x0 + dt * setup.rhs(x0)
        np.testing.assert_array_equal(traj.states[-1], expected)

    def test_trajectory_contract(self):
        traj = euler_integrate(KernelSetup(scalar_decay, np.ones((2, 1))), 0.1, 10, record_every=2)
        # the times are float64 with the bits of k * dt, one per snapshot of the block
        assert traj.times.dtype == np.float64
        assert traj.times.tolist() == [k * 0.1 for k in range(0, 11, 2)]
        assert traj.states.shape == (6, 2, 1)

    def test_step_guard_triggers_exactly_at_one_over_d(self):
        setup = kernel_setup("bimp", toy_graph(), toy_initial_state(), d=2.0)
        with pytest.raises(ValueError, match="1/d"):
            euler_integrate(setup, 0.5, 10)
        # strictly below the threshold is accepted
        euler_integrate(setup, 0.499, 10)

    def test_zero_steps_is_the_initial_snapshot(self):
        x0 = toy_initial_state()

        def never_called(s):
            raise AssertionError("a zero-step run evaluated the right-hand side")

        setup = KernelSetup(never_called, x0, damping=1.0)
        for integrate in (euler_integrate, rk4_integrate):
            traj = integrate(setup, 0.05, 0)
            assert traj.times.tolist() == [0.0]
            assert traj.states.shape == (1, *x0.shape)
            np.testing.assert_array_equal(traj.states[0], x0)
            with pytest.raises(ValueError, match="nonnegative"):
                integrate(setup, 0.05, -1)

    def test_nonfinite_abort_reports_step(self):
        def blow_up(s):
            with np.errstate(over="ignore"):
                return s**2

        with pytest.raises(NumericalError, match="step"):
            euler_integrate(KernelSetup(blow_up, np.array([[4.0]])), 1.0, 400)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_finite_runaway_ends_at_the_magnitude_limit(self, sign):
        # the state doubles every step, and 2**167 is the first power above 1e50
        assert 2.0**166 <= MAGNITUDE_LIMIT < 2.0**167
        with pytest.raises(NumericalError, match=r"^state norm above 1e\+50 at step 167$"):
            euler_integrate(KernelSetup(lambda s: s, np.array([[sign]])), 1.0, 400)
        with pytest.raises(NumericalError, match=r"^stage norm above 1e\+50 at step 1$"):
            rk4_integrate(KernelSetup(lambda s: s, np.array([[sign * 1e50]])), 2.0, 3)

    @pytest.mark.parametrize("start, message", [
        (1e308, r"^state norm above 1e\+50 at step 0$"),
        (-1e51, r"^state norm above 1e\+50 at step 0$"),
        (math.nan, r"^non-finite state at step 0$"),
    ])
    def test_the_initial_state_passes_the_step_check(self, start, message):
        def never_called(s):
            raise AssertionError("a rejected start evaluated the right-hand side")

        setup = KernelSetup(never_called, np.array([[0.0], [start]]))
        for integrate in (euler_integrate, rk4_integrate):
            for steps in (0, 5):
                with pytest.raises(NumericalError, match=message):
                    integrate(setup, 0.1, steps)

    def test_subsampled_recording_is_bit_exact(self):
        setup = kernel_setup("bimp", toy_graph(), toy_initial_state(), b=toy_initial_state())
        dense = euler_integrate(setup, 0.05, 12, record_every=1)
        sparse = euler_integrate(setup, 0.05, 12, record_every=3)
        for k, (t, x) in enumerate(zip(sparse.times, sparse.states)):
            assert t == dense.times[3 * k]
            np.testing.assert_array_equal(x, dense.states[3 * k])

    @pytest.mark.parametrize("steps, every", [(0, 1), (12, 3), (13, 5)])
    def test_snapshots_are_slots_of_one_block_that_later_steps_leave_alone(self, steps, every):
        setup = kernel_setup("bimp", toy_graph(), toy_initial_state(), b=toy_initial_state())
        traj = euler_integrate(setup, 0.05, steps, record_every=every)
        assert traj.states.shape == (steps // every + 1, 3, 3)
        assert traj.times.tolist() == [k * 0.05 for k in range(0, steps + 1, every)]
        # each slot keeps the state of its own step
        x = toy_initial_state()
        for k in range(1, steps + 1):
            x = x + 0.05 * setup.rhs(x)
            if k % every == 0:
                np.testing.assert_array_equal(traj.states[k // every], x)

    def test_state_bound_under_damped_saturated_dynamics(self):
        # |x_i(M dt)| <= |x_i(0)| + M (1 + |x_i(0)|) dt when the damping
        # satisfies d dt < 1: each step adds at most dt from the saturated
        # term and dt |x0| from the source.
        x0 = toy_initial_state()
        setup = kernel_setup("bimp", toy_graph(), x0, d=1.0, alpha=1.0, b=x0)
        dt, steps = 0.05, 400
        traj = euler_integrate(setup, dt, steps, record_every=400)
        bound = np.abs(x0) + steps * dt * (1.0 + np.abs(x0))
        assert np.all(np.abs(traj.states[-1]) <= bound)

    def test_toy_saturated_run_keeps_features_distinct(self):
        x0 = toy_initial_state()
        setup = kernel_setup("bimp", toy_graph(), x0, b=x0)
        traj = euler_integrate(setup, 0.05, 400)
        assert opinion_diameter(traj.states[-1]) > 0.05
        x_end = traj.states[-1]
        gaps = [
            np.linalg.norm(x_end[i] - x_end[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert min(gaps) > 0.01


class TestRk4:
    def test_scalar_exponential(self):
        traj = rk4_integrate(KernelSetup(scalar_decay, np.array([[1.0]])), 0.1, 10)
        assert traj.states[-1][0, 0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_euler_error_scales_linearly_in_dt(self):
        x0 = toy_initial_state()
        setup = kernel_setup("bimp", toy_graph(), x0, b=x0)

        def gap(dt, steps):
            e = euler_integrate(setup, dt, steps, record_every=steps)
            r = rk4_integrate(setup, dt, steps, record_every=steps)
            return np.max(np.abs(e.states[-1] - r.states[-1]))

        ratio = gap(0.04, 50) / gap(0.02, 100)
        assert 1.5 <= ratio <= 2.5

    def test_matches_euler_recording_contract(self):
        traj = rk4_integrate(KernelSetup(scalar_decay, np.ones((2, 2))), 0.1, 9, record_every=3)
        np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9], atol=1e-12)

    def test_nonfinite_stage_is_caught_before_rhs(self):
        seen_finite = []

        def huge(s):
            seen_finite.append(bool(np.isfinite(s).all()))
            return np.full_like(s, 1e308)

        # the first stage, 1 + (dt / 2) * 1e308, overflows
        with pytest.raises(NumericalError, match="^non-finite stage at step 1$"):
            rk4_integrate(KernelSetup(huge, np.array([[1.0]])), 4.0, 3)
        assert seen_finite == [True]


class TestOrder:
    """Halving dt divides the error at T = 2 by 2 for Euler and 16 for RK4.

    The system is dX/dt = -L X + B on a random connected undirected graph,
    against its modal solution.  The error is the Frobenius norm, which
    sums the squared errors of the orthogonal modes, so its ratio lies
    between the per-mode ratios.  At the coarser step every mode has
    z = dt * lambda <= 0.25 for RK4, where its ratio is 16 to 17.8, and
    z <= 0.05 with T * lambda * z <= 0.2 for Euler, where it is 1.9 to 2.04.
    """

    T = 2.0
    BANDS = {"euler": (1.8, 2.25), "rk4": (14.0, 19.0)}

    @settings(max_examples=20)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_halving_the_step_divides_the_error_by_the_order(self, n, o, seed):
        rng = np.random.default_rng(seed)
        # a random spanning tree and random extra edges, weights in [0.1, 1]
        pairs = {(int(rng.integers(i)), i) for i in range(1, n)}
        pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < 0.3}
        edges = []
        for i, j in sorted(pairs):
            w = float(rng.uniform(0.1, 1.0))
            edges += [(i, j, w), (j, i, w)]
        g = from_edge_list(edges, n)
        x0, b = rng.standard_normal((2, n, o))
        lap = laplacian(g)
        sol = grandpp_closed_form(lap, x0, b)
        top = float(np.linalg.eigvalsh(lap)[-1])
        setup = kernel_setup("laplacian-source", g, x0, b=b)

        def error(integrate, steps):
            traj = integrate(setup, self.T / steps, steps, record_every=steps)
            return np.linalg.norm(traj.states[-1] - sol.evaluate(traj.times[-1]))

        for name, integrate, dt in (
            ("euler", euler_integrate, min(0.05 / top, 0.1 / top**2)),
            ("rk4", rk4_integrate, 0.25 / top),
        ):
            steps = math.ceil(self.T / dt)
            lo, hi = self.BANDS[name]
            assert lo <= error(integrate, steps) / error(integrate, 2 * steps) <= hi, name


def cyclic_edges(rng, nodes):
    """A random spanning directed cycle through ``nodes`` plus random extra
    edges among them, each weighted uniformly in [0.1, 1]."""
    order = rng.permutation(nodes)
    pairs = {(int(i), int(j)) for i, j in zip(order, np.roll(order, -1))}
    pairs |= {(int(i), int(j)) for i in nodes for j in nodes if i != j and rng.uniform() < 0.3}
    return [(i, j, float(rng.uniform(0.1, 1.0))) for i, j in sorted(pairs)]


class TestConsensusLemma:
    """Linear opinion dynamics reach consensus when some node is globally reachable.

    Each Euler step of dX/dt = -L X at dt = 0.5 / max-degree multiplies by
    P = I - dt L, row-stochastic with diagonal at least 1/2.  A row-stochastic
    product Phi of n - 1 steps shrinks every option's spread by at least the
    factor 1 - delta, delta the smallest over row pairs of their best shared
    column, which ``scrambling_check`` reports.  On a spanning cycle every
    node reaches every other within n - 1 steps, so Phi is positive and
    delta > 0; on two disjoint cycles no row pair across them shares a
    column, and delta = 0.

    Rounding: a step's product, scaling and update are each off by at most
    (n + 2) eps max|X0| per entry, and P expands no error, so a window's
    end is within (n - 1)(n + 2) eps max|X0| of the exact Phi X, and its
    diameter within twice that: the allowance.
    """

    KERNELS = ("laplacian", "linear-od")

    @staticmethod
    def delta(g, dt, steps, x0):
        step = np.eye(g.n) - dt * laplacian(g)
        return scrambling_check([step] * steps, zeta=float(step[step > 0].min()), x0=x0).delta

    def diameters(self, tag, g, x0, windows):
        setup = kernel_setup(tag, g, x0)
        dt, steps = 0.5 / setup.damping, windows * (g.n - 1)
        states = euler_integrate(setup, dt, steps).states
        allowance = 2 * (g.n - 1) * (g.n + 2) * np.finfo(float).eps * float(np.max(np.abs(x0)))
        return [opinion_diameter(x) for x in states], self.delta(g, dt, steps, x0), allowance

    @settings(max_examples=100)
    @given(st.integers(2, 7), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_every_window_shrinks_the_diameter_by_one_minus_delta(self, n, o, seed):
        rng = np.random.default_rng(seed)
        g = from_edge_list(cyclic_edges(rng, np.arange(n)), n)
        x0 = rng.standard_normal((n, o))
        for tag in self.KERNELS:
            diam, delta, allowance = self.diameters(tag, g, x0, windows=20)
            assert delta > 0.0
            for t in range(len(diam) - n + 1):
                assert diam[t + n - 1] <= (1.0 - delta) * diam[t] + allowance, (tag, t)

    @settings(max_examples=50)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_two_disjoint_cycles_keep_the_diameter_above_zero(self, n1, n2, o, seed):
        rng = np.random.default_rng(seed)
        n = n1 + n2
        edges = cyclic_edges(rng, np.arange(n1)) + cyclic_edges(rng, np.arange(n1, n))
        g = from_edge_list(edges, n)
        # each cycle keeps its opinions in the hull of its start, [0, 1] and [2, 3]
        x0 = rng.uniform(0.0, 1.0, (n, o))
        x0[n1:] += 2.0
        for tag in self.KERNELS:
            diam, delta, allowance = self.diameters(tag, g, x0, windows=20)
            assert delta == 0.0
            assert min(diam) >= 1.0 - allowance, tag


def euler_oracle(parts, f, dt, steps):
    for _ in range(steps):
        parts = tuple(p + dt * k for p, k in zip(parts, f(parts)))
    return parts


def rk4_oracle(parts, f, dt, steps):
    for _ in range(steps):
        k1 = f(parts)
        k2 = f(tuple(p + dt / 2 * k for p, k in zip(parts, k1)))
        k3 = f(tuple(p + dt / 2 * k for p, k in zip(parts, k2)))
        k4 = f(tuple(p + dt * k for p, k in zip(parts, k3)))
        parts = tuple(
            p + dt / 6 * (a + 2 * b + 2 * c + d)
            for p, a, b, c, d in zip(parts, k1, k2, k3, k4)
        )
    return parts


SCHEMES = pytest.mark.parametrize(
    "integrate, oracle", [(euler_integrate, euler_oracle), (rk4_integrate, rk4_oracle)]
)


class TestBitExactOracle:
    """Both integrators against textbook loops on separate state components."""

    # dt / 6 and dt * (1 / 6) differ in the last bit at this step size, so
    # the comparison also pins how the update divides.
    DT = 0.04

    @SCHEMES
    def test_first_order_bimp(self, integrate, oracle):
        x0 = toy_initial_state()
        setup = kernel_setup("bimp", toy_graph(), x0, b=x0)
        traj = integrate(setup, self.DT, 300, record_every=300)
        (expected,) = oracle((x0,), lambda s: (setup.rhs(s[0]),), self.DT, 300)
        np.testing.assert_array_equal(traj.states[-1], expected)

    @SCHEMES
    def test_second_order_graphcon_tran(self, integrate, oracle):
        x0 = toy_initial_state()
        aa = toy_graph().row_normalized()
        setup = kernel_setup("graphcon-tran", toy_graph(), x0)
        traj = integrate(setup, self.DT, 300, record_every=300)

        def oscillator(s):
            x, y = s
            return y, (aa @ x - x) - y

        expected, _ = oracle((x0, np.zeros_like(x0)), oscillator, self.DT, 300)
        np.testing.assert_array_equal(traj.states[-1], expected)


class TestSecondOrderState:
    def test_velocity_integrates(self):
        # dY/dt = -X, dX/dt = Y: circular motion conserves the radius to
        # first order; just confirm both components update.  The state
        # stacks position over velocity, and snapshots see the position.
        def rot(s):
            return np.stack([s[1], -s[0]])

        setup = KernelSetup(rot, np.array([[[1.0]], [[0.0]]]), position=lambda s: s[0])
        traj = euler_integrate(setup, 0.01, 100)
        assert traj.states[-1][0, 0] == pytest.approx(math.cos(1.0), abs=1e-2)


class TestSetupFacts:
    """The integrator reads the step bound and the position view from the set-up."""

    def test_first_order_ensemble_state_records_every_member(self):
        # a (K, n, o) state is not a stacked second-order state: a first-order
        # set-up records all K members, each as if it had run on its own
        def rhs(s):
            return np.tanh(s) - s**3

        members = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 3, 2))
        traj = euler_integrate(KernelSetup(rhs, members), 0.05, 20, record_every=10)
        assert [x.shape for x in traj.states] == [(4, 3, 2)] * 3
        for k, x0 in enumerate(members):
            alone = euler_integrate(KernelSetup(rhs, x0), 0.05, 20, record_every=10)
            for x, y in zip(traj.states, alone.states):
                np.testing.assert_array_equal(x[k], y)

    @pytest.mark.parametrize("tag", KERNEL_TAGS)
    def test_every_kernel_records_its_initial_state_shape_and_carries_its_bound(self, tag):
        x0 = np.array([[0.3]]) if tag == "reduced" else toy_initial_state()
        setup = kernel_setup(tag, toy_graph(), x0, b=x0 if "b" in kernel_reads(tag) else None)
        traj = euler_integrate(setup, 0.01, 5)
        assert traj.states.shape == (6, *x0.shape)
        np.testing.assert_array_equal(traj.states[0], x0)
        if setup.damping is not None:
            with pytest.raises(ValueError, match="1/d"):
                euler_integrate(setup, 1.0 / setup.damping, 1)


class TestCsvExports:
    def test_trajectory_csv(self, tmp_path):
        traj = euler_integrate(KernelSetup(scalar_decay, np.array([[1.0, 2.0]])), 0.5, 2)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,node,option,value"
        assert lines[1] == "0.0,0,0,1.0"
        assert len(lines) == 1 + 3 * 2

    @pytest.mark.parametrize("seed", range(9))
    def test_trajectory_csv_matches_a_per_value_loop_byte_for_byte(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        shape = {6: (3, 3), 7: (200, 8), 8: (5000, 1)}.get(seed)
        if shape:
            # enough snapshots that chunks of CHUNK_ROWS rows cross and split them
            count = 2 * CHUNK_ROWS // (shape[0] * shape[1]) + 2
        else:
            shape = (1, 1) if seed == 0 else tuple(rng.integers(1, 7, size=2))
            count = int(rng.integers(1, 5))
        times, states = [], []
        for k in range(count):
            # repr's scientific range, and its positional range [1e-4, 1e16)
            wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
            positional = np.tanh(rng.standard_normal(shape)) * 10.0 ** rng.integers(-3, 16, size=shape)
            x = np.where(rng.uniform(size=shape) < 0.3, wide, positional)
            x.flat[rng.integers(x.size)] = -0.0
            x.flat[rng.integers(x.size)] = 1e-300
            times.append(k * float(rng.uniform(0.01, 0.5)))
            states.append(x)
        lines = ["t,node,option,value"]
        for t, x in zip(times, states):
            for i in range(x.shape[0]):
                for j in range(x.shape[1]):
                    lines.append(f"{t!r},{i},{j},{float(x[i, j])!r}")
        save_trajectory_csv(Trajectory(np.array(times), np.stack(states)), tmp_path / "traj.csv")
        assert (tmp_path / "traj.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_the_writer_working_set_is_bounded_per_chunk_row(self, tmp_path):
        # one snapshot of 20 chunks, square enough that its node and option
        # tables stay small: the writer holds one chunk at a time (about
        # 600 bytes per chunk row at 4096 rows), so its peak does not grow
        # with the snapshot
        x = np.tanh(np.random.default_rng(0).standard_normal((20 * CHUNK_ROWS // 256, 256)))
        traj = Trajectory(times=np.zeros(1), states=x[None])
        tracemalloc.start()
        try:
            save_trajectory_csv(traj, tmp_path / "traj.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * CHUNK_ROWS

    def test_metrics_csv(self, tmp_path):
        traj = euler_integrate(KernelSetup(scalar_decay, np.array([[1.0], [3.0]])), 0.5, 1)
        path = tmp_path / "m.csv"
        save_metrics_csv(traj.times, [7.0, 7.0], [opinion_diameter(x) for x in traj.states], path)
        assert path.read_text().splitlines() == ["t,dirichlet,diameter", "0.0,7.0,2.0",
                                                 "0.5,7.0,1.0"]
