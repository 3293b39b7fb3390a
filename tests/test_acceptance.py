"""Acceptance gate: one test per release criterion, each printing its verdict.

The critical-consensus gate fails by design: at the critical attention
value the origin is only algebraically attracting, so the strict 1e-3
norm threshold is unreachable at T = 200 (see README).  The gate is kept
faithful rather than loosened, and its test checks what it promises
instead of its passing: the threshold is still 1e-3, the verdict matches
the measurement, and the measured worst norm agrees within 1% with an
oracle that integrates the reduced dynamics along the consensus mode.
"""
import math

import numpy as np
import pytest

from odyn import acceptance
from odyn.fixtures import random_row_stochastic, toy_adjacency, toy_graph
from odyn.integrate import euler_integrate
from odyn.kernels import kernel_setup

# every check of the battery as (criterion, quantity, relation, threshold),
# in order, so that no gate moves silently
CHECKS = [
    ("toy-figure", "laplacian terminal diameter", "<", 1e-2),
    ("toy-figure", "oscillator terminal / laplacian diameter at t=5", "<", 1.0),
    ("toy-figure", "oscillator terminal diameter", "<", 1e-2),
    ("toy-figure", "source-kernel diameter/mean ratio rises after t=1", "==", 0),
    ("toy-figure", "source-kernel diameter/mean ratio, end / start", "<", 1.0),
    ("toy-figure", "saturated terminal diameter", ">", 0.05),
    ("toy-figure", "runtime seconds", "<", 1.0),
    ("leading-eigenvalue", "worst |eigenvalue - 4|", "<=", 1e-8),
    ("leading-eigenvalue", "runtime seconds", "<", 1.0),
    ("bifurcation-structure", "sweep points below u=0.24 without 1 equilibrium", "==", 0),
    ("bifurcation-structure", "sweep points above u=0.26 without 3 equilibria", "==", 0),
    ("bifurcation-structure", "sweep points above u=0.26 without an unstable origin", "==", 0),
    ("bifurcation-structure", "equilibria at u=0.5 off stable, unstable, stable", "==", 0),
    ("bifurcation-structure", "|lower branch + 0.9575| at u=0.5", "<=", 1e-3),
    ("bifurcation-structure", "|upper branch - 0.9575| at u=0.5", "<=", 1e-3),
    ("bifurcation-structure", "runtime seconds", "<", 1.0),
    ("critical-consensus", "worst |X(200)|_inf", "<", 1e-3),
    ("dissensus-input", "min row gap rel change, t=100 to t=200", "<", 0.01),
    ("dissensus-input", "min row gap at t=200", ">=", 0.01),
    ("energy-stability", "laplacian end energy", "<", 1e-6),
    ("energy-stability", "saturated energy / its step-100 value, min", ">", 0.5),
    ("energy-stability", "saturated energy / its step-100 value, max", "<", 2.0),
    ("energy-stability", "runtime seconds", "<", 5.0),
    ("gradient-suite", "worst rel err", "<", 1e-5),
    ("gradient-suite", "worst bound margin", ">=", 0.0),
    ("gradient-suite", "depth-128 chain norm", ">=", 1e-6),
    ("gradient-suite", "runtime seconds", "<", 10.0),
    ("closed-form", "max |numeric - modal|", "<=", 5e-3),
    ("closed-form", "kernel-mode slope error", "<=", 1e-6),
    ("scrambling-contraction", "delta", ">", 0.0),
    ("scrambling-contraction", "window-boundary diameter rises", "==", 0),
    ("scrambling-contraction", "log-diameter slope", "<", 0.0),
    ("saturation-validity", "saturations in accepted xor {arctan, softsign, tanh}", "==", 0),
    ("saturation-validity", "accepted among sigmoid, relu, gelu, identity", "==", 0),
    ("rhs-equivalence", "worst pairwise difference", "<=", 1e-12),
    ("training-smoke", "terminal accuracy", ">=", 0.9),
    ("training-smoke", "runtime seconds", "<", 30.0),
]


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in acceptance.run_all()}


def test_every_check_keeps_its_threshold_and_the_verdict_is_all_checks(results):
    got = [(r.name, c.quantity, c.relation, c.threshold)
           for r in results.values() for c in r.checks]
    assert got == CHECKS
    for r in results.values():
        assert r.passed == all(c.holds for c in r.checks), r.line()


def test_a_second_battery_in_the_same_process_repeats_every_measurement(results):
    # Only the runtime checks may move between two runs in one process.
    again = acceptance.run_all()
    assert [r.name for r in again] == list(results)
    for r in again:
        first = results[r.name]
        assert r.passed == first.passed, r.line()
        for c, c0 in zip(r.checks, first.checks, strict=True):
            assert (c.quantity, c.holds) == (c0.quantity, c0.holds), r.line()
            if c.quantity != acceptance.RUNTIME:
                assert float(c.measured).hex() == float(c0.measured).hex(), (r.name, c.quantity)


def _run(results, name):
    result = results[name]
    print(result.line())
    assert result.passed, result.line()
    return result


def test_acceptance_01_toy_figure(results):
    _run(results, "toy-figure")


def test_acceptance_02_leading_eigenvalue(results):
    _run(results, "leading-eigenvalue")


def test_acceptance_03_bifurcation_structure(results):
    _run(results, "bifurcation-structure")


def _left_perron_vector(m):
    """Left eigenvector of a row-stochastic matrix for eigenvalue 1, summing to 1."""
    values, vectors = np.linalg.eig(m.T)
    pi = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
    return pi / pi.sum()


def _consensus_mode_oracle(x0, d=1.0, dt=0.05, steps=4000):
    """|y(T)| of the consensus mode y = pi_a^T X pi_o at the critical attention.

    The consensus subspace X = y 11^T is invariant for row-stochastic
    couplings, and on it the coupling sums to (alpha + 3) y, so at
    u* = d / (alpha + 3) the mode obeys y' = -d y + tanh(d y).  The
    left Perron vectors of the agent coupling (the demo adjacency) and
    of the seed-0 option coupling project X0 onto that mode.
    """
    pi_a = _left_perron_vector(toy_adjacency())
    pi_o = _left_perron_vector(random_row_stochastic(x0.shape[1], np.random.default_rng(0)))
    y = float(pi_a @ x0 @ pi_o)
    for _ in range(steps):
        y += dt * (-d * y + math.tanh(d * y))
    return abs(y)


def test_acceptance_04_critical_consensus(results):
    result = results["critical-consensus"]
    print(result.line())
    assert result.threshold == 1e-3, result.line()
    assert result.passed == (result.measured < result.threshold), result.line()
    oracle = max(_consensus_mode_oracle(x0) for x0 in acceptance.critical_consensus_starts())
    assert abs(result.measured - oracle) <= 0.01 * oracle, (result.measured, oracle)


def test_critical_consensus_union_matches_the_starts_run_one_at_a_time(monkeypatch):
    """The criterion integrates its 20 starts as one 60-node disjoint union.

    The reference runs each start on its own demo graph.  The block-diagonal
    product sums in another order, so the terminal states may differ in
    their last bits, a few ulps at |X| ~ 0.08.
    """
    runs = []

    def recording(*args, **kwargs):
        runs.append(euler_integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(acceptance, "euler_integrate", recording)
    result = acceptance.criterion_critical_consensus()
    (union,) = runs
    singles = []
    for x0 in acceptance.critical_consensus_starts():
        setup = kernel_setup("bimp", toy_graph(), x0, d=1.0, alpha=1.0, seed=0)
        traj = euler_integrate(setup, 0.05, 4000, record_every=4000)
        singles.append(traj.states[-1])
    singles = np.array(singles)
    assert np.max(np.abs(union.states[-1].reshape(20, 3, 3) - singles)) <= 1e-15
    assert abs(result.measured - np.max(np.abs(singles))) <= 1e-15


def test_acceptance_05_dissensus_input(results):
    _run(results, "dissensus-input")


def test_acceptance_06_energy_stability(results):
    result = _run(results, "energy-stability")
    # the Laplacian's end energy sits at the roundoff floor, so the line
    # reports the floor instead of digits that move with summation order
    assert result.detail == (
        "laplacian end energy < 1e-20; saturated band [0.986, 1.000] of its step-100 value"
    )


def test_acceptance_07_gradient_suite(results):
    _run(results, "gradient-suite")


def test_acceptance_08_closed_form(results):
    _run(results, "closed-form")


def test_acceptance_09_scrambling_contraction(results):
    _run(results, "scrambling-contraction")


def test_acceptance_10_saturation_validity(results):
    _run(results, "saturation-validity")


def test_acceptance_11_rhs_equivalence(results):
    _run(results, "rhs-equivalence")


def test_acceptance_12_training_smoke(results):
    _run(results, "training-smoke")
