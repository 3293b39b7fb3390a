"""Executable acceptance suite: every release gate as a checkable function.

Each criterion returns a :class:`CriterionResult` with a pass flag and a
human-readable detail line, its runtime budget in seconds, plus the
measured value and its threshold where the gate is a single number;
:func:`run_all` executes the full battery.
The pytest wrapper asserts each result (for critical-consensus, which
fails by design, its verdict and measurement) and the command-line
``verify`` subcommand serializes them to JSON.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (
    dirichlet_energy,
    grandpp_closed_form,
    opinion_diameter,
    reduced_equilibria,
    scrambling_check,
)
from .fixtures import (
    random_row_stochastic,
    toy_adjacency,
    toy_graph,
    toy_initial_state,
)
from .graphs import from_edge_list, sparse_laplacian
from .integrate import euler_integrate
from .kernels import (
    SATURATIONS,
    BimpParams,
    kernel_setup,
    nod_validity,
    rhs_bimp,
    rhs_bimp_filter_form,
    rhs_bimp_vectorized,
)
from .spectral import KroneckerOperator, power_iteration, vec
from .train import (
    TrainConfig,
    forward_unroll,
    gradient_check,
    jacobian_chain_norm,
    make_sbm_task,
    train_sgd,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    measured: float | None = None
    threshold: float | None = None
    budget: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.elapsed:.2f}s): {self.detail}"


def _timed(fn):
    def wrapper() -> CriterionResult:
        start = time.perf_counter()
        name, passed, detail, budget, *measurement = fn()
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            passed = False
            detail += f"; exceeded runtime budget {budget}s"
        return CriterionResult(name, passed, detail, elapsed, *measurement, budget=budget)

    wrapper.__name__ = fn.__name__
    return wrapper


def _nearest_index(times, t):
    return min(range(len(times)), key=lambda i: abs(times[i] - t))


@_timed
def criterion_toy_figure():
    """Linear kernels smooth the demo system out; the saturated one does not."""
    g = toy_graph()
    x0 = toy_initial_state()
    dt, steps = 0.05, 400

    lap = kernel_setup("laplacian", g, x0)
    traj_lap = euler_integrate(lap, dt, steps, diameter_fn=opinion_diameter)
    source = kernel_setup("laplacian-source", g, x0, b=x0)
    traj_source = euler_integrate(source, dt, steps, diameter_fn=opinion_diameter)
    oscillator = kernel_setup("graphcon-tran", g, x0)
    traj_osc = euler_integrate(oscillator, dt, steps, diameter_fn=opinion_diameter)
    saturated = kernel_setup("bimp", g, x0, d=1.0, alpha=1.0, b=x0, seed=0)
    traj_sat = euler_integrate(saturated, dt, steps, diameter_fn=opinion_diameter)

    lap_at_5 = traj_lap.diameter[_nearest_index(traj_lap.times, 5.0)]
    ratios = [
        traj_source.diameter[i] / float(np.mean(np.abs(traj_source.states[i])))
        for i in range(len(traj_source.times))
    ]
    start = _nearest_index(traj_source.times, 1.0)
    ratio_decreasing = all(
        ratios[i + 1] <= ratios[i] + 1e-12 for i in range(start, len(ratios) - 1)
    ) and ratios[-1] < ratios[0]

    checks = {
        "laplacian terminal diameter < 1e-2": traj_lap.diameter[-1] < 1e-2,
        "oscillator terminal < laplacian at t=5": traj_osc.diameter[-1] < lap_at_5,
        "oscillator terminal diameter < 1e-2": traj_osc.diameter[-1] < 1e-2,
        "source-kernel diameter/mean ratio decreasing": ratio_decreasing,
        "saturated terminal diameter > 0.05": traj_sat.diameter[-1] > 0.05,
    }
    detail = (
        f"diam(laplacian)={traj_lap.diameter[-1]:.2e} diam(oscillator)="
        f"{traj_osc.diameter[-1]:.2e} ratio {ratios[0]:.3f}->{ratios[-1]:.3f} "
        f"diam(saturated)={traj_sat.diameter[-1]:.3f}"
    )
    failed = [k for k, ok in checks.items() if not ok]
    if failed:
        detail += "; failed: " + "; ".join(failed)
    return "toy-figure", not failed, detail, 1.0


@_timed
def criterion_leading_eigenvalue():
    """The joint coupling operator has leading eigenvalue 4 +- 1e-8."""
    rng = np.random.default_rng(2)
    aa = toy_adjacency()
    worst = 0.0
    for _ in range(10):
        ao = random_row_stochastic(int(rng.integers(2, 7)), rng, zero_diagonal=False)
        op = KroneckerOperator.from_adjacency(aa, ao)
        res = power_iteration(op.matvec, op.dim, tol=1e-10)
        worst = max(worst, abs(res.eigenvalue - 4.0))
    return (
        "leading-eigenvalue",
        worst <= 1e-8,
        f"worst |eigenvalue - 4| = {worst:.2e} over 10 random option couplings",
        1.0,
    )


@_timed
def criterion_bifurcation_structure():
    """One equilibrium below the critical attention, three above, branches at +-0.9575."""
    d, alpha = 1.0, 1.0
    ok = True
    notes = []
    for u in np.linspace(0.05, 0.6, 112):
        eq = reduced_equilibria(float(u), d, alpha)
        if u < 0.25 - 0.01 and len(eq) != 1:
            ok = False
            notes.append(f"{len(eq)} equilibria at u={u:.4f}")
        if u > 0.25 + 0.01:
            if len(eq) != 3:
                ok = False
                notes.append(f"{len(eq)} equilibria at u={u:.4f}")
            else:
                zero_stable = [s for y, s in eq if abs(y) < 1e-8]
                if zero_stable != [False]:
                    ok = False
                    notes.append(f"origin not unstable at u={u:.4f}")
    eq_half = sorted(reduced_equilibria(0.5, d, alpha))
    branches = [y for y, _ in eq_half]
    branch_ok = (
        len(eq_half) == 3
        and abs(branches[0] + 0.9575) <= 1e-3
        and abs(branches[2] - 0.9575) <= 1e-3
        and [s for _, s in eq_half] == [True, False, True]
    )
    if not branch_ok:
        ok = False
        notes.append(f"equilibria at u=0.5: {eq_half}")
    detail = f"stable branches at u=0.5: {branches[0]:.4f}, {branches[2]:.4f}" if len(branches) == 3 else ""
    if notes:
        detail += "; " + "; ".join(notes[:3])
    return "bifurcation-structure", ok, detail, 1.0


def critical_consensus_starts() -> list[np.ndarray]:
    """The 20 seeded random 3x3 starts of the critical-consensus criterion."""
    rng = np.random.default_rng(4)
    return [rng.uniform(-0.5, 0.5, size=(3, 3)) for _ in range(20)]


@_timed
def criterion_critical_consensus():
    """With zero input at the critical attention, states contract to the origin.

    The check asserts the strict threshold |X(200)|_inf < 1e-3.  At the
    critical attention the origin is only algebraically attracting (the
    leading mode decays like 1/sqrt(t)), so this threshold is far out of
    reach at T = 200 for unit damping; the criterion is kept strict and
    reports the measured norm.
    """
    threshold = 1e-3
    starts = critical_consensus_starts()
    # The starts run as one system: the disjoint union of one demo graph per
    # start, so the agent coupling is block-diagonal and no start sees another.
    toy_edges = toy_graph().to_edge_list()
    edges = [(s + 3 * c, t + 3 * c, w) for c in range(len(starts)) for s, t, w in toy_edges]
    g = from_edge_list(edges, 3 * len(starts))
    setup = kernel_setup("bimp", g, np.concatenate(starts), d=1.0, alpha=1.0, seed=0)
    traj = euler_integrate(setup, 0.05, 4000, record_every=4000)
    worst = float(np.max(np.abs(traj.states[-1])))
    return (
        "critical-consensus",
        worst < threshold,
        f"worst |X(200)|_inf = {worst:.4f} over 20 random starts (threshold 1e-3; "
        "the slow mode decays as 1/sqrt(t), see README)",
        None,
        worst,
        threshold,
    )


@_timed
def criterion_dissensus_input():
    """A distinct constant input pins a dissensus equilibrium."""
    g = toy_graph()
    x0 = toy_initial_state()
    setup = kernel_setup("bimp", g, x0, d=1.0, alpha=1.0, b=x0, seed=0)
    traj = euler_integrate(setup, 0.05, 4000, record_every=40)

    def min_row_gap(x):
        n = x.shape[0]
        return min(
            float(np.linalg.norm(x[i] - x[j]))
            for i in range(n)
            for j in range(i + 1, n)
        )

    gap_100 = min_row_gap(traj.states[_nearest_index(traj.times, 100.0)])
    gap_200 = min_row_gap(traj.states[-1])
    rel_change = abs(gap_200 - gap_100) / gap_100
    ok = rel_change < 0.01 and gap_200 >= 0.01
    return (
        "dissensus-input",
        ok,
        f"min row gap {gap_100:.4f} at t=100, {gap_200:.4f} at t=200 "
        f"(rel change {rel_change:.2e})",
        None,
    )


@_timed
def criterion_energy_stability():
    """Laplacian energy collapses; saturated-kernel energy stays in a 2x band."""
    rng = np.random.default_rng(6)
    n = 10
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.5:
                edges.append((i, j, 1.0))
                edges.append((j, i, 1.0))
    g = from_edge_list(edges, n)
    x0 = rng.uniform(0.0, 1.0, size=(n, 2))

    lap = kernel_setup("laplacian", g, x0)
    traj_lap = euler_integrate(lap, 0.05, 1000, energy_fn=lambda x: dirichlet_energy(x, g))
    sat = kernel_setup("bimp", g, x0, d=1.0, alpha=1.0, b=x0, seed=6)
    traj_sat = euler_integrate(sat, 0.05, 1000, energy_fn=lambda x: dirichlet_energy(x, g))
    lap_end = traj_lap.energy[-1]
    ref = traj_sat.energy[100]
    band = [e / ref for e in traj_sat.energy[100:]]
    ok = lap_end < 1e-6 and min(band) > 0.5 and max(band) < 2.0
    # a converged consensus ends at the roundoff floor, whose digits move with
    # the summation order; the detail line reports the floor, not those digits
    lap_text = "< 1e-20" if lap_end < 1e-20 else f"{lap_end:.2e}"
    return (
        "energy-stability",
        ok,
        f"laplacian end energy {lap_text}; saturated band "
        f"[{min(band):.3f}, {max(band):.3f}] of its step-100 value",
        5.0,
    )


@_timed
def criterion_gradient_suite():
    """Reverse gradients match finite differences, respect the bound, don't vanish."""
    rng = np.random.default_rng(42)
    worst_rel, worst_margin = 0.0, math.inf
    for k in range(20):
        na = int(rng.integers(3, 17))
        no = int(rng.integers(2, 5))
        f = int(rng.integers(2, 5))
        m = int(rng.integers(1, 17))
        dt = float(rng.choice([0.05, 0.1]))
        d = float(rng.uniform(0.5, 1.5))
        alpha = float(rng.uniform(0.0, 2.0))
        cfg = TrainConfig(lr=0.0, epochs=0, steps=m, dt=dt, d=d, alpha=alpha, seed=k)
        aa = random_row_stochastic(na, rng, zero_diagonal=False)
        ao = random_row_stochastic(no, rng, zero_diagonal=False)
        x_in = rng.uniform(-1, 1, (na, f))
        w = rng.uniform(-1, 1, (f, no)) / np.sqrt(f)
        target = rng.uniform(-1, 1, (na, no))
        rep = gradient_check(x_in, w, aa, ao, target, cfg, h=1e-5)
        worst_rel = max(worst_rel, rep.rel_error)
        worst_margin = min(worst_margin, rep.bound - rep.inf_norm)
    cfg_deep = TrainConfig(lr=0.0, epochs=0, steps=128, dt=0.05, d=1.0, alpha=1.0, seed=0)
    aa = random_row_stochastic(8, rng, zero_diagonal=False)
    ao = random_row_stochastic(3, rng, zero_diagonal=False)
    x_in = rng.uniform(-1, 1, (8, 3))
    w = rng.uniform(-1, 1, (3, 3))
    _, tape = forward_unroll(x_in, w, aa, ao, cfg_deep)
    chain = jacobian_chain_norm(tape, cfg_deep)
    ok = worst_rel < 1e-5 and worst_margin >= 0.0 and chain >= 1e-6
    return (
        "gradient-suite",
        ok,
        f"worst rel err {worst_rel:.2e}; worst bound margin {worst_margin:.3f}; "
        f"depth-128 chain norm {chain:.2e}",
        10.0,
    )


@_timed
def criterion_closed_form():
    """The modal solution matches time stepping; the kernel mode grows linearly."""
    edges = []
    for i in range(4):
        edges += [(i, i + 1, 1.0), (i + 1, i, 1.0)]
    g = from_edge_list(edges, 5)
    lap = sparse_laplacian(g) @ np.eye(g.n)
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal((5, 2))
    b = rng.standard_normal((5, 2))
    sol = grandpp_closed_form(lap, x0, b)
    setup = kernel_setup("laplacian-source", g, x0, b=b)
    traj = euler_integrate(setup, 1e-3, 5000, record_every=100)
    worst = max(
        float(np.max(np.abs(traj.states[i] - sol.evaluate(traj.times[i]))))
        for i in range(len(traj.times))
    )
    v0 = sol.eigenvectors[:, 0]
    projections = np.array([v0 @ s for s in traj.states])
    slopes = np.polyfit(np.array(traj.times), projections, 1)[0]
    slope_err = float(np.max(np.abs(slopes - sol.zero_b)))
    ok = worst <= 5e-3 and slope_err <= 1e-6
    return (
        "closed-form",
        ok,
        f"max |numeric - modal| = {worst:.2e}; kernel-mode slope error {slope_err:.2e}",
        None,
    )


@_timed
def criterion_scrambling_contraction():
    """Windowed products of positive stochastic matrices contract the diameter."""
    rng = np.random.default_rng(14)
    n, zeta, windows = 5, 0.05, 50
    mats = [
        zeta + (1.0 - n * zeta) * rng.dirichlet(np.ones(n), size=n)
        for _ in range(windows * (n - 1))
    ]
    x0 = rng.standard_normal((n, 1))
    report = scrambling_check(mats, zeta=zeta, x0=x0)
    diam = np.array(report.diameters)
    boundaries = diam[:: n - 1]
    monotone = bool(np.all(np.diff(boundaries) <= 1e-12))
    positive = diam[diam > 1e-300]
    slope = float(np.polyfit(np.arange(len(positive)), np.log(positive), 1)[0])
    ok = report.scrambling and monotone and slope < 0.0
    return (
        "scrambling-contraction",
        ok,
        f"delta={report.delta:.3f}; boundary-monotone={monotone}; "
        f"log-diameter slope {slope:.4f}",
        None,
    )


@_timed
def criterion_saturation_validity():
    """Exactly tanh, softsign, and arctan qualify as saturations."""
    verdicts = {tag: nod_validity(s) for tag, s in SATURATIONS.items()}
    accepted = {tag for tag, v in verdicts.items() if v.valid}
    expected = {"tanh", "softsign", "arctan"}
    rejected = {tag for tag in ("sigmoid", "relu", "gelu", "identity") if not verdicts[tag].valid}
    ok = accepted == expected and len(rejected) == 4
    return (
        "saturation-validity",
        ok,
        f"accepted={sorted(accepted)}; rejected="
        f"{sorted(set(verdicts) - accepted)}",
        None,
    )


@_timed
def criterion_rhs_equivalence():
    """Matrix, vectorized, and filter-split forms agree to 1e-12."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        na = int(rng.integers(2, 9))
        no = int(rng.integers(1, 6))
        aa = random_row_stochastic(na, rng, zero_diagonal=False)
        ao = random_row_stochastic(no, rng, zero_diagonal=False)
        x = rng.standard_normal((na, no))
        p = BimpParams(
            d=float(rng.uniform(0.0, 2.0)),
            alpha=float(rng.uniform(0.0, 2.5)),
            b=rng.standard_normal((na, no)),
            u=float(rng.uniform(0.05, 1.0)),
        )
        op = KroneckerOperator.from_adjacency(aa, ao)
        r_matrix = vec(rhs_bimp(x, aa, ao, p))
        r_vec = rhs_bimp_vectorized(vec(x), op, p)
        r_filter = rhs_bimp_filter_form(vec(x), op, p)
        worst = max(
            worst,
            float(np.max(np.abs(r_matrix - r_vec))),
            float(np.max(np.abs(r_vec - r_filter))),
        )
    return (
        "rhs-equivalence",
        worst <= 1e-12,
        f"worst pairwise difference {worst:.2e} over 100 fixtures",
        None,
    )


@_timed
def criterion_training_smoke():
    """Two-block task trains to at least 90% accuracy with the reference seed."""
    task = make_sbm_task(10, 0.8, 0.05, noise=0.1, seed=1)
    cfg = TrainConfig(lr=0.1, epochs=200, steps=8, dt=0.1, d=1.0, alpha=1.0, seed=1)
    _, history = train_sgd(task, cfg)
    terminal_acc = history[-1][1]
    return (
        "training-smoke",
        terminal_acc >= 0.9,
        f"terminal accuracy {terminal_acc:.4f} (loss {history[0][0]:.4f} -> "
        f"{history[-1][0]:.4f})",
        30.0,
    )


ALL_CRITERIA = (
    criterion_toy_figure,
    criterion_leading_eigenvalue,
    criterion_bifurcation_structure,
    criterion_critical_consensus,
    criterion_dissensus_input,
    criterion_energy_stability,
    criterion_gradient_suite,
    criterion_closed_form,
    criterion_scrambling_contraction,
    criterion_saturation_validity,
    criterion_rhs_equivalence,
    criterion_training_smoke,
)


def run_all() -> list[CriterionResult]:
    return [criterion() for criterion in ALL_CRITERIA]
