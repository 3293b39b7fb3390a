"""Executable acceptance suite: every release gate as a checkable function.

Each criterion returns its named :class:`Check` records, a human-readable
detail line and its runtime budget in seconds; :func:`_timed` adds the
budget as one more check, and a :class:`CriterionResult` passes when
every check holds.  :func:`run_all` executes the full battery.
A criterion that checks the package's one path for an operation keeps
an independent reference: an analytic value, or a dense form built in
the criterion (``rhs-equivalence``'s ``np.kron`` coupling).
The pytest wrapper asserts each result (for critical-consensus, which
fails by design, its verdict and measurement) and the command-line
``verify`` subcommand serializes them to JSON.
"""
from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .analysis import (
    dirichlet_energy,
    grandpp_closed_form,
    opinion_diameter,
    power_iteration,
    reduced_equilibria,
    scrambling_check,
)
from .fixtures import (
    TOY_RUNS,
    _gradient_problem,
    complete_graph,
    random_graph,
    random_row_stochastic,
    toy_graph,
    toy_initial_state,
)
from .graphs import disjoint_union, from_edge_list, sparse_laplacian
from .integrate import euler_integrate
from .kernels import (
    SATURATIONS,
    BimpParams,
    coupling,
    kernel_setup,
    nod_validity,
    rhs_bimp,
    rhs_bimp_filter_form,
)
from .train import (
    TrainConfig,
    forward_unroll,
    gradient_check,
    jacobian_chain_norm,
    make_sbm_task,
    train_sgd,
)

RELATIONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
             ">=": operator.ge, ">": operator.gt}
RUNTIME = "runtime seconds"


@dataclass(frozen=True)
class Check:
    """One gate: ``measured relation threshold``, e.g. ``worst < 1e-3``."""

    quantity: str
    measured: float
    relation: str
    threshold: float

    @property
    def holds(self) -> bool:
        return bool(RELATIONS[self.relation](self.measured, self.threshold))


@dataclass
class CriterionResult:
    name: str
    detail: str
    elapsed: float
    checks: tuple[Check, ...]
    budget: float | None = None

    @property
    def passed(self) -> bool:
        """The one verdict rule: a criterion passes when every check holds."""
        return all(c.holds for c in self.checks)

    @property
    def _gate(self) -> Check | None:
        """The criterion's check when it has exactly one besides the runtime budget."""
        gates = [c for c in self.checks if c.quantity != RUNTIME]
        return gates[0] if len(gates) == 1 else None

    @property
    def measured(self) -> float | None:
        return None if self._gate is None else self._gate.measured

    @property
    def threshold(self) -> float | None:
        return None if self._gate is None else self._gate.threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.elapsed:.2f}s): {self.detail}"


def _timed(fn):
    def wrapper() -> CriterionResult:
        start = time.perf_counter()
        name, checks, detail, budget = fn()
        elapsed = time.perf_counter() - start
        if budget is not None:
            checks = [*checks, Check(RUNTIME, elapsed, "<", budget)]
        detail += "".join(f"; failed: {c.quantity}" for c in checks if not c.holds)
        return CriterionResult(name, detail, elapsed, tuple(checks), budget)

    wrapper.__name__ = fn.__name__
    return wrapper


def _nearest_index(times, t):
    return min(range(len(times)), key=lambda i: abs(times[i] - t))


@_timed
def criterion_toy_figure():
    """Linear kernels smooth the demo system out; the saturated one does not.

    The runs are those ``odyn toy`` writes at its defaults, set up from ``TOY_RUNS``.
    """
    g = toy_graph()
    x0 = toy_initial_state()
    dt, steps = 0.05, 400
    trajs = [euler_integrate(kernel_setup(tag, g, x0, b=x0 if from_init else None), dt, steps)
             for tag, _, from_init in TOY_RUNS]
    lap, source, osc, sat = (traj.states for traj in trajs)
    times = trajs[0].times
    # only the diameters the checks read: the whole ratio series of the
    # source run, two of the laplacian run's and the last of the others
    lap_at_5 = opinion_diameter(lap[_nearest_index(times, 5.0)])
    diam_lap, diam_osc, diam_sat = (opinion_diameter(states[-1]) for states in (lap, osc, sat))
    ratios = [opinion_diameter(x) / float(np.mean(np.abs(x))) for x in source]
    start = _nearest_index(times, 1.0)
    rises = sum(ratios[i + 1] > ratios[i] + 1e-12 for i in range(start, len(ratios) - 1))

    checks = [
        Check("laplacian terminal diameter", diam_lap, "<", 1e-2),
        Check("oscillator terminal / laplacian diameter at t=5",
              diam_osc / lap_at_5, "<", 1.0),
        Check("oscillator terminal diameter", diam_osc, "<", 1e-2),
        Check("source-kernel diameter/mean ratio rises after t=1", rises, "==", 0),
        Check("source-kernel diameter/mean ratio, end / start", ratios[-1] / ratios[0], "<", 1.0),
        Check("saturated terminal diameter", diam_sat, ">", 0.05),
    ]
    detail = (
        f"diam(laplacian)={diam_lap:.2e} diam(oscillator)="
        f"{diam_osc:.2e} ratio {ratios[0]:.3f}->{ratios[-1]:.3f} "
        f"diam(saturated)={diam_sat:.3f}"
    )
    return "toy-figure", checks, detail, 1.0


@_timed
def criterion_leading_eigenvalue():
    """The joint coupling operator has leading eigenvalue 4 +- 1e-8.

    Power iteration applies the operator through ``coupling`` at alpha 1
    and is checked against the analytic value.  Its start is a seeded
    random direction: row-stochastic factors map the ones vector to four
    times itself, so a start there would check row sums, not that 4 leads.
    """
    rng = np.random.default_rng(2)
    aa = toy_graph()
    na = aa.n
    worst = 0.0
    for _ in range(10):
        no = int(rng.integers(2, 7))
        ao = random_row_stochastic(no, rng, zero_diagonal=False)
        res = power_iteration(lambda v: coupling(v.reshape(na, no), aa, ao, 1.0).ravel(),
                              na * no, tol=1e-10)
        worst = max(worst, abs(res.eigenvalue - 4.0))
    checks = [Check("worst |eigenvalue - 4|", worst, "<=", 1e-8)]
    detail = f"worst |eigenvalue - 4| = {worst:.2e} over 10 random option couplings"
    return "leading-eigenvalue", checks, detail, 1.0


@_timed
def criterion_bifurcation_structure():
    """One equilibrium below the critical attention, three above, branches at +-0.9575."""
    d, alpha = 1.0, 1.0
    below, above = [], []
    for u in np.linspace(0.05, 0.6, 112):
        eq = reduced_equilibria(float(u), d, alpha)
        if u < 0.25 - 0.01:
            below.append(eq)
        if u > 0.25 + 0.01:
            above.append(eq)
    eq_half = reduced_equilibria(0.5, d, alpha)
    stable = [s for _, s in eq_half]
    lower, upper = (eq_half[0][0], eq_half[2][0]) if len(eq_half) == 3 else (math.inf, math.inf)
    checks = [
        Check("sweep points below u=0.24 without 1 equilibrium",
              sum(len(eq) != 1 for eq in below), "==", 0),
        Check("sweep points above u=0.26 without 3 equilibria",
              sum(len(eq) != 3 for eq in above), "==", 0),
        Check("sweep points above u=0.26 without an unstable origin",
              sum([s for y, s in eq if abs(y) < 1e-8] != [False] for eq in above if len(eq) == 3),
              "==", 0),
        Check("equilibria at u=0.5 off stable, unstable, stable",
              sum(s != e for s, e in zip_longest(stable, (True, False, True))), "==", 0),
        Check("|lower branch + 0.9575| at u=0.5", abs(lower + 0.9575), "<=", 1e-3),
        Check("|upper branch - 0.9575| at u=0.5", abs(upper - 0.9575), "<=", 1e-3),
    ]
    detail = (f"stable branches at u=0.5: {lower:.4f}, {upper:.4f}" if len(eq_half) == 3
              else f"{len(eq_half)} equilibria at u=0.5")
    return "bifurcation-structure", checks, detail, 1.0


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
    starts = critical_consensus_starts()
    # The starts run as one system: the disjoint union of one demo graph per
    # start, so the agent coupling is block-diagonal and no start sees another.
    g = disjoint_union(toy_graph(), len(starts))
    setup = kernel_setup("bimp", g, np.concatenate(starts), d=1.0, alpha=1.0, seed=0)
    traj = euler_integrate(setup, 0.05, 4000, record_every=4000)
    worst = float(np.max(np.abs(traj.states[-1])))
    checks = [Check("worst |X(200)|_inf", worst, "<", 1e-3)]
    detail = (f"worst |X(200)|_inf = {worst:.4f} over 20 random starts (threshold 1e-3; "
              "the slow mode decays as 1/sqrt(t), see README)")
    return "critical-consensus", checks, detail, None


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
    checks = [Check("min row gap rel change, t=100 to t=200", rel_change, "<", 0.01),
              Check("min row gap at t=200", gap_200, ">=", 0.01)]
    detail = (f"min row gap {gap_100:.4f} at t=100, {gap_200:.4f} at t=200 "
              f"(rel change {rel_change:.2e})")
    return "dissensus-input", checks, detail, None


@_timed
def criterion_energy_stability():
    """Laplacian energy collapses; saturated-kernel energy stays in a 2x band."""
    rng = np.random.default_rng(6)
    g = random_graph((10,), 0.5, 0.5, rng)
    x0 = rng.uniform(0.0, 1.0, size=(10, 2))

    lap = kernel_setup("laplacian", g, x0)
    traj_lap = euler_integrate(lap, 0.05, 1000)
    sat = kernel_setup("bimp", g, x0, d=1.0, alpha=1.0, b=x0, seed=6)
    traj_sat = euler_integrate(sat, 0.05, 1000)
    lap_end = dirichlet_energy(traj_lap.states[-1], g)
    # the saturated energy from step 100 on, against its step-100 value
    energy = [dirichlet_energy(x, g) for x in traj_sat.states[100:]]
    band = [e / energy[0] for e in energy]
    checks = [Check("laplacian end energy", lap_end, "<", 1e-6),
              Check("saturated energy / its step-100 value, min", min(band), ">", 0.5),
              Check("saturated energy / its step-100 value, max", max(band), "<", 2.0)]
    # a converged consensus ends at the roundoff floor, whose digits move with
    # the summation order; the detail line reports the floor, not those digits
    lap_text = "< 1e-20" if lap_end < 1e-20 else f"{lap_end:.2e}"
    detail = (f"laplacian end energy {lap_text}; saturated band "
              f"[{min(band):.3f}, {max(band):.3f}] of its step-100 value")
    return "energy-stability", checks, detail, 5.0


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
        rep = gradient_check(*_gradient_problem(rng, na, no, f), cfg, h=1e-5)
        worst_rel = max(worst_rel, rep.rel_error)
        worst_margin = min(worst_margin, rep.bound - rep.inf_norm)
    cfg_deep = TrainConfig(lr=0.0, epochs=0, steps=128, dt=0.05, d=1.0, alpha=1.0, seed=0)
    aa = complete_graph(random_row_stochastic(8, rng, zero_diagonal=False))
    ao = random_row_stochastic(3, rng, zero_diagonal=False)
    x_in = rng.uniform(-1, 1, (8, 3))
    w = rng.uniform(-1, 1, (3, 3))
    chain = jacobian_chain_norm(forward_unroll(x_in, w, aa, ao, cfg_deep))
    checks = [Check("worst rel err", worst_rel, "<", 1e-5),
              Check("worst bound margin", worst_margin, ">=", 0.0),
              Check("depth-128 chain norm", chain, ">=", 1e-6)]
    detail = (f"worst rel err {worst_rel:.2e}; worst bound margin {worst_margin:.3f}; "
              f"depth-128 chain norm {chain:.2e}")
    return "gradient-suite", checks, detail, 10.0


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
    slope_err = float(np.max(np.abs(slopes - sol.input_coeffs[0])))
    checks = [Check("max |numeric - modal|", worst, "<=", 5e-3),
              Check("kernel-mode slope error", slope_err, "<=", 1e-6)]
    detail = f"max |numeric - modal| = {worst:.2e}; kernel-mode slope error {slope_err:.2e}"
    return "closed-form", checks, detail, None


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
    rises = int(np.count_nonzero(np.diff(diam[:: n - 1]) > 1e-12))
    positive = diam[diam > 1e-300]
    slope = float(np.polyfit(np.arange(len(positive)), np.log(positive), 1)[0])
    # delta is 0 exactly when some window product is not scrambling
    checks = [Check("delta", report.delta, ">", 0.0),
              Check("window-boundary diameter rises", rises, "==", 0),
              Check("log-diameter slope", slope, "<", 0.0)]
    detail = (f"delta={report.delta:.3f}; boundary-monotone={rises == 0}; "
              f"log-diameter slope {slope:.4f}")
    return "scrambling-contraction", checks, detail, None


@_timed
def criterion_saturation_validity():
    """Exactly tanh, softsign, and arctan qualify as saturations."""
    reasons = {name: nod_validity(f) for name, f in SATURATIONS.items()}
    accepted = {name for name, reason in reasons.items() if reason is None}
    expected = {"tanh", "softsign", "arctan"}
    misjudged = [t for t in ("sigmoid", "relu", "gelu", "identity") if t in accepted]
    checks = [Check("saturations in accepted xor {arctan, softsign, tanh}",
                    len(accepted ^ expected), "==", 0),
              Check("accepted among sigmoid, relu, gelu, identity", len(misjudged), "==", 0)]
    detail = f"accepted={sorted(accepted)}; rejected={sorted(set(reasons) - accepted)}"
    return "saturation-validity", checks, detail, None


@_timed
def criterion_rhs_equivalence():
    """The matrix and filter-split forms agree with the dense form to 1e-12.

    The reference is the paper's column-stacked equation
    dx/dt = -d x + S(u ((alpha - 1) x + K x)) + b with the joint coupling
    K = (Ao + I) kron (Aa + I) built densely (at most 40 x 40), so no
    form is checked against ``coupling`` itself.  Aa is a complete graph,
    and ``aa @ np.eye(na)`` its dense draw.
    """
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        na = int(rng.integers(2, 9))
        no = int(rng.integers(1, 6))
        aa = complete_graph(random_row_stochastic(na, rng, zero_diagonal=False))
        ao = random_row_stochastic(no, rng, zero_diagonal=False)
        x = rng.standard_normal((na, no))
        p = BimpParams(
            d=float(rng.uniform(0.0, 2.0)),
            alpha=float(rng.uniform(0.0, 2.5)),
            b=rng.standard_normal((na, no)),
            u=float(rng.uniform(0.05, 1.0)),
        )
        k = np.kron(ao + np.eye(no), aa @ np.eye(na) + np.eye(na))
        xv = x.ravel(order="F")
        dense = -p.d * xv + np.tanh(p.u * ((p.alpha - 1.0) * xv + k @ xv)) + p.b.ravel(order="F")
        for form in (rhs_bimp, rhs_bimp_filter_form):
            worst = max(worst, float(np.max(np.abs(form(x, aa, ao, p).ravel(order="F") - dense))))
    checks = [Check("worst pairwise difference", worst, "<=", 1e-12)]
    detail = f"worst pairwise difference {worst:.2e} over 100 fixtures"
    return "rhs-equivalence", checks, detail, None


@_timed
def criterion_training_smoke():
    """Two-block task trains to at least 90% accuracy with the reference seed."""
    task = make_sbm_task(10, 0.8, 0.05, noise=0.1, seed=1)
    cfg = TrainConfig(lr=0.1, epochs=200, steps=8, dt=0.1, d=1.0, alpha=1.0, seed=1)
    _, history = train_sgd(task, cfg)
    terminal_acc = history[-1][1]
    checks = [Check("terminal accuracy", terminal_acc, ">=", 0.9)]
    detail = (f"terminal accuracy {terminal_acc:.4f} (loss {history[0][0]:.4f} -> "
              f"{history[-1][0]:.4f})")
    return "training-smoke", checks, detail, 30.0


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
