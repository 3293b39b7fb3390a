"""Oversmoothing diagnostics, bifurcation sweeps, and closed-form oracles.

The Dirichlet energy measures squared feature differences across graph
edges; it reaching zero means every connected pair of nodes agrees.  The
opinion diameter (per-option max minus min across agents, maximized over
options) is the Lyapunov-like quantity contracted by products of
row-stochastic influence matrices.

The bifurcation sweep locates every equilibrium of the scalar reduced
dynamics on a grid of attention values: it bisects each monotone piece
of the rhs on [-R, R], R = 2 (1 + |b|) / d, where the rhs is at least 1
in size at both ends and so has a strict sign there.  The stable/unstable
split reproduces the pitchfork and its unfolding under a nonzero input.

Power iteration finds the leading eigenpair of an operator given only
its matvec, e.g. the joint coupling through ``kernels.coupling``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .graphs import Graph, repr_rows
from .kernels import BimpParams, check_finite, rhs_reduced_1d

START_SEED = 0  # seeds power_iteration's start direction
SYM_TOL = 1e-10  # the largest |L - L^T| entry grandpp_closed_form accepts
ZERO_TOL = 1e-10  # an |eigenvalue| that grandpp_closed_form counts as zero


def dirichlet_energy(x: np.ndarray, g: Graph) -> float:
    """Mean squared feature difference over the directed edges of ``g``.

    E(X) = (1/n) sum_i sum_{j in N(i)} ||x_i - x_j||_2^2

    The terms are summed with the bits of ``np.sum`` over the whole
    (edges, o) array of squared differences, but gathered one leaf of
    :func:`_energy_sum` at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.n:
        raise ValueError(f"state must have {g.n} rows, got {x.shape}")
    if x.size == 0 or g.edge_count == 0:
        return 0.0
    return float(_energy_sum(x, g, 0, g.edge_count * x.shape[1]) / g.n)


# Terms that dirichlet_energy gathers at once, in two 256 KB arrays; no
# fewer than 128, the block that numpy sums without a split
_ENERGY_LEAF = 1 << 15


def _energy_sum(x: np.ndarray, g: Graph, start: int, stop: int) -> np.floating:
    """``np.sum`` of the terms ``start:stop`` of the raveled squared differences.

    numpy sums a contiguous float64 array pairwise: it splits n terms at
    n / 2 rounded down to a multiple of 8, down to blocks of at most 128.
    This takes the same splits down to leaves of at most ``_ENERGY_LEAF``
    terms and sums each leaf with ``np.sum``, so every addition is the one
    numpy makes over the whole array.  A leaf gathers only the edges its
    terms belong to; it may start or end inside an edge's row of o terms.
    """
    count = stop - start
    if count > _ENERGY_LEAF:
        half = count // 2
        half -= half % 8
        return _energy_sum(x, g, start, start + half) + _energy_sum(x, g, start + half, stop)
    o = x.shape[1]
    first, last = start // o, -(-stop // o)
    diffs = x.take(g.rows[first:last], axis=0)
    diffs -= x.take(g.targets[first:last], axis=0)
    diffs *= diffs
    return np.sum(diffs.ravel()[start - first * o:stop - first * o])


def opinion_diameter(x: np.ndarray) -> float:
    """Largest per-option spread: max over options of (max - min over agents).

    A 1-d input is read as one option held by many agents.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return float(np.max(x.max(axis=0) - x.min(axis=0)))


@dataclass(frozen=True)
class BifurcationPoint:
    """Equilibria of the reduced scalar dynamics at one attention value."""

    u: float
    equilibria: tuple[tuple[float, bool], ...]


def reduced_equilibria(u: float, d: float, alpha: float,
                       b: float = 0.0) -> tuple[tuple[float, bool], ...]:
    """All equilibria of dy/dt = -d y + tanh(u (alpha+3) y) + b with stability.

    Since |tanh| <= 1 every root has |y| <= (1 + |b|) / d.  The search
    runs over [-R, R] with R = 2 (1 + |b|) / d, where the rhs is at least
    1 at -R and at most -1 at R: a strict sign that rounding cannot flip,
    as it can at (1 + |b|) / d.  The zeros of f' = -d + c sech^2(c y),
    c = u (alpha+3), at |y| = acosh(sqrt(c / d)) / c when c > d, cut
    [-R, R] into strictly monotone pieces, each holding at most one root;
    a piece whose rhs is zero at its left end or changes sign across it is
    bisected to the last bit.  Where tanh(c y) rounds to -b = +-1 and
    swallows -d y, as at d = 1e-20 and b = 1, the rounded rhs is 0 over a
    whole range; there it is taken as -d y plus tanh's distance from +-1,
    so such a range yields no false root.  The roots come out distinct and
    ascending; a root is stable when the derivative of the rhs is negative
    there.
    """
    c = u * (alpha + 3.0)

    def f(y: float) -> float:
        value = rhs_reduced_1d(y, u, d, alpha, b)
        t = math.tanh(c * y) if value == 0.0 else 0.0
        if abs(t) == 1.0 and -d * y + t == t:
            # a rounding plateau: -d y plus tanh(x) - sign(x), which is
            # -sign(x) 2e / (1 + e) with e = exp(-2 |x|)
            e = math.exp(-2.0 * abs(c * y))
            return -d * y - t * (2.0 * e / (1.0 + e))
        return value

    def fprime(y: float) -> float:
        z = c * y
        # sech^2 underflows to exactly 0 long before cosh overflows
        sech2 = 0.0 if abs(z) > 350.0 else 1.0 / math.cosh(z) ** 2
        return -d + c * sech2

    r_max = min(2.0 * (1.0 + abs(b)) / d, sys.float_info.max)
    bend = min(math.acosh(math.sqrt(c) / math.sqrt(d)) / c, r_max) if c > d else r_max
    ends = [(y, f(y)) for y in sorted({-r_max, -bend, bend, r_max})]
    roots = [
        _bisect(f, lo, hi, f_lo)
        for (lo, f_lo), (hi, f_hi) in zip(ends, ends[1:])
        if f_lo == 0.0 or (f_hi != 0.0 and (f_lo < 0.0) != (f_hi < 0.0))
    ]
    return tuple((r, fprime(r) < 0.0) for r in roots)


def _bisect(f, lo: float, hi: float, f_lo: float) -> float:
    """A root, to the last bit, of ``f`` on [lo, hi], where f(lo) = ``f_lo``
    is zero or f(hi) is zero or of the other sign."""
    while f_lo != 0.0 and lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        f_mid = f(mid)
        if f_mid == 0.0 or (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return lo


def bifurcation_sweep(
    u_range: tuple[float, float, int], d: float, alpha: float, b: float = 0.0
) -> list[BifurcationPoint]:
    """Equilibrium structure over a grid of finite attention values of either
    sign; d must be positive, alpha and b pass the saturated kernel's checks,
    the root bound (1+|b|)/d must be finite, and the gain u (alpha+3) must
    be finite at both ends of the grid."""
    lo, hi, points = u_range
    check_finite(f"the width of the attention range [{lo}, {hi}]", hi - lo)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    if points < 2:
        raise ValueError("need at least two sweep points")
    check_finite("damping d", d, "positive")
    BimpParams(d=d, alpha=alpha, b=b)
    check_finite("the root bound (1+|b|)/d", (1.0 + abs(b)) / d)
    check_finite(f"the gain u (alpha+3) over [{lo}, {hi}]", max(abs(lo), abs(hi)) * (alpha + 3.0))
    return [
        BifurcationPoint(u=float(u), equilibria=reduced_equilibria(float(u), d, alpha, b))
        for u in np.linspace(lo, hi, points)
    ]


def bifurcation_csv(points: list[BifurcationPoint]) -> str:
    """CSV text with header ``u,y,stable`` (stable encoded as 1/0)."""
    rows = ((p.u, y, int(stable)) for p in points for y, stable in p.equilibria)
    return repr_rows(rows, "u,y,stable")


@dataclass(frozen=True)
class SpectralResult:
    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    residual: float


def power_iteration(apply_fn, dim: int, tol: float = 1e-10,
                    max_iter: int = 10000) -> SpectralResult:
    """Leading eigenpair by power iteration with a Rayleigh quotient.

    Starts from one unit direction drawn by ``default_rng(START_SEED)`` on
    every call, which has a component along the leading eigenvector
    almost surely; a structured start such as the ones vector may be an
    eigenvector itself, as it is of the joint coupling.  The residual is
    ``max|A v - lam v|`` with ``v`` unit-norm; an operator that maps ``v``
    to zero gives the exact pair (0, v).
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    v = np.random.default_rng(START_SEED).standard_normal(dim)
    v /= np.linalg.norm(v)
    residual = math.inf
    for k in range(1, max_iter + 1):
        w = apply_fn(v)
        lam = float(v @ w)
        residual = float(np.max(np.abs(w - lam * v)))
        if residual <= tol:
            return SpectralResult(eigenvalue=lam, eigenvector=v, iterations=k, residual=residual)
        v = w / np.linalg.norm(w)
    raise NumericalError(
        f"power iteration did not reach residual {tol} in {max_iter} "
        f"iterations (last residual {residual})"
    )


@dataclass(frozen=True)
class ClosedFormSolution:
    """Modal solution of dX/dt = -L X + B for symmetric L with a simple kernel.

    X(t) = sum_{lam_i > 0} v_i (b_i / lam_i + c_i exp(-lam_i t))
           + v_0 (b_0 t + c_0)

    The zero mode grows linearly with slope ``b_0`` while every other mode
    relaxes exponentially to its offset b_i / lam_i.  Row i of
    ``input_coeffs`` holds b_i and row i of ``decay_coeffs`` holds c_i.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    input_coeffs: np.ndarray
    decay_coeffs: np.ndarray

    def evaluate(self, t: float) -> np.ndarray:
        lam = self.eigenvalues
        modal = np.empty_like(self.decay_coeffs)
        modal[0] = self.input_coeffs[0] * t + self.decay_coeffs[0]
        pos = lam[1:]
        modal[1:] = self.input_coeffs[1:] / pos[:, None] + self.decay_coeffs[
            1:
        ] * np.exp(-pos * t)[:, None]
        return self.eigenvectors @ modal


def grandpp_closed_form(l: np.ndarray, x0: np.ndarray, b: np.ndarray) -> ClosedFormSolution:
    """Fit the modal solution of dX/dt = -L X + B from the initial state.

    Requires symmetric positive-semidefinite ``l`` whose zero eigenvalue is
    simple (a connected graph).  The fitted solution reproduces ``x0`` at
    t = 0.
    """
    l = np.asarray(l, dtype=np.float64)
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if l.shape != (x0.shape[0],) * 2 or x0.shape != b.shape:
        raise ValueError("state, source, and operator shapes are inconsistent")
    if np.max(np.abs(l - l.T), initial=0.0) > SYM_TOL:
        raise ValueError("operator is not symmetric within tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(l)
    if eigenvalues[0] < -ZERO_TOL:
        raise ValueError("operator must be positive semidefinite")
    if abs(eigenvalues[0]) > ZERO_TOL:
        raise ValueError("operator has no zero eigenvalue")
    if eigenvalues.shape[0] > 1 and eigenvalues[1] <= ZERO_TOL:
        raise ValueError("zero eigenvalue is repeated (graph is disconnected)")
    input_coeffs = eigenvectors.T @ b
    state_coeffs = eigenvectors.T @ x0
    decay_coeffs = state_coeffs.copy()
    decay_coeffs[1:] -= input_coeffs[1:] / eigenvalues[1:, None]
    return ClosedFormSolution(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        input_coeffs=input_coeffs,
        decay_coeffs=decay_coeffs,
    )


@dataclass(frozen=True)
class ScramblingReport:
    """Outcome of the windowed scrambling test on a matrix sequence.

    ``delta`` is the smallest shared-column mass over the window products:
    positive exactly when every window product is scrambling, and 0.0
    when one is not or no window fits in the sequence.
    """

    window: int
    delta: float
    diameters: tuple[float, ...]


def _pair_common_mass(phi: np.ndarray) -> float:
    """Smallest over row pairs of the best shared-column mass.

    Positive iff every pair of rows has a column where both are positive,
    i.e. iff the matrix is scrambling.
    """
    if phi.shape[0] < 2:
        return float(np.max(phi))
    i, k = np.triu_indices(phi.shape[0], 1)
    return float(np.minimum(phi[i], phi[k]).max(axis=1).min())


def scrambling_check(
    matrices: list[np.ndarray], zeta: float, x0: np.ndarray
) -> ScramblingReport:
    """Windowed scrambling test for time-varying row-stochastic influence.

    With window T = n - 1, each full window product Phi is tested for the
    scrambling condition (every pair of rows shares a positively weighted
    column); ``delta`` is the smallest such shared mass over all windows
    and pairs, so a window product that is not scrambling makes it 0.
    The diameter of x(t) under x(t+1) = A(t) x(t) is recorded at every
    step.  The matrices must be finite and row-stochastic, with every
    positive entry at least ``zeta``.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError("all matrices must share one square shape")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrices must be finite")
        if np.any(m < 0) or np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-10:
            raise ValueError("matrices must be row-stochastic")
        positive = m[m > 0]
        if positive.size and float(positive.min()) < zeta - 1e-12:
            raise ValueError(
                f"positive entry {float(positive.min())} below the uniform "
                f"positivity floor {zeta}"
            )
    window = max(n - 1, 1)
    x = np.asarray(x0, dtype=np.float64)
    if x.shape[0] != n:
        raise ValueError(f"state must have {n} rows")
    diameters = [opinion_diameter(x)]
    for m in mats:
        x = m @ x
        diameters.append(opinion_diameter(x))
    masses = []
    for w in range(len(mats) // window):
        phi = np.eye(n)
        for m in mats[w * window : (w + 1) * window]:
            phi = m @ phi
        masses.append(_pair_common_mass(phi))
    return ScramblingReport(window=window, delta=min(masses, default=0.0),
                            diameters=tuple(diameters))
