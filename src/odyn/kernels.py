"""Right-hand sides of the opinion-dynamics systems.

The saturated kernel couples agents through ``Aa``, options through
``Ao``, and both jointly through their product term:

    dX/dt = -d X + S(u (alpha X + Aa X + X Ao^T + Aa X Ao^T)) + B

:data:`KERNELS` has one row per kernel tag, ``bimp | linear-od |
laplacian | laplacian-source | graphcon-tran | gread-f | gread-fb |
reduced``: a builder ``(g, x0, *, <options>)`` whose keyword parameters
are the only statement of what the kernel reads.  It checks its inputs
once and returns a :class:`KernelSetup` whose closure the integrator
runs without knowing the tag.

:func:`coupling` is the one implementation of the joint coupling; the
filter form of the saturated kernel is written through it too.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fixtures import random_row_stochastic
from .graphs import Graph, degrees, sparse_laplacian


def _softsign(x):
    return x / (1.0 + np.abs(x))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


_erf = np.vectorize(math.erf, otypes=[np.float64])


def _gelu(x):
    return 0.5 * x * (1.0 + _erf(x / np.sqrt(2.0)))


# Each ``--saturation`` name and its elementwise function.
SATURATIONS = {
    "tanh": np.tanh,
    "softsign": _softsign,
    "arctan": np.arctan,
    "sigmoid": _sigmoid,
    "relu": lambda x: np.maximum(x, 0.0),
    "gelu": _gelu,
    "identity": lambda x: np.asarray(x, dtype=float),
}


def nod_validity(f: Callable[[np.ndarray], np.ndarray]) -> str | None:
    """The first of the saturation conditions S(0)=0, S'(0)=1, S'''(0) != 0
    that ``f`` fails, as a reason, or None when ``f`` meets them all.

    All checks are numerical: the origin value directly, differentiability
    by one-sided slope agreement, the unit slope by a central difference,
    and the curvature by a five-point third-derivative stencil.  No closed
    forms are consulted.
    """
    if abs(float(f(0.0))) > 1e-12:
        return "does not pass through the origin"
    h = 1e-6
    left = (float(f(0.0)) - float(f(-h))) / h
    right = (float(f(h)) - float(f(0.0))) / h
    if abs(left - right) > 1e-4:
        return "not differentiable at the origin"
    slope = (float(f(h)) - float(f(-h))) / (2.0 * h)
    if abs(slope - 1.0) > 1e-6:
        return "slope at the origin is not 1"
    h3 = 1e-2
    third = (
        float(f(2 * h3)) - 2.0 * float(f(h3)) + 2.0 * float(f(-h3)) - float(f(-2 * h3))
    ) / (2.0 * h3**3)
    if abs(third) <= 1e-6:
        return "vanishing third derivative at the origin (linear regime)"
    return None


def check_finite(name: str, value: float, sign: str = "") -> None:
    """Reject a NaN or infinite ``value``, or one of the wrong ``sign``
    ("nonnegative" or "positive"): the one statement of each range rule."""
    inside = value > 0.0 if sign == "positive" else value >= 0.0 if sign else value > -math.inf
    if not (inside and value < math.inf):
        raise ValueError(f"{name} must be finite{' and ' + sign if sign else ''}, got {value}")


def critical_attention(d: float, alpha: float) -> float:
    """The attention d / (alpha + 3) at which the neutral equilibrium loses stability."""
    return d / (alpha + 3.0)


def coupling(x: np.ndarray, aa: Graph, ao: np.ndarray, alpha: float) -> np.ndarray:
    """Joint coupling alpha X + Aa X + X Ao^T + Aa X Ao^T, for an agent graph
    Aa and a dense o-by-o Ao.

    At alpha = 1 this is (Aa + I) X (Ao + I)^T: the product of the joint
    operator (Ao + I) kron (Aa + I) with the column-stacked state.
    """
    mixed = aa @ x
    # OpenBLAS multiplies by a C-contiguous Ao^T twice as fast as by a view, with
    # the same bits; the reverse step passes a transposed view, copied by nothing
    ao_t = np.ascontiguousarray(ao.T)
    return alpha * x + mixed + x @ ao_t + mixed @ ao_t


@dataclass(frozen=True)
class BimpParams:
    """Intrinsic and extrinsic parameters of the saturated kernel.

    ``u`` defaults to :func:`critical_attention`.  ``saturation`` is the
    elementwise S, a value of :data:`SATURATIONS`.
    """

    d: float
    alpha: float
    b: np.ndarray
    u: float | None = None
    saturation: Callable[[np.ndarray], np.ndarray] = np.tanh

    def __post_init__(self):
        check_finite("damping d", self.d, "nonnegative")
        check_finite("self-reinforcement alpha", self.alpha, "nonnegative")
        if self.u is None:
            object.__setattr__(self, "u", critical_attention(self.d, self.alpha))
        check_finite("attention u", self.u, "positive")
        b = np.asarray(self.b, dtype=np.float64)
        if not np.all(np.isfinite(b)):
            raise ValueError("input matrix b must be finite")
        object.__setattr__(self, "b", b)


def rhs_bimp(
    x: np.ndarray,
    aa: Graph,
    ao: np.ndarray,
    p: BimpParams,
    preacts: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Saturated kernel in matrix form.

    dX/dt = -d X + S(u (alpha X + Aa X + X Ao^T + Aa X Ao^T)) + B

    It checks nothing per call: its callers fit ``aa``, ``ao`` and ``p.b``
    to the state once, when the run is set up, and the integrator rejects
    a non-finite state before this sees it.  When ``preacts`` is a list,
    the pre-activation Z = u (alpha X + ...) that S is applied to is
    appended to it.
    """
    z = p.u * coupling(x, aa, ao, p.alpha)
    if preacts is not None:
        preacts.append(z)
    return -p.d * x + p.saturation(z) + p.b


def rhs_bimp_filter_form(x: np.ndarray, aa: Graph, ao: np.ndarray, p: BimpParams) -> np.ndarray:
    """Saturated kernel split into sharpening and smoothing components.

    dX/dt = -d X + S(u ((alpha - 1)(X - K X) + alpha K X)) + B, with
    K X = coupling(X, Aa, Ao, 1) = (Aa + I) X (Ao + I)^T the joint
    coupling.  The high-pass term (X - K X) is active for alpha > 1;
    algebraically this equals :func:`rhs_bimp`.
    """
    kx = coupling(x, aa, ao, 1.0)
    joint = (p.alpha - 1.0) * (x - kx) + p.alpha * kx
    return -p.d * x + p.saturation(p.u * joint) + p.b


def rhs_reduced_1d(y: float, u: float, d: float, alpha: float, b: float = 0.0) -> float:
    """Scalar dynamics along the leading joint-coupling direction.

    dy/dt = -d y + tanh(u (alpha + 3) y) + b.
    """
    return -d * y + math.tanh(u * (alpha + 3.0) * y) + b


def _whole(state: np.ndarray) -> np.ndarray:
    return state


@dataclass(frozen=True)
class KernelSetup:
    """A ready-to-integrate kernel and the facts the integrator needs about it.

    ``rhs`` maps a state to its time derivative, starting from ``state0``.
    ``damping`` is the d of the step bound dt < 1/d, or None where the
    kernel reports no bound.  ``position`` is the view of a state that
    snapshots and metrics see: the state itself, or the position half of a
    second-order state that stacks position over velocity.
    """

    rhs: Callable[[np.ndarray], np.ndarray]
    state0: np.ndarray
    damping: float | None = None
    position: Callable[[np.ndarray], np.ndarray] = _whole


def _check_rows(g: Graph, x0: np.ndarray) -> None:
    if x0.ndim != 2 or x0.shape[0] != g.n:
        raise ValueError(f"initial state must have {g.n} rows, got {x0.shape}")


def _source(b: np.ndarray | None, x0: np.ndarray) -> np.ndarray:
    """The constant input B: zero by default, else of the initial state's shape."""
    b = np.zeros_like(x0) if b is None else np.asarray(b, dtype=np.float64)
    if b.shape != x0.shape:
        raise ValueError(f"input matrix must match state shape {x0.shape}, got {b.shape}")
    return b


def _bimp(g, x0, *, d, alpha, u, b, saturation, seed):
    _check_rows(g, x0)
    aa = g.row_normalized()
    ao = random_row_stochastic(x0.shape[1], np.random.default_rng(seed))
    params = BimpParams(d=d, alpha=alpha, b=_source(b, x0), u=u, saturation=saturation)
    return KernelSetup(lambda s: rhs_bimp(s, aa, ao, params), x0, damping=d)


def _reduced(g, x0, *, d, alpha, u, b):
    if x0.size != 1:
        raise ValueError("reduced kernel expects a 1x1 state")
    x0 = x0.reshape(1, 1)
    p = BimpParams(d=d, alpha=alpha, b=_source(b, x0), u=u)
    b_r = float(p.b[0, 0])

    def rhs(s: np.ndarray) -> np.ndarray:
        return np.array([[rhs_reduced_1d(float(s[0, 0]), p.u, p.d, p.alpha, b_r)]])

    return KernelSetup(rhs, x0, damping=d)


def _laplacian(g, x0):
    """Laplacian flow dX/dt = -(D - A) X, which is linear-od's -D X + A X.

    It reports the largest out-degree, the diagonal damping of -D X + A X,
    so the integrator's dt * damping < 1 guard bounds its spectrum
    (Gershgorin; see the integrate module docstring).
    """
    _check_rows(g, x0)
    l = sparse_laplacian(g)
    return KernelSetup(lambda s: -(l @ s), x0, damping=float(degrees(g).max(initial=0.0)))


def _laplacian_source(g, x0, *, b):
    """Laplacian flow with a constant source, dX/dt = -L X + B, and its step bound."""
    flow, src = _laplacian(g, x0), _source(b, x0)
    return replace(flow, rhs=lambda s: flow.rhs(s) + src)


def _graphcon_tran(g, x0):
    """Damped oscillator wrapped around linear averaging.

    dY/dt = (Aa - I) X - Y,  dX/dt = Y  (unit damping coefficients), on the
    state ``(2, n, o)`` that stacks position X over velocity Y.
    """
    _check_rows(g, x0)
    aa = g.row_normalized()
    return KernelSetup(lambda s: np.stack([s[1], (aa @ s[0] - s[0]) - s[1]]),
                       np.stack([x0, np.zeros_like(x0)]), damping=1.0, position=lambda s: s[0])


def _gread_f(g, x0):
    """Reaction-diffusion dX/dt = -L X + X o (1 - X)."""
    _check_rows(g, x0)
    l = sparse_laplacian(g)
    return KernelSetup(lambda s: -(l @ s) + s * (1.0 - s), x0)


def _gread_fb(g, x0, *, alpha, beta):
    """Reaction-diffusion dX/dt = -alpha L X + beta (L X + X), either sign of each."""
    check_finite("diffusion alpha", alpha)
    check_finite("reaction beta", beta)
    _check_rows(g, x0)
    l = sparse_laplacian(g)

    def rhs(x: np.ndarray) -> np.ndarray:
        lx = l @ x
        return -alpha * lx + beta * (lx + x)

    return KernelSetup(rhs, x0)


# One row per kernel tag: a builder (g, x0, *, <the options it reads>).
KERNELS = {
    "bimp": _bimp,
    "linear-od": _laplacian,
    "laplacian": _laplacian,
    "laplacian-source": _laplacian_source,
    "graphcon-tran": _graphcon_tran,
    "gread-f": _gread_f,
    "gread-fb": _gread_fb,
    "reduced": _reduced,
}
KERNEL_TAGS = tuple(KERNELS)


def kernel_reads(tag: str) -> frozenset[str]:
    """The :func:`kernel_setup` options that ``tag``'s builder reads."""
    return frozenset(inspect.signature(KERNELS[tag]).parameters) - {"g", "x0"}


def kernel_setup(
    tag: str,
    g: Graph,
    x0: np.ndarray,
    *,
    d: float = 1.0,
    alpha: float = 1.0,
    u: float | None = None,
    b: np.ndarray | None = None,
    beta: float = 0.5,
    saturation: Callable[[np.ndarray], np.ndarray] = np.tanh,
    seed: int = 0,
) -> KernelSetup:
    """Assemble a kernel by tag from a graph and an initial state.

    Each tag's row in :data:`KERNELS` reads only the options its builder
    names; every other option must keep its default here, or the call is
    rejected.  ``seed`` is exempt.  No closure holds an n-by-n matrix.
    The saturated kernel draws its agent coupling from the row-normalized
    graph and a seeded random row-stochastic option coupling.  ``b``
    defaults to zero and must match the state's shape.
    """
    if tag not in KERNELS:
        raise ValueError(f"unknown kernel tag {tag!r}; choose from {KERNEL_TAGS}")
    options = {"d": d, "alpha": alpha, "u": u, "b": b, "beta": beta, "saturation": saturation}
    reads = kernel_reads(tag)
    for name, value in options.items():
        default = kernel_setup.__kwdefaults__[name]
        at_default = value is default or (default is not None and value == default)
        if name not in reads and not at_default:
            raise ValueError(f"kernel {tag!r} has no {name} to set")
    read = {name: value for name, value in {**options, "seed": seed}.items() if name in reads}
    return KERNELS[tag](g, np.asarray(x0, dtype=np.float64), **read)

