"""Desk-scale learning on synthetic graphs through the unrolled dynamics.

A linear encoder X0 = X_in W feeds the saturated kernel ``rhs_bimp``,
which ``euler_integrate`` unrolls for M steps with the source held at X0.
The forward pass keeps every state and every step's pre-activation
Z = u (alpha X + Aa X + X Ao^T + Aa X Ao^T) on a :class:`Tape`.  The loss
gradient with respect to W is accumulated in reverse through the unrolled
map from that tape, so each reverse step makes one coupling product, on
the transposed factors, and no forward one; the couplings are treated as
constants.  A central finite-difference oracle and an analytic norm
bound on the gradient give two independent checks.  The norm of the
step-Jacobian product comes from the same reverse step, swept once over
a batch of unit cotangents, one per state entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attention import (
    build_communication_attention,
    build_option_attention,
    init_attention_weights,
)
from .errors import NumericalError
from .graphs import Graph, from_edge_list, repr_rows
from .integrate import check_step, euler_integrate
from .kernels import (
    BimpParams,
    KernelSetup,
    check_finite,
    coupling,
    critical_attention,
    rhs_bimp,
)

# key/query dimension of the couplings train_sgd builds
ATTENTION_DIM = 4


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one unrolled run.

    ``steps`` is the unroll depth M; the attention value is pinned to
    :func:`critical_attention`.  d, alpha, dt and steps pass the checks of
    every forward pass, :class:`BimpParams` and :func:`check_step`, at once.
    """

    lr: float
    epochs: int
    steps: int
    dt: float
    d: float
    alpha: float
    seed: int = 0

    def __post_init__(self):
        check_finite("learning rate", self.lr, "nonnegative")
        if self.epochs < 0:
            raise ValueError("epoch count must be nonnegative")
        BimpParams(d=self.d, alpha=self.alpha, b=0.0)
        check_step(self.dt, self.steps, self.d)

    @property
    def u(self) -> float:
        return critical_attention(self.d, self.alpha)


@dataclass
class Tape:
    """Saved forward pass: states, pre-activations and the constants.

    ``states`` is the (M + 1, n, o) block of the states X_0 .. X_M of the
    unroll, and ``preacts[t]`` the pre-activation Z_t = u * coupling(X_t)
    that the saturation saw on the step from X_t to X_{t+1} (M arrays).
    """

    x_in: np.ndarray
    states: np.ndarray
    preacts: list[np.ndarray]
    aa: Graph | np.ndarray
    ao: np.ndarray


def forward_unroll(
    x_in: np.ndarray,
    w: np.ndarray,
    aa: Graph | np.ndarray,
    ao: np.ndarray,
    cfg: TrainConfig,
) -> tuple[np.ndarray, Tape]:
    """Encode and integrate M Euler steps of the saturated kernel with source X0."""
    x_in = np.asarray(x_in, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x_in.shape[1] != w.shape[0]:
        raise ValueError(
            f"encoder shape {w.shape} does not accept features of dim {x_in.shape[1]}"
        )
    x0 = x_in @ w
    n, o = x0.shape
    if aa.shape != (n, n):
        raise ValueError(f"agent coupling must be {n}x{n}, got {aa.shape}")
    if ao.shape != (o, o):
        raise ValueError(f"option coupling must be {o}x{o}, got {ao.shape}")
    params = BimpParams(d=cfg.d, alpha=cfg.alpha, b=x0, u=cfg.u)
    preacts: list[np.ndarray] = []
    setup = KernelSetup(lambda x: rhs_bimp(x, aa, ao, params, preacts), x0, damping=cfg.d)
    traj = euler_integrate(setup, cfg.dt, cfg.steps)
    tape = Tape(x_in=x_in, states=traj.states, preacts=preacts, aa=aa, ao=ao)
    return traj.states[-1], tape


def mse_loss(x_final: np.ndarray, target: np.ndarray) -> float:
    """(1 / 2 Na No) * sum of squared residuals."""
    x_final = np.asarray(x_final, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if x_final.shape != target.shape:
        raise ValueError("prediction and target shapes differ")
    r = x_final - target
    return float(np.sum(r * r) / (2.0 * x_final.size))


def _reverse_step(grad: np.ndarray, preact: np.ndarray, aa: Graph | np.ndarray,
                  ao: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Pull the cotangent of X_t back through the Euler step to X_{t-1}.

    ``grad`` is one (n, o) cotangent or a stack of them along a leading
    axis, and ``preact`` the step's taped Z_{t-1}, which gives sech^2; the
    adjoint of the joint coupling is :func:`coupling` on Aa^T and Ao^T, so
    the step makes one coupling product and no forward one.
    """
    h = cfg.dt * grad * (1.0 / np.cosh(preact)) ** 2
    return (1.0 - cfg.d * cfg.dt) * grad + cfg.u * coupling(h, aa.T, ao.T, cfg.alpha)


def encoding_grad(tape: Tape, target: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Gradient of the loss with respect to the encoder output X0.

    Exact reverse accumulation through the unrolled Euler map.  X0 enters
    both as the initial state and as the source added at every step; both
    paths are accumulated.  The step Jacobian's sech^2 is read from the
    tape's pre-activations, so a reverse step costs one coupling product
    on the transposed factors.
    """
    target = np.asarray(target, dtype=np.float64)
    x_final = tape.states[-1]
    if target.shape != x_final.shape:
        raise ValueError("target shape does not match the unrolled state")
    if len(tape.states) != cfg.steps + 1 or len(tape.preacts) != cfg.steps:
        raise ValueError("tape does not match the configured unroll depth")
    n_elems = x_final.size
    grad_state = (x_final - target) / n_elems
    grad_x0 = np.zeros_like(grad_state)
    for t in range(cfg.steps, 0, -1):
        grad_x0 += cfg.dt * grad_state
        grad_state = _reverse_step(grad_state, tape.preacts[t - 1], tape.aa, tape.ao, cfg)
    return grad_x0 + grad_state


def backward_grad(tape: Tape, target: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """dL/dW by reverse accumulation; same shape as W."""
    return tape.x_in.T @ encoding_grad(tape, target, cfg)


def finite_difference_grad(
    x_in: np.ndarray,
    w: np.ndarray,
    target: np.ndarray,
    aa: Graph | np.ndarray,
    ao: np.ndarray,
    cfg: TrainConfig,
    h: float = 1e-5,
) -> np.ndarray:
    """Entrywise central differences of the loss with respect to W."""
    check_finite("difference step h", h, "positive")
    w = np.array(w, dtype=np.float64)
    grad = np.zeros_like(w)
    for idx in np.ndindex(*w.shape):
        w_plus = w.copy()
        w_plus[idx] += h
        w_minus = w.copy()
        w_minus[idx] -= h
        loss_plus = mse_loss(forward_unroll(x_in, w_plus, aa, ao, cfg)[0], target)
        loss_minus = mse_loss(forward_unroll(x_in, w_minus, aa, ao, cfg)[0], target)
        grad[idx] = (loss_plus - loss_minus) / (2.0 * h)
    return grad


def gradient_upper_bound(
    cfg: TrainConfig,
    x0_norm: float,
    target_norm: float,
    xin_norm: float,
    n_agents: int,
    n_options: int,
) -> float:
    """Analytic bound on the max-entry norm of dL/dW.

    With beta = M dt and gamma = (1 + 4 M u dt)(1 + (4u + 1) dt):

        (1 / Na No) (beta + (1 + beta) |X0| + |target|) gamma |X_in|

    It is not a bound at small d: ``odyn gradcheck --seed 0 --d 0.1 --alpha 2.5
    --steps 20 --dt 0.5`` reports an inf-norm of 3.2304 against a bound of
    2.2713 (``within_bound`` false, exit 0).  ``gradient-suite`` samples only
    d in [0.5, 1.5] and M <= 16, where it has held, until it is re-derived.
    """
    beta = cfg.steps * cfg.dt
    gamma = (1.0 + 4.0 * cfg.steps * cfg.u * cfg.dt) * (
        1.0 + (4.0 * cfg.u + 1.0) * cfg.dt
    )
    return (
        (beta + (1.0 + beta) * x0_norm + target_norm)
        * gamma
        * xin_norm
        / (n_agents * n_options)
    )


@dataclass
class GradReport:
    """Analytic gradient against the finite-difference oracle and the bound.

    ``rel_error`` compares the tied f-by-No gradient used for descent, of
    shape ``shape``, entrywise with the oracle's.  ``inf_norm`` is the
    max-entry norm of the gradient with respect to the vectorized encoder
    (an outer product of the encoding gradient with the input features);
    that is the quantity the analytic chain bounds, and weight tying only
    regroups its entries.
    """

    rel_error: float
    inf_norm: float
    bound: float
    shape: tuple[int, int]

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "rel_error": self.rel_error,
                "inf_norm": self.inf_norm,
                "bound": self.bound,
                "within_bound": bool(self.inf_norm <= self.bound),
                "shape": list(self.shape),
            }
        )


def gradient_check(
    x_in: np.ndarray,
    w: np.ndarray,
    aa: Graph | np.ndarray,
    ao: np.ndarray,
    target: np.ndarray,
    cfg: TrainConfig,
    h: float = 1e-5,
) -> GradReport:
    """Run both gradient routes and evaluate the analytic bound."""
    x_final, tape = forward_unroll(x_in, w, aa, ao, cfg)
    g_x0 = encoding_grad(tape, target, cfg)
    analytic = tape.x_in.T @ g_x0
    fd = finite_difference_grad(x_in, w, target, aa, ao, cfg, h=h)
    rel_error = float(
        np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-12)
    )
    n_agents, n_options = x_final.shape
    xin_norm = float(np.max(np.abs(x_in)))
    bound = gradient_upper_bound(
        cfg,
        x0_norm=float(np.max(np.abs(tape.states[0]))),
        target_norm=float(np.max(np.abs(target))),
        xin_norm=xin_norm,
        n_agents=n_agents,
        n_options=n_options,
    )
    return GradReport(
        rel_error=rel_error,
        inf_norm=float(np.max(np.abs(g_x0)) * xin_norm),
        bound=bound,
        shape=analytic.shape,
    )


def jacobian_chain_norm(tape: Tape, cfg: TrainConfig) -> float:
    """Max-row-sum norm of the accumulated step-Jacobian product J_M ... J_1.

    Row i of the product is the reverse sweep of the cotangent e_i, so one
    sweep of the whole identity batch gives every row.  The norm does not
    depend on how the state is vectorized.  Staying well above zero even
    at large depth is the non-vanishing gradient property.
    """
    n, o = tape.states[0].shape
    rows = np.eye(n * o).reshape(n * o, n, o)
    for t in range(cfg.steps, 0, -1):
        rows = _reverse_step(rows, tape.preacts[t - 1], tape.aa, tape.ao, cfg)
    return float(np.max(np.sum(np.abs(rows), axis=(1, 2))))


@dataclass(frozen=True)
class SbmTask:
    """Synthetic two-block node classification task."""

    graph: Graph
    x_in: np.ndarray
    target: np.ndarray


def make_sbm_task(
    n_per_block: int, p_in: float, p_out: float, noise: float, seed: int
) -> SbmTask:
    """Two-block stochastic block model with noisy one-hot features.

    Features are the one-hot block label plus Gaussian noise; the target
    is the clean one-hot label.  Identical seeds reproduce the dataset
    byte for byte.  The edges cost one uniform draw per node pair, so
    O(n^2) time, but only O(n + edges) memory: the pairs are drawn at
    most ``_SBM_RUN_PAIRS`` at a time.  A task whose expected edge list,
    2 (p_in n_b (n_b - 1) + p_out n_b^2) directed edges for n_b nodes per
    block, cannot be allocated is refused before the first draw.
    """
    if n_per_block < 1:
        raise ValueError(f"n_per_block must be at least 1, got {n_per_block}")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    check_finite("noise", noise, "nonnegative")
    edges = 2.0 * (p_in * n_per_block * (n_per_block - 1) + p_out * n_per_block * n_per_block)
    try:
        # numpy refuses at once an array the machine cannot grant; one that
        # is granted but never written takes no memory
        np.empty((int(edges), 3))
    except (MemoryError, ValueError, OverflowError):
        raise ValueError(f"the SBM task expects {edges:.3g} edges, more than can be allocated")
    rng = np.random.default_rng(seed)
    n = 2 * n_per_block
    i, j = _sbm_pairs(rng, n_per_block, p_in, p_out)
    graph = from_edge_list(np.column_stack([np.r_[i, j], np.r_[j, i], np.ones(2 * i.size)]), n)
    onehot = np.eye(2)[np.repeat([0, 1], n_per_block)]
    x_in = onehot + noise * rng.standard_normal((n, 2))
    return SbmTask(graph=graph, x_in=x_in, target=onehot.astype(np.float64))


# Pairs whose uniforms make_sbm_task draws at once: 0.5 MB of doubles
_SBM_RUN_PAIRS = 1 << 16


def _sbm_pairs(
    rng: np.random.Generator, n_per_block: int, p_in: float, p_out: float
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j that the SBM links, one uniform per pair from ``rng``.

    The pairs are numbered in row-major order, row i starting at
    i (2n - i - 1) / 2, and drawn in runs of at most ``_SBM_RUN_PAIRS``;
    k draws of one double give the bits of one draw of k, so the stream
    is that of a single draw over all pairs.  Pair k links when its
    uniform is below its block's probability.  The thresholds are
    constant on segments of pairs: a row i of block 0 meets
    n_per_block - 1 - i pairs in its own block and then n_per_block in
    the other; block 1's rows meet only pairs in their own block, one
    segment for all of them.
    """
    n = 2 * n_per_block
    rows = np.arange(n, dtype=np.int64)
    row_starts = rows * (2 * n - rows - 1) // 2
    own = np.arange(n_per_block - 1, -1, -1, dtype=np.int64)
    lengths = np.r_[np.column_stack([own, np.full(n_per_block, n_per_block)]).ravel(), own.sum()]
    values = np.r_[np.tile([p_in, p_out], n_per_block), p_in]
    bounds = np.r_[0, np.cumsum(lengths)]
    total = int(bounds[-1])
    hits = []
    for start in range(0, total, _SBM_RUN_PAIRS):
        stop = min(start + _SBM_RUN_PAIRS, total)
        # the segments that overlap [start, stop), each clipped to it
        first = np.searchsorted(bounds, start, side="right") - 1
        last = np.searchsorted(bounds, stop)
        counts = np.diff(np.clip(bounds[first:last + 1], start, stop))
        threshold = np.repeat(values[first:last], counts)
        hits.append(start + np.flatnonzero(rng.uniform(size=stop - start) < threshold))
    k = np.concatenate(hits)
    i = np.searchsorted(row_starts, k, side="right") - 1
    return i, k - row_starts[i] + i + 1


def accuracy(x_final: np.ndarray, target: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the target argmax."""
    return float(
        np.mean(np.argmax(x_final, axis=1) == np.argmax(target, axis=1))
    )


def train_sgd(task: SbmTask, cfg: TrainConfig) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Plain gradient descent on the encoder through the unrolled dynamics.

    Agent attention (a :class:`Graph`) and option attention are built
    once from the initial encoding and held fixed.  History holds (loss,
    accuracy) at the start of every epoch plus one terminal evaluation.
    """
    rng = np.random.default_rng(cfg.seed)
    n_features = task.x_in.shape[1]
    n_options = task.target.shape[1]
    w = rng.uniform(-0.5, 0.5, size=(n_features, n_options)) / np.sqrt(n_features)
    x0 = task.x_in @ w
    w_agent = init_attention_weights(ATTENTION_DIM, n_options, seed=cfg.seed)
    w_option = init_attention_weights(ATTENTION_DIM, task.graph.n, seed=cfg.seed + 1)
    history: list[tuple[float, float]] = []
    # overflow is reported as divergence by the finiteness checks, not as
    # numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        aa = build_communication_attention(x0, w_agent, task.graph)
        ao = build_option_attention(x0, w_option)
        for epoch in range(cfg.epochs + 1):
            diverged = f"training diverged at epoch {epoch}"
            try:
                x_final, tape = forward_unroll(task.x_in, w, aa, ao, cfg)
            except NumericalError as e:
                raise NumericalError(diverged) from e
            loss = mse_loss(x_final, task.target)
            if not np.isfinite(loss):
                raise NumericalError(diverged)
            history.append((loss, accuracy(x_final, task.target)))
            if epoch < cfg.epochs:
                w = w - cfg.lr * backward_grad(tape, task.target, cfg)
    return w, history


def save_history_csv(history: list[tuple[float, float]], path) -> None:
    """CSV with header ``epoch,loss,accuracy``."""
    rows = ((epoch, loss, acc) for epoch, (loss, acc) in enumerate(history))
    Path(path).write_text(repr_rows(rows, "epoch,loss,accuracy"))
