"""Scaled-dot multi-head attention for the agent and option coupling matrices.

Agent attention scores pairs of state rows and is masked to the edges of
the communication graph plus a mandatory self-loop per node, so every
softmax row has support.  Option attention scores pairs of state columns
and is dense.  Head outputs are averaged in head order; averaging
row-stochastic matrices stays row-stochastic.

Scores are divided by the raw temperature ``d_k`` (not its square root).
Attention is built once from the initial state and held fixed while the
dynamics run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph


@dataclass(frozen=True)
class AttentionWeights:
    """Per-head key/query projections with a shared temperature."""

    w_k: tuple[np.ndarray, ...]
    w_q: tuple[np.ndarray, ...]
    d_k: float

    def __post_init__(self):
        if len(self.w_k) != len(self.w_q) or not self.w_k:
            raise ValueError("need matching, nonempty key and query stacks")
        shape = self.w_k[0].shape
        for m in (*self.w_k, *self.w_q):
            if m.shape != shape:
                raise ValueError("all head weights must share one shape")
        if not self.d_k > 0:
            raise ValueError("temperature d_k must be positive")

    @property
    def heads(self) -> int:
        return len(self.w_k)

    @property
    def attention_dim(self) -> int:
        return self.w_k[0].shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w_k[0].shape[1]


def init_attention_weights(
    heads: int,
    attention_dim: int,
    feature_dim: int,
    seed: int = 0,
    d_k: float | None = None,
) -> AttentionWeights:
    """Seeded uniform init in [-1/sqrt(feature_dim), 1/sqrt(feature_dim)].

    The bound keeps initial scores small enough that the softmax starts
    away from saturation.  ``d_k`` defaults to the attention dimension.
    """
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(feature_dim)
    shape = (attention_dim, feature_dim)
    w_k = tuple(rng.uniform(-bound, bound, shape) for _ in range(heads))
    w_q = tuple(rng.uniform(-bound, bound, shape) for _ in range(heads))
    return AttentionWeights(w_k=w_k, w_q=w_q, d_k=float(d_k or attention_dim))


def _masked_softmax_rows(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row softmax restricted to ``mask``; masked-out entries are exactly zero."""
    if not mask.any(axis=1).all():
        bad = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise ValueError(f"row {bad} has empty support")
    shifted = np.where(mask, scores, -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    expd = np.where(mask, np.exp(shifted), 0.0)
    return expd / expd.sum(axis=1, keepdims=True)


def _edge_mask_with_self_loops(g: Graph) -> np.ndarray:
    mask = g.dense_adjacency() > 0
    np.fill_diagonal(mask, True)
    return mask


def build_communication_attention(
    x: np.ndarray, w: AttentionWeights, g: Graph
) -> np.ndarray:
    """Row-stochastic agent-to-agent coupling, supported on edges and self-loops."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.n:
        raise ValueError(f"state must be {g.n} rows, got {x.shape}")
    if w.feature_dim != x.shape[1]:
        raise ValueError(
            f"weights expect feature dim {w.feature_dim}, state has {x.shape[1]}"
        )
    mask = _edge_mask_with_self_loops(g)
    acc = np.zeros((g.n, g.n))
    for wk, wq in zip(w.w_k, w.w_q):
        keys = x @ wk.T
        queries = x @ wq.T
        acc += _masked_softmax_rows((keys @ queries.T) / w.d_k, mask)
    return acc / w.heads


def build_option_attention(x: np.ndarray, w: AttentionWeights) -> np.ndarray:
    """Dense row-stochastic option-to-option coupling, scored on state columns."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-d state")
    cols = x.T
    if w.feature_dim != cols.shape[1]:
        raise ValueError(
            f"weights expect feature dim {w.feature_dim}, "
            f"state has {cols.shape[1]} rows"
        )
    n_options = cols.shape[0]
    mask = np.ones((n_options, n_options), dtype=bool)
    acc = np.zeros((n_options, n_options))
    for wk, wq in zip(w.w_k, w.w_q):
        keys = cols @ wk.T
        queries = cols @ wq.T
        acc += _masked_softmax_rows((keys @ queries.T) / w.d_k, mask)
    return acc / w.heads
