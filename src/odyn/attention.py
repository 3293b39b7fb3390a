"""Scaled-dot attention for the agent and option couplings.

Agent attention is GAT-style (arXiv:1710.10903): each edge of the
communication graph with positive weight, plus one self-loop per node, is
scored from the state rows at its ends, and the scores are softmaxed over
each row's edges.  The result is a :class:`Graph` that carries the
attention as its weights, so training couples agents through the same
O(edges) ``g @ X`` as simulation.  Option attention scores pairs of state
columns and is a dense o-by-o matrix.

Scores are divided by the raw temperature ``d_k`` (not its square root).
Attention is built once from the initial state and held fixed while the
dynamics run.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graphs import Graph, from_edge_list


@dataclass(frozen=True)
class AttentionWeights:
    """Key and query projections, each attention_dim by feature_dim, and a temperature."""

    w_k: np.ndarray
    w_q: np.ndarray
    d_k: float

    def __post_init__(self):
        if self.w_k.shape != self.w_q.shape:
            raise ValueError("key and query weights must share one shape")
        if not self.d_k > 0:
            raise ValueError("temperature d_k must be positive")

    @property
    def attention_dim(self) -> int:
        return self.w_k.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w_k.shape[1]


def init_attention_weights(attention_dim: int, feature_dim: int, seed: int = 0) -> AttentionWeights:
    """Seeded uniform init in [-1/sqrt(feature_dim), 1/sqrt(feature_dim)], keys first.

    The bound keeps initial scores small enough that the softmax starts
    away from saturation.  The temperature ``d_k`` is the attention
    dimension.
    """
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(feature_dim)
    shape = (attention_dim, feature_dim)
    w_k = rng.uniform(-bound, bound, shape)
    w_q = rng.uniform(-bound, bound, shape)
    return AttentionWeights(w_k=w_k, w_q=w_q, d_k=float(attention_dim))


def build_communication_attention(x: np.ndarray, w: AttentionWeights, g: Graph) -> Graph:
    """Row-stochastic agent-to-agent coupling on the positive edges of ``g`` and self-loops."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.n:
        raise ValueError(f"state must be {g.n} rows, got {x.shape}")
    if w.feature_dim != x.shape[1]:
        raise ValueError(
            f"weights expect feature dim {w.feature_dim}, state has {x.shape[1]}"
        )
    keep = (g.weights > 0) & (g.rows != g.targets)
    loops = np.arange(g.n)
    src, dst = np.r_[g.rows[keep], loops], np.r_[g.targets[keep], loops]
    support = from_edge_list(np.column_stack([src, dst, np.ones(src.size)]), g.n)
    rows, cols = support.rows, support.targets
    keys = x @ w.w_k.T
    queries = x @ w.w_q.T
    scores = np.sum(keys[rows] * queries[cols], axis=1) / w.d_k
    # every row holds its self-loop, so no reduceat segment is empty
    scores -= np.maximum.reduceat(scores, support.offsets[:-1])[rows]
    expd = np.exp(scores)
    return replace(support, weights=expd / np.bincount(rows, expd, g.n)[rows])


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
    keys = cols @ w.w_k.T
    queries = cols @ w.w_q.T
    scores = (keys @ queries.T) / w.d_k
    expd = np.exp(scores - scores.max(axis=1, keepdims=True))
    return expd / expd.sum(axis=1, keepdims=True)
