"""Sparse directed graphs in compressed row form, and their file formats.

A :class:`Graph` stores the communication structure: nonnegative edge
weights, no duplicate edges, rows sorted by target column.  Every graph
kernel couples its agents through ``g @ X``, an O(edges) segment sum over
the rows; ``g @ np.eye(g.n)`` is the dense n-by-n form, for small n.

File formats:

* graph JSON: ``{"n": int, "edges": [[src, dst, weight], ...]}``
* matrix CSV: one row per line, plain decimal values
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Weighted directed graph in compressed row (CSR) form.

    ``offsets`` has length ``n + 1``; row ``i`` owns the slice
    ``targets[offsets[i]:offsets[i + 1]]`` with matching ``weights``;
    ``rows`` holds each edge's source row.  Instances are immutable and
    safe to share.
    """

    n: int
    offsets: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shape", (self.n, self.n))
        object.__setattr__(self, "rows", np.repeat(np.arange(self.n), np.diff(self.offsets)))
        for arr in (self.offsets, self.targets, self.weights, self.rows):
            arr.flags.writeable = False
        object.__setattr__(self, "_plans", {})  # state width -> (term sources, weights, bins)

    @property
    def edge_count(self) -> int:
        return int(self.targets.shape[0])

    def to_edge_list(self) -> list[tuple[int, int, float]]:
        """Expand back to a sorted ``(src, dst, weight)`` list."""
        return [(int(s), int(d), float(w))
                for s, d, w in zip(self.rows, self.targets, self.weights)]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A X for an ``(n,)`` or ``(n, o)`` state; a row without edges gives 0."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError(f"graph on {self.n} nodes cannot act on shape {x.shape}")
        width = x.size // self.n if self.n else 0
        if width not in self._plans:
            cols = np.arange(width)
            self._plans[width] = ((self.targets[:, None] * width + cols).ravel(),
                                  np.repeat(self.weights, width),
                                  (self.rows[:, None] * width + cols).ravel())
        sources, weights, bins = self._plans[width]
        terms = x.reshape(-1).take(sources)
        terms *= weights
        # a bincount of no terms comes back as int64
        return np.bincount(bins, terms, x.size).reshape(x.shape).astype(np.float64, copy=False)

    @cached_property
    def T(self) -> Graph:
        """The transpose A^T, built once per graph."""
        return _sorted_graph(self.n, self.targets, self.rows, self.weights)

    def row_normalized(self) -> Graph:
        """The same edges with each row's weights scaled to sum to one."""
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite entries")
        sums = self @ np.ones(self.n)
        if np.any(sums <= 0):
            raise ValueError(f"row {int(np.flatnonzero(sums <= 0)[0])} has no positive entry")
        return replace(self, weights=self.weights / sums[self.rows])


def _sorted_graph(n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> Graph:
    """The graph of entries ``(rows[k], cols[k], weights[k])``, sorted by row then column."""
    order = np.lexsort((cols, rows))
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return Graph(n=n, offsets=offsets, targets=cols[order], weights=weights[order])


def from_edge_list(edges, n: int) -> Graph:
    """Build a :class:`Graph` from ``(src, dst, weight)`` triples.

    Indices must lie in ``[0, n)``, weights must be finite and
    nonnegative, and a ``(src, dst)`` pair may appear at most once.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    e = np.asarray(edges, dtype=np.float64)
    if e.shape == (0,):
        e = e.reshape(0, 3)
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError(f"edges must be (src, dst, weight) triples, got shape {e.shape}")
    # indices truncate toward zero, as int() does
    src, dst, w = np.trunc(e[:, 0]), np.trunc(e[:, 1]), e[:, 2]
    in_range = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
    finite = np.isfinite(w)
    bad = ~in_range | ~finite | (w < 0)
    if bad.any():
        k = int(np.argmax(bad))
        s, d = int(src[k]), int(dst[k])
        if not in_range[k]:
            raise ValueError(f"edge ({s}, {d}) out of range for n={n}")
        kind = "negative" if finite[k] else "non-finite"
        raise ValueError(f"{kind} weight {float(w[k])} on edge ({s}, {d})")
    g = _sorted_graph(n, src.astype(np.int64), dst.astype(np.int64), w)
    dup = (g.rows[1:] == g.rows[:-1]) & (g.targets[1:] == g.targets[:-1])
    if dup.any():
        k = int(np.argmax(dup)) + 1
        raise ValueError(f"duplicate edge ({g.rows[k]}, {g.targets[k]})")
    return g


def degrees(g: Graph) -> np.ndarray:
    """Out-degree vector d_i = sum_j A_ij."""
    return g @ np.ones(g.n)


def sparse_laplacian(g: Graph) -> Graph:
    """The combinatorial Laplacian L = D - A as a CSR matrix with signed weights."""
    loop = g.rows == g.targets
    diag = degrees(g)
    diag[g.rows[loop]] -= g.weights[loop]
    nodes = np.arange(g.n)
    return _sorted_graph(g.n, np.r_[g.rows[~loop], nodes], np.r_[g.targets[~loop], nodes],
                         np.r_[-g.weights[~loop], diag])


def load_graph_json(path) -> Graph:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or not {"n", "edges"} <= payload.keys():
        raise ValueError(f"graph file {path} must hold an object with keys 'n' and 'edges'")
    try:
        return from_edge_list(payload["edges"], payload["n"])
    except TypeError as e:
        raise ValueError(f"graph file {path}: {e}") from None


def save_matrix_csv(m: np.ndarray, path) -> None:
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    lines = [",".join(repr(float(v)) for v in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"empty matrix file: {path}")
    return np.array(rows, dtype=np.float64)
