"""Sparse directed graphs in compressed row form, plus dense-matrix plumbing.

A :class:`Graph` stores the communication structure: nonnegative edge
weights, no duplicate edges, rows sorted by target column.  Dense state
and coupling matrices are plain float64 numpy arrays throughout the
package.

File formats:

* graph JSON: ``{"n": int, "edges": [[src, dst, weight], ...]}``
* matrix CSV: one row per line, plain decimal values
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Weighted directed graph in compressed row (CSR) form.

    ``offsets`` has length ``n + 1``; row ``i`` owns the slice
    ``targets[offsets[i]:offsets[i + 1]]`` with matching ``weights``.
    Instances are immutable and safe to share.
    """

    n: int
    offsets: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for arr in (self.offsets, self.targets, self.weights):
            arr.flags.writeable = False

    @property
    def edge_count(self) -> int:
        return int(self.targets.shape[0])

    def to_edge_list(self) -> list[tuple[int, int, float]]:
        """Expand back to a sorted ``(src, dst, weight)`` list."""
        rows = np.repeat(np.arange(self.n), np.diff(self.offsets))
        return [
            (int(s), int(d), float(w))
            for s, d, w in zip(rows, self.targets, self.weights)
        ]

    def dense_adjacency(self) -> np.ndarray:
        """Materialize the n-by-n weighted adjacency matrix."""
        a = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.offsets))
        a[rows, self.targets] = self.weights
        return a


def from_edge_list(edges, n: int) -> Graph:
    """Build a :class:`Graph` from ``(src, dst, weight)`` triples.

    Indices must lie in ``[0, n)``, weights must be nonnegative, and a
    ``(src, dst)`` pair may appear at most once.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    triples = [(int(s), int(d), float(w)) for s, d, w in edges]
    for s, d, w in triples:
        if not (0 <= s < n and 0 <= d < n):
            raise ValueError(f"edge ({s}, {d}) out of range for n={n}")
        if w < 0:
            raise ValueError(f"negative weight {w} on edge ({s}, {d})")
    triples.sort(key=lambda e: (e[0], e[1]))
    for prev, cur in zip(triples, triples[1:]):
        if prev[0] == cur[0] and prev[1] == cur[1]:
            raise ValueError(f"duplicate edge ({cur[0]}, {cur[1]})")
    counts = np.zeros(n, dtype=np.int64)
    for s, _, _ in triples:
        counts[s] += 1
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    targets = np.array([d for _, d, _ in triples], dtype=np.int64)
    weights = np.array([w for _, _, w in triples], dtype=np.float64)
    return Graph(n=n, offsets=offsets, targets=targets, weights=weights)


def row_normalize(m: np.ndarray) -> np.ndarray:
    """Scale each row of a nonnegative matrix to sum to one.

    Zero entries stay zero; a zero row or a negative entry is rejected.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries")
    if np.any(m < 0):
        raise ValueError("negative entries cannot be row-normalized")
    sums = m.sum(axis=1)
    if np.any(sums <= 0):
        bad = int(np.flatnonzero(sums <= 0)[0])
        raise ValueError(f"row {bad} has no positive entry")
    return m / sums[:, None]


def degrees(g: Graph) -> np.ndarray:
    """Out-degree vector d_i = sum_j A_ij."""
    d = np.zeros(g.n)
    rows = np.repeat(np.arange(g.n), np.diff(g.offsets))
    np.add.at(d, rows, g.weights)
    return d


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A; every row sums to zero."""
    a = g.dense_adjacency()
    return np.diag(a.sum(axis=1)) - a


def save_graph_json(g: Graph, path) -> None:
    payload = {"n": g.n, "edges": [[s, d, w] for s, d, w in g.to_edge_list()]}
    Path(path).write_text(json.dumps(payload))


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
