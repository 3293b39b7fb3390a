"""Dense and file-handling helpers that only the tests read.

The package couples agents through sparse graphs; these dense forms are
the small-n oracles its sparse paths are checked against, and
``load_graph_json`` is the ``json`` reader its graph reader is checked
against.
"""
import json
from pathlib import Path

import numpy as np

from odyn.graphs import Graph, from_edge_list


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


def dense_adjacency(g: Graph) -> np.ndarray:
    """Materialize the n-by-n weighted adjacency matrix."""
    a = np.zeros((g.n, g.n))
    a[g.rows, g.targets] = g.weights
    return a


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A; every row sums to zero."""
    a = dense_adjacency(g)
    return np.diag(a.sum(axis=1)) - a


def save_graph_json(g: Graph, path) -> None:
    payload = {"n": g.n, "edges": [[s, d, w] for s, d, w in g.to_edge_list()]}
    Path(path).write_text(json.dumps(payload))


def load_graph_json(path) -> Graph:
    """A graph file read through ``json.loads``, one Python object per number."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or not {"n", "edges"} <= payload.keys():
        raise ValueError(f"graph file {path} must hold an object with keys 'n' and 'edges'")
    try:
        return from_edge_list(payload["edges"], payload["n"])
    except TypeError as e:
        raise ValueError(f"graph file {path}: {e}") from None


def rhs_linear_opinion(x: np.ndarray, a: np.ndarray, d_vec: np.ndarray) -> np.ndarray:
    """Degree-damped linear averaging: dx_i/dt = -d_i x_i + sum_k a_ik x_k."""
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    d_vec = np.asarray(d_vec, dtype=np.float64)
    if np.any(a < 0):
        raise ValueError("influence weights must be nonnegative")
    if a.shape[0] != x.shape[0] or d_vec.shape != (a.shape[0],):
        raise ValueError("inconsistent shapes")
    if np.max(np.abs(a.sum(axis=1) - d_vec), initial=0.0) > 1e-10:
        raise ValueError("damping vector must equal the influence row sums")
    return -d_vec[:, None] * x + a @ x


def graph_product(g: Graph, x: np.ndarray) -> np.ndarray:
    """A X in pure Python: each cell is ``0.0 + w x + ...`` in CSR edge order."""
    x = np.asarray(x, dtype=np.float64)
    cols = x.reshape(g.n, -1).tolist() if g.n else []
    width = x.size // g.n if g.n else 0
    out = []
    for i in range(g.n):
        row = [0.0] * width
        for e in range(g.offsets[i], g.offsets[i + 1]):
            w, src = float(g.weights[e]), cols[g.targets[e]]
            row = [acc + w * v for acc, v in zip(row, src)]
        out.append(row)
    return np.array(out, dtype=np.float64).reshape(x.shape)


def step_jacobian(x: np.ndarray, aa: np.ndarray, ao: np.ndarray, cfg) -> np.ndarray:
    """Dense Jacobian of one Euler step of ``train`` with respect to the previous state.

    (1 - d dt) I + dt diag(sech^2(z)) u ((alpha - 1) I + K) on the
    column-stacked state, with K = (Ao + I) kron (Aa + I); z is recomputed
    from the state, not read from a tape.
    """
    n = x.size
    kron = np.kron(ao + np.eye(ao.shape[0]), aa + np.eye(aa.shape[0]))
    op = cfg.u * ((cfg.alpha - 1.0) * np.eye(n) + kron)
    z = op @ x.ravel(order="F")
    sech2 = (1.0 / np.cosh(z)) ** 2
    return (1.0 - cfg.d * cfg.dt) * np.eye(n) + cfg.dt * (sech2[:, None] * op)


def jacobian_chain(tape, cfg) -> np.ndarray:
    """Dense product J_M ... J_1 of the step Jacobians along a tape's states.

    A :class:`Graph` agent coupling, as ``train_sgd`` tapes hold, is made dense.
    """
    aa = dense_adjacency(tape.aa) if isinstance(tape.aa, Graph) else tape.aa
    product = np.eye(tape.states[0].size)
    for t in range(1, cfg.steps + 1):
        product = step_jacobian(tape.states[t - 1], aa, tape.ao, cfg) @ product
    return product
