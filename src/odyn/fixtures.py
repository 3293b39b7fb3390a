"""Shared small fixtures: the 3-agent demo system and its four runs, a
random symmetric graph, random stochastic matrices and the random problem
of the gradient check."""
from __future__ import annotations

import numpy as np

from .graphs import Graph, from_edge_list


def toy_adjacency() -> np.ndarray:
    """Row-stochastic influence matrix of the 3-agent demo system."""
    return np.array(
        [
            [0.0, 0.43, 0.57],
            [0.64, 0.0, 0.36],
            [0.70, 0.30, 0.0],
        ]
    )


def toy_initial_state() -> np.ndarray:
    """Initial 3-agent, 3-option state of the demo system."""
    return np.array(
        [
            [0.43, 0.29, 0.61],
            [0.14, 0.29, 0.37],
            [0.46, 0.79, 0.20],
        ]
    )


def toy_graph() -> Graph:
    """The demo influence matrix as a weighted directed graph."""
    a = toy_adjacency()
    edges = [
        (i, j, float(a[i, j]))
        for i in range(3)
        for j in range(3)
        if a[i, j] != 0.0
    ]
    return from_edge_list(edges, 3)


# The runs ``odyn toy`` writes and ``toy-figure`` checks: kernel tag, output
# name, and whether the run's source b is the initial state (else zero).
TOY_RUNS = (
    ("laplacian", "grand-l", False),
    ("laplacian-source", "grand++-l", True),
    ("graphcon-tran", "graphcon-tran", False),
    ("bimp", "bimp", True),
)


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Random symmetric unit-weight graph: ``rng`` draws one uniform per node
    pair i < j in row order, and joins the pair both ways when it is below ``p``."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < p:
                edges.append((i, j, 1.0))
                edges.append((j, i, 1.0))
    return from_edge_list(edges, n)


def random_row_stochastic(
    n: int, rng: np.random.Generator, zero_diagonal: bool = True
) -> np.ndarray:
    """Random row-stochastic matrix; diagonal zeroed by default like the demo."""
    if n == 1:
        # A 1x1 stochastic matrix is [1]; a zero diagonal is impossible here.
        return np.ones((1, 1))
    m = rng.uniform(0.0, 1.0, size=(n, n))
    if zero_diagonal:
        np.fill_diagonal(m, 0.0)
    return m / m.sum(axis=1, keepdims=True)


def _gradient_problem(rng: np.random.Generator, na: int, no: int, f: int):
    """A random gradient-check problem on ``na`` agents, ``no`` options and
    ``f`` features, as ``(x_in, w, aa, ao, target)``, the argument order of
    :func:`odyn.train.gradient_check`.

    ``rng`` draws, in this order: the dense row-stochastic couplings Aa and
    Ao, the features uniform on [-1, 1], the encoder uniform on [-1, 1]
    over sqrt(f), and the target uniform on [-1, 1].
    """
    aa = random_row_stochastic(na, rng, zero_diagonal=False)
    ao = random_row_stochastic(no, rng, zero_diagonal=False)
    x_in = rng.uniform(-1, 1, (na, f))
    w = rng.uniform(-1, 1, (f, no)) / np.sqrt(f)
    target = rng.uniform(-1, 1, (na, no))
    return x_in, w, aa, ao, target
