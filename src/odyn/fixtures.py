"""Shared small fixtures: the 3-agent demo system and its four runs, a
random symmetric graph on blocks of nodes, random stochastic matrices, the
complete graph of a matrix, and the random problem of the gradient check."""
from __future__ import annotations

import numpy as np

from .graphs import Graph, from_edge_list


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
    """The row-stochastic influence graph of the 3-agent demo system."""
    return from_edge_list([(0, 1, 0.43), (0, 2, 0.57), (1, 0, 0.64), (1, 2, 0.36),
                           (2, 0, 0.70), (2, 1, 0.30)], 3)


# The runs ``odyn toy`` writes and ``toy-figure`` checks: kernel tag, output
# name, and whether the run's source b is the initial state (else zero).
TOY_RUNS = (
    ("laplacian", "grand-l", False),
    ("laplacian-source", "grand++-l", True),
    ("graphcon-tran", "graphcon-tran", False),
    ("bimp", "bimp", True),
)


def random_graph(
    sizes: tuple[int, ...], p_in: float, p_out: float, rng: np.random.Generator
) -> Graph:
    """Random symmetric unit-weight graph on consecutive blocks of ``sizes``
    nodes: ``rng`` draws one uniform per node pair i < j in row order, and
    joins the pair both ways when it is below ``p_in`` within a block and
    ``p_out`` across blocks."""
    i, j = _linked_pairs(sizes, p_in, p_out, rng)
    return from_edge_list(np.column_stack([np.r_[i, j], np.r_[j, i], np.ones(2 * i.size)]),
                          sum(sizes))


# Pairs whose uniforms random_graph draws at once: 0.5 MB of doubles
_SBM_RUN_PAIRS = 1 << 16


def _linked_pairs(
    sizes: tuple[int, ...], p_in: float, p_out: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j that :func:`random_graph` links, as ``(i, j)``.

    The pairs are numbered in row-major order, row i starting at
    i (2n - i - 1) / 2, and drawn in runs of at most ``_SBM_RUN_PAIRS``,
    so the memory is O(n + edges); k draws of one double give the bits of
    one draw of k, so the stream is that of a single draw over all pairs.
    Pair k links when its uniform is below its probability, which is
    constant on two segments of each row: row i of a block that ends
    before node e meets e - 1 - i later nodes of its own block at
    ``p_in``, then the n - e nodes of the later blocks at ``p_out``.
    """
    n = sum(sizes)
    rows = np.arange(n, dtype=np.int64)
    row_starts = rows * (2 * n - rows - 1) // 2
    ends = np.repeat(np.cumsum(sizes, dtype=np.int64), sizes)
    lengths = np.column_stack([ends - 1 - rows, n - ends]).ravel()
    values = np.tile([p_in, p_out], n)
    bounds = np.r_[0, np.cumsum(lengths)]
    total = int(bounds[-1])
    hits = [np.empty(0, dtype=np.int64)]
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


def complete_graph(m: np.ndarray) -> Graph:
    """The square matrix ``m`` as a graph with one edge per entry, zeros
    included, so that ``g @ np.eye(n)`` gives back ``m`` bit for bit."""
    n = m.shape[0]
    return Graph(n=n, offsets=np.arange(0, n * n + 1, n), targets=np.tile(np.arange(n), n),
                 weights=np.array(m, dtype=np.float64).ravel())


def _gradient_problem(rng: np.random.Generator, na: int, no: int, f: int):
    """A random gradient-check problem on ``na`` agents, ``no`` options and
    ``f`` features, as ``(x_in, w, aa, ao, target)``, the argument order of
    :func:`odyn.train.gradient_check`.

    ``rng`` draws, in this order: the row-stochastic couplings Aa, held as
    its :func:`complete_graph`, and Ao, the features uniform on [-1, 1],
    the encoder uniform on [-1, 1] over sqrt(f), and the target uniform on
    [-1, 1].
    """
    aa = complete_graph(random_row_stochastic(na, rng, zero_diagonal=False))
    ao = random_row_stochastic(no, rng, zero_diagonal=False)
    x_in = rng.uniform(-1, 1, (na, f))
    w = rng.uniform(-1, 1, (f, no)) / np.sqrt(f)
    target = rng.uniform(-1, 1, (na, no))
    return x_in, w, aa, ao, target
