"""Sparse directed graphs in compressed row form, and their file formats.

A :class:`Graph` stores the communication structure: nonnegative edge
weights, no duplicate edges, rows sorted by target column.  Every graph
kernel couples its agents through ``g @ X``.  Its summation order is a
contract: each output cell is ``0.0 + w_0 x_0 + w_1 x_1 + ...``, added
left to right over the row's edges in target order, so seeded output
keeps its bits whatever layout computes the sum.  The product runs in
O(edges) time and memory; ``g @ np.eye(g.n)`` is the dense n-by-n form,
for small n.

File formats:

* graph JSON: ``{"n": int, "edges": [[src, dst, weight], ...]}``
* matrix CSV: one row per line, plain decimal values
"""
from __future__ import annotations

import itertools
import math
import re
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
        # state shape past the node axis -> _product_plan(self, that shape)
        object.__setattr__(self, "_plans", {})

    @property
    def edge_count(self) -> int:
        return int(self.targets.shape[0])

    def to_edge_list(self) -> list[tuple[int, int, float]]:
        """Expand back to a sorted ``(src, dst, weight)`` list."""
        return [(int(s), int(d), float(w))
                for s, d, w in zip(self.rows, self.targets, self.weights)]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A X for an ``(n,)`` or ``(n, o)`` state; a row without edges gives 0.

        A stack of states, ``x.ndim >= 3``, is acted on along axis -2, as
        numpy's matmul treats a dense A; each item keeps the bits of its own
        product.  Each output cell is ``0.0 + w_0 x_0 + w_1 x_1 + ...``,
        summed left to right over the row's edges in target order, signed
        zeros included.  The terms are gathered level by level from the
        padded layout of :func:`_product_plan` and reduced over the levels
        in one call.
        """
        x = np.asarray(x, dtype=np.float64)
        stack, key = None, x.shape[1:]
        if x.ndim >= 3 and x.shape[-2] == self.n:
            # the stack as one (n, items * o) state: each column sums on its
            # own, so the plan keyed by the stack's shape keeps its weights
            # unexpanded and does not grow with the stack
            stack = np.moveaxis(x, -2, 0)
            key = stack.shape[1:]
            x = stack.reshape(self.n, math.prod(key))
        elif x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError(f"graph on {self.n} nodes cannot act on shape {x.shape}")
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _product_plan(self, x.shape[1:], expand=len(key) <= 1)
        blocks, padded, order = plan
        if padded:
            x = np.concatenate([x, np.zeros((1, *x.shape[1:]))])
        if len(blocks) == 1:
            sums = _level_sum(x, *blocks[0])
        else:
            sums = np.concatenate([_level_sum(x, *block) for block in blocks])
        out = sums if order is None else sums.take(order, axis=0)
        return out if stack is None else np.moveaxis(out.reshape(stack.shape), 0, -2)

    @cached_property
    def T(self) -> Graph:
        """The transpose A^T, built once per graph."""
        return _sorted_graph(self.n, self.targets, self.rows, self.weights)

    def row_normalized(self) -> Graph:
        """The same edges with each row's weights scaled to sum to one."""
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite entries")
        sums = _row_sums(self)
        if np.any(sums <= 0):
            raise ValueError(f"row {int(np.flatnonzero(sums <= 0)[0])} has no positive entry")
        return replace(self, weights=self.weights / sums[self.rows])


def _row_sums(g: Graph) -> np.ndarray:
    """``g @ np.ones(g.n)`` with its bits, without caching a product plan on ``g``."""
    # bincount adds each row's weights from 0.0 in edge order, as the product does
    return np.bincount(g.rows, weights=g.weights, minlength=g.n).astype(np.float64)


def _sorted_graph(n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> Graph:
    """The graph of entries ``(rows[k], cols[k], weights[k])``, sorted by row then column."""
    # one stable sort on the combined key keeps equal entries in input order, as lexsort does
    order = np.argsort(rows * n + cols, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return Graph(n=n, offsets=offsets, targets=cols[order], weights=weights[order])


# A block's gathered terms stay within about this many bytes, so that its
# gather, multiply and reduce run in cache: on a 3000-node graph of
# out-degree 16 at 8 columns (3 MB of terms) three blocks made the product
# 1.2x faster than one (2 cores, numpy 2.4.6), and smaller classes stay whole.
_BLOCK_BYTES = 1 << 20


def _level_sum(x: np.ndarray, targets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum one block's terms ``weights[k] * x[targets[k]]`` over its levels k."""
    terms = x.take(targets, axis=0)
    terms *= weights
    # axis 0 is the reduce's outer loop, so each cell adds its terms in
    # level order, starting from 0.0
    return np.add.reduce(terms, axis=0, initial=0.0)


def _product_plan(g: Graph, tail: tuple[int, ...], expand: bool):
    """The padded level-major layout of ``g @ X`` for states of shape ``(n, *tail)``.

    Returns ``(blocks, padded, order)``.  When ``n * maxdeg <= 2 * edges``
    the rows keep their own order as one group; otherwise they are stably
    sorted by ``floor(log2(degree))``, one group per class, each padded by
    less than 2x.  Each group is split into near-equal runs of at least two
    rows whose terms take about ``_BLOCK_BYTES``, one block per run:
    ``targets[k, m]`` is the k-th target of the block's row m, or the zero
    row ``n`` past the row's last edge, and ``weights[k, m]`` its weight,
    0 in padded cells.  With ``expand`` the weights are repeated across the
    state's columns, shape ``targets.shape + tail``; without, they keep one
    column, shape ``targets.shape + (1,)``, and broadcast over a 2-d
    state.  ``order`` takes the concatenated block sums back to row order,
    or is None when they are in it already (one group and no guard row).
    ``padded`` tells whether any cell reads row ``n``.
    """
    width = int(np.prod(tail))
    degree = np.diff(g.offsets)
    if g.n * int(degree.max(initial=0)) <= 2 * g.edge_count:
        groups = [np.arange(g.n)]
    else:
        # frexp's exponent is floor(log2(d)) + 1, and 0 for a row without edges
        exponent = np.frexp(degree)[1]
        perm = np.argsort(exponent, kind="stable")
        groups = np.split(perm, np.flatnonzero(np.diff(exponent[perm])) + 1)
    blocks, padded, order, start = [], False, np.empty(g.n, dtype=np.int64), 0
    for group in groups:
        row_bytes = 8 * max(width, 1) * max(int(degree[group].max(initial=0)), 1)
        runs = min(-(-len(group) * row_bytes // _BLOCK_BYTES), len(group) // 2)
        for rows in np.array_split(group, max(runs, 1)):
            d = degree[rows]
            levels = int(d.max(initial=0))
            # numpy sums a one-cell reduce pairwise, so such a block gets a
            # second, padded row
            count = len(rows) + (len(rows) * width == 1 and levels > 1)
            column = np.repeat(np.arange(len(rows)), d)
            level = np.arange(column.size) - np.repeat(np.cumsum(d) - d, d)
            edge = np.repeat(g.offsets[rows], d) + level
            targets = np.full((levels, count), g.n, dtype=np.int64)
            weights = np.zeros((levels, count))
            targets[level, column] = g.targets[edge]
            weights[level, column] = g.weights[edge]
            padded |= column.size < targets.size
            if expand:
                # a broadcast multiply is slower on narrow states
                expanded = np.repeat(weights[:, :, None], width, axis=2)
                blocks.append((targets, expanded.reshape(targets.shape + tail)))
            else:
                blocks.append((targets, weights[:, :, None]))
            order[rows] = start + np.arange(len(rows))
            start += count
    # a guard row shifts every later row, so it needs the inverse order too
    in_order = len(groups) == 1 and start == g.n
    return tuple(blocks), padded, None if in_order else order


def from_edge_list(edges, n: int) -> Graph:
    """Build a :class:`Graph` from ``(src, dst, weight)`` triples.

    Indices must be integers in ``[0, n)``, weights must be finite and
    nonnegative, and a ``(src, dst)`` pair may appear at most once.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    e = np.asarray(edges, dtype=np.float64)
    if e.shape == (0,):
        e = e.reshape(0, 3)
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError(f"edges must be (src, dst, weight) triples, got shape {e.shape}")
    src, dst, w = e[:, 0], e[:, 1], e[:, 2]
    # NaN and inf are no integers either
    whole = np.isfinite(src) & np.isfinite(dst) & (src == np.trunc(src)) & (dst == np.trunc(dst))
    in_range = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
    finite = np.isfinite(w)
    bad = ~whole | ~in_range | ~finite | (w < 0)
    if bad.any():
        k = int(np.argmax(bad))
        if not whole[k]:
            raise ValueError(
                f"edge ({src[k]:g}, {dst[k]:g}) has a node index that is not an integer"
            )
        if not in_range[k]:
            # up to 15 digits, so a huge index prints short and a 7-digit one whole
            raise ValueError(f"edge ({src[k]:.15g}, {dst[k]:.15g}) out of range for n={n}")
        kind = "negative" if finite[k] else "non-finite"
        raise ValueError(f"{kind} weight {float(w[k])} on edge ({int(src[k])}, {int(dst[k])})")
    g = _sorted_graph(n, src.astype(np.int64), dst.astype(np.int64), w)
    dup = (g.rows[1:] == g.rows[:-1]) & (g.targets[1:] == g.targets[:-1])
    if dup.any():
        k = int(np.argmax(dup)) + 1
        raise ValueError(f"duplicate edge ({g.rows[k]}, {g.targets[k]})")
    return g


def degrees(g: Graph) -> np.ndarray:
    """Out-degree vector d_i = sum_j A_ij."""
    return _row_sums(g)


def sparse_laplacian(g: Graph) -> Graph:
    """The combinatorial Laplacian L = D - A as a CSR matrix with signed weights."""
    loop = g.rows == g.targets
    diag = degrees(g)
    diag[g.rows[loop]] -= g.weights[loop]
    nodes = np.arange(g.n)
    return _sorted_graph(g.n, np.r_[g.rows[~loop], nodes], np.r_[g.targets[~loop], nodes],
                         np.r_[-g.weights[~loop], diag])


# Graph file grammar, matched by the C regex engine; possessive repeats
# (Python 3.11 and later) keep no backtracking state, so a match allocates
# nothing per edge.
_W = rb"[ \t\n\r]*+"
_INTEGER = rb"(-?+(?:0|[1-9][0-9]*+))"
_NUMBER = rb"(?:-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][+-]?+[0-9]++)?+|NaN|-?+Infinity)"
_EDGE = rb"\[" + _W + _NUMBER + (_W + b"," + _W + _NUMBER) * 2 + _W + rb"\]"
# the object up to the '[' of its edge list, "n" before or after it
_HEAD = re.compile(_W + rb"\{" + _W + rb'(?:"n"' + _W + b":" + _W + _INTEGER + _W + b"," + _W
                   + rb')?+"edges"' + _W + b":" + _W + rb"\[")
_TAIL = re.compile(rb"\]" + _W + rb"(?:," + _W + rb'"n"' + _W + b":" + _W + _INTEGER + _W
                   + rb")?+\}" + _W)
_EDGES = re.compile(_W + rb"(?:" + _EDGE + _W + rb"(?:," + _W + _EDGE + _W + rb")*+)?+")
# JSON reads the integer -0 as 0, where numpy reads -0.0
_NEGATIVE_ZERO = re.compile(rb"(?<![^,])-0(?![^,])")


def load_graph_json(path) -> Graph:
    """Read a graph file: a JSON object with exactly the members ``"n"``, an
    integer, and ``"edges"``, a list of ``[src, dst, weight]`` lists of JSON
    numbers, ``NaN``, ``Infinity`` and ``-Infinity`` included, in either
    order and with any JSON whitespace.

    Each number gets the double that Python's ``json`` reads.  The file is
    matched against this grammar and its numbers parsed by numpy straight
    from its bytes, with no Python object per edge or number.  Any other
    content raises ``ValueError`` naming the file; :func:`from_edge_list`
    checks the values.
    """
    # the file's bytes are freed before the graph is built
    return from_edge_list(*_read_edge_file(path))


def _read_edge_file(path) -> tuple[np.ndarray, int]:
    data = Path(path).read_bytes()
    head = _HEAD.match(data)
    # the last ']' closes the edge list: nothing after it holds one
    close = data.rfind(b"]")
    tail = _TAIL.fullmatch(data, close) if head and close >= head.end() else None
    if tail is None or (head[1] is None) == (tail[1] is None):
        raise ValueError(f'graph file {path} must hold a JSON object with exactly the members '
                         f'"n" (an integer) and "edges" (a list of [src, dst, weight] lists)')
    n = int(head[1] or tail[1])
    start = head.end()
    valid = _EDGES.match(data, start, close).end()
    if valid != close:
        raise ValueError(f"graph file {path}: the edge list breaks off at byte {valid}; each "
                         f"edge must be a [src, dst, weight] list of JSON numbers")
    text = data[start:close].translate(None, b"[] \t\n\r")
    if b"-0" in text:
        text = _NEGATIVE_ZERO.sub(b"0", text)
    return np.fromstring(text, sep=",").reshape(-1, 3), n


def repr_rows(rows, header: str | None = None) -> str:
    """CSV text of rows of Python ints and floats, each written as its ``repr``
    (numpy 2 writes an ``np.float64`` x as ``np.float64(x)``)."""
    lines = [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines if header is None else [header, *lines]) + "\n"


def save_matrix_csv(m: np.ndarray, path) -> None:
    Path(path).write_text(repr_rows(np.atleast_2d(np.asarray(m, dtype=np.float64)).tolist()))


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix file: one row per line, values separated by commas with
    optional spaces or tabs around them, each a decimal number as ``float``
    reads it; blank lines are skipped.  numpy's ``loadtxt`` parses the
    rows, with no Python object per number.  Any other content raises
    ``ValueError`` naming the file, but no row of it."""
    with open(path) as f:
        rows = (line for line in f if not line.isspace())
        try:
            first = next(rows, None)
            if first is not None:
                return np.loadtxt(itertools.chain([first], rows), delimiter=",",
                                  comments=None, ndmin=2)
        except ValueError as e:
            # numpy counts rows without the blank lines, so its row number
            # may name the wrong line of the file
            reason = str(e).rpartition(" at row ")[0] or e
            raise ValueError(f"matrix file {path}: {reason}") from None
    raise ValueError(f"empty matrix file: {path}")
