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
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Weighted directed graph in compressed row (CSR) form.

    ``offsets`` has length ``n + 1``; row ``i`` owns the slice
    ``targets[offsets[i]:offsets[i + 1]]`` with matching ``weights``;
    ``rows`` holds each edge's source row, derived from ``offsets`` unless
    given (``dataclasses.replace`` of the weights alone passes it on).
    Instances are immutable and safe to share; each keeps one product plan
    per state shape, built by its first product on that shape.
    """

    n: int
    offsets: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    rows: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "shape", (self.n, self.n))
        if self.rows is None:
            object.__setattr__(self, "rows", np.repeat(np.arange(self.n), np.diff(self.offsets)))
        for arr in (self.offsets, self.targets, self.weights, self.rows):
            arr.flags.writeable = False
        # state shape -> the _product_plan of the first product on it
        object.__setattr__(self, "_plans", {})

    @property
    def edge_count(self) -> int:
        return int(self.targets.shape[0])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A X for an ``(n,)`` or ``(n, o)`` state; a row without edges gives 0.

        A stack of states, ``x.ndim >= 3``, is acted on along axis -2, as
        numpy's matmul treats a dense A; each item keeps the bits of its own
        product.  Each output cell is ``0.0 + w_0 x_0 + w_1 x_1 + ...``,
        summed left to right over the row's edges in target order, signed
        zeros included.  The terms are gathered level by level from the
        padded layout of :func:`_product_plan`, built by the first product
        on ``x``'s shape and kept, and reduced over the levels in one call.
        """
        x = np.asarray(x, dtype=np.float64)
        plan = self._plans.get(x.shape)
        if plan is None:
            shape = x.shape
            if len(shape) >= 3 and shape[-2] == self.n:
                # the stack as one (n, items * o) state: each column sums on
                # its own, so the plan keeps its weights unexpanded and does
                # not grow with the stack
                tail = (*shape[:-2], shape[-1])
            elif len(shape) in (1, 2) and shape[0] == self.n:
                tail = shape[1:]
            else:
                raise ValueError(f"graph on {self.n} nodes cannot act on shape {shape}")
            plan = self._plans[shape] = _product_plan(self, tail, expand=len(tail) <= 1)
        return _apply(plan, x)

    @cached_property
    def T(self) -> Graph:
        """The transpose A^T, built once per graph."""
        return _sorted_graph(self.n, self.targets, self.rows, self.weights)

    def row_normalized(self) -> Graph:
        """The same edges with each row's weights scaled to sum to one.

        A sink, a row with no positive weight, becomes one unit self-loop,
        as attention gives every node, so that it hears only itself.
        """
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite entries")
        sums = degrees(self)
        sinks = sums <= 0
        if not sinks.any():
            return replace(self, weights=self.weights / sums[self.rows])
        keep, nodes = ~sinks[self.rows], np.flatnonzero(sinks)
        rows = self.rows[keep]
        return _sorted_graph(self.n, np.r_[rows, nodes], np.r_[self.targets[keep], nodes],
                             np.r_[self.weights[keep] / sums[rows], np.ones(nodes.size)])


def _sorted_graph(n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> Graph:
    """The graph of entries ``(rows[k], cols[k], weights[k])``, sorted by row then column."""
    # one stable sort on the combined key keeps equal entries in input order, as lexsort does
    order = np.argsort(rows * n + cols, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return Graph(n=n, offsets=offsets, targets=cols[order], weights=weights[order])


# A block's gathered terms stay within about this many bytes, so that its
# gather, multiply and reduce run in cache: on a 3000-node graph of
# out-degree 16 at 8 columns (3 MB of terms) three blocks made the product
# 1.2x faster than one (2 cores, numpy 2.4.6), and smaller groups stay whole.
_BLOCK_BYTES = 1 << 20

# A group of rows costs as much as gathering about this many bytes of terms:
# its gather, multiply and reduce calls and its share of the concatenation
# and reorder took 2-6 us, against 0.14-0.31 ns per byte of terms, on
# 200- to 3000-node graphs at 2 and 3 columns (18-25 KB; 2 cores, numpy
# 2.4.6).  On the 1000-node attention graph of train, 20-32 KB all give
# three groups.
_GROUP_BYTES = 24 << 10


def _apply(plan, x: np.ndarray) -> np.ndarray:
    """``A x`` by the :func:`_product_plan` built for ``x``'s shape."""
    if x.ndim >= 3:
        # the stack as one (n, items * o) state, each column summed on its own
        stack = np.moveaxis(x, -2, 0)
        out = _apply(plan, stack.reshape(stack.shape[0], math.prod(stack.shape[1:])))
        return np.moveaxis(out.reshape(stack.shape), 0, -2)
    blocks, padded, order = plan
    if padded:
        x = np.concatenate([x, np.zeros((1, *x.shape[1:]))])
    if len(blocks) == 1:
        sums = _level_sum(x, *blocks[0])
    else:
        sums = np.concatenate([_level_sum(x, *block) for block in blocks])
    return sums if order is None else sums.take(order, axis=0)


def _level_sum(x: np.ndarray, targets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum one block's terms ``weights[k] * x[targets[k]]`` over its levels k."""
    terms = x.take(targets, axis=0)
    terms *= weights
    # axis 0 is the reduce's outer loop, so each cell adds its terms in
    # level order, starting from 0.0
    return np.add.reduce(terms, axis=0, initial=0.0)


def _degree_groups(degree: np.ndarray, width: int) -> list[np.ndarray]:
    """The rows, cut into groups of consecutive degrees at the least cost.

    The rows are stably sorted by degree and cut into contiguous runs.  A
    group pads each of its rows to its deepest; it costs its padded cells,
    at ``8 * width`` bytes of terms each, plus ``_GROUP_BYTES``.  Only
    groups with at most two cells per edge are allowed, as every group of
    one degree is.  No cut falls between two rows of one degree, which
    would add a group and save no cell.  A single group keeps the rows in
    their own order.
    """
    values, counts = np.unique(degree, return_counts=True)
    # rows and edges of the rows with a degree below values[k]
    rows = np.r_[0, np.cumsum(counts)]
    edges = np.r_[0, np.cumsum(counts * values)]
    cost = np.zeros(len(values) + 1)
    first = np.zeros(len(values) + 1, dtype=np.int64)
    for k in range(1, len(values) + 1):
        # the group of degrees values[i:k] for each i < k, padded to values[k - 1]
        cells = (rows[k] - rows[:k]) * values[k - 1]
        total = np.where(cells <= 2 * (edges[k] - edges[:k]),
                         cost[:k] + 8.0 * width * cells, np.inf)
        first[k] = np.argmin(total)
        cost[k] = total[first[k]] + _GROUP_BYTES
    cuts, k = [], len(values)
    while first[k] > 0:
        k = first[k]
        cuts.append(rows[k])
    if not cuts:
        return [np.arange(len(degree))]
    return np.split(np.argsort(degree, kind="stable"), cuts[::-1])


def _product_plan(g: Graph, tail: tuple[int, ...], expand: bool):
    """The padded level-major layout of ``g @ X`` for states of shape ``(n, *tail)``.

    Returns ``(blocks, padded, order)``.  The rows fall into the groups of
    :func:`_degree_groups`.  Each group is split into near-equal runs of at
    least two rows whose terms take about ``_BLOCK_BYTES``, one block per
    run: ``targets[k, m]`` is the k-th target of the block's row m, or the
    zero row ``n`` past the row's last edge, and ``weights[k, m]`` its
    weight, 0 in padded cells.  With ``expand`` the weights are repeated
    across the state's columns, shape ``targets.shape + tail``; without,
    they keep one column, shape ``targets.shape + (1,)``, and broadcast over
    a 2-d state of ``prod(tail)`` columns.  ``order`` takes the concatenated
    block sums back to row order, or is None when they are in it already
    (one group and no guard row).  ``padded`` tells whether any cell reads
    row ``n``.
    """
    width = math.prod(tail)
    degree = np.diff(g.offsets)
    groups = _degree_groups(degree, width)
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
    if n >= 2**63:
        # node indices are int64
        raise ValueError("node count must be less than 2**63")
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


def disjoint_union(g: Graph, copies: int) -> Graph:
    """``copies`` copies of ``g`` side by side: node i of copy c is node c n + i.

    Each row keeps its edges in their order, so a state that stacks one
    (n, o) block per copy gets each block's product with the bits of
    ``g @ block``.  One copy is ``g`` itself, with the product plans it
    has built.
    """
    if copies == 1:
        return g
    shifts = np.arange(copies)[:, None]
    offsets = (shifts * g.edge_count + g.offsets[:-1]).ravel()
    return Graph(n=copies * g.n, offsets=np.r_[offsets, copies * g.edge_count],
                 targets=(shifts * g.n + g.targets).ravel(), weights=np.tile(g.weights, copies))


def degrees(g: Graph) -> np.ndarray:
    """Out-degree vector d_i = sum_j A_ij: ``g @ np.ones(g.n)`` with its bits,
    without caching a product plan on ``g``."""
    # bincount adds each row's weights from 0.0 in edge order, as the product does
    return np.bincount(g.rows, weights=g.weights, minlength=g.n).astype(np.float64)


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
