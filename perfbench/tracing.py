"""Span tracing around the package's public calls, and the per-layer metrics.

The tracer wraps callables as their callers see them: a name that a
module imported directly (``cli.kernel_setup``, ``acceptance.rhs_bimp``)
is replaced in that module's namespace for the traced operation only and
restored afterwards; the callables the program hands on (``setup.rhs``,
the energy and diameter functions) are wrapped where they are made.
Nothing in the package changes.

A span is ``[name, start, end, parent]``, kept in memory.  A span's self
time is its duration minus the durations of its direct children.
Counts (work items, bytes, flops) are recorded at the same boundaries;
bytes are file sizes as written, flops are computed from shapes.
"""
from __future__ import annotations

import collections
import contextlib
import dataclasses
import os
import sys
import time

import numpy as np

ROOT_SPAN = "cli.main"

CRITERIA = (
    "toy-figure",
    "leading-eigenvalue",
    "bifurcation-structure",
    "critical-consensus",
    "dissensus-input",
    "energy-stability",
    "gradient-suite",
    "closed-form",
    "scrambling-contraction",
    "saturation-validity",
    "rhs-equivalence",
    "training-smoke",
)

# (name, unit); BENCHMARK.json adds the direction.  Counts (units in
# COUNT_UNITS) repeat exactly between traced operations.
PER_LAYER = (
    ("graphs.load_graph_json.s", "s"),
    ("graphs.load_matrix_csv.s", "s"),
    ("kernels.kernel_setup.s", "s"),
    ("kernels.rhs.calls", "count"),
    ("kernels.rhs.s", "s"),
    ("kernels.rhs.us_per_call", "us"),
    ("kernels.rhs.useful_gflops", "GFLOP/s"),
    ("integrate.euler_integrate.self_s", "s"),
    ("integrate.step_overhead_us", "us"),
    ("integrate.snapshots", "count"),
    ("integrate.save_trajectory_csv.s", "s"),
    ("integrate.save_trajectory_csv.bytes", "B"),
    ("integrate.save_trajectory_csv.mb_per_s", "MB/s"),
    ("integrate.save_metrics_csv.s", "s"),
    ("analysis.dirichlet_energy.calls", "count"),
    ("analysis.dirichlet_energy.s", "s"),
    ("analysis.opinion_diameter.calls", "count"),
    ("analysis.opinion_diameter.s", "s"),
    ("analysis.reduced_equilibria.calls", "count"),
    ("analysis.reduced_equilibria.s", "s"),
    ("analysis.scrambling_check.s", "s"),
    ("spectral.power_iteration.iterations", "count"),
    ("spectral.power_iteration.s", "s"),
    ("attention.build_communication_attention.s", "s"),
    ("attention.build_option_attention.s", "s"),
    ("train.make_sbm_task.s", "s"),
    ("train.train_sgd.self_s", "s"),
    ("train.forward_unroll.calls", "count"),
    ("train.forward_unroll.s", "s"),
    ("train.encoding_grad.s", "s"),
    ("train.gradient_check.s", "s"),
    ("train.jacobian_chain_norm.s", "s"),
    *((f"acceptance.{c}.s", "s") for c in CRITERIA),
    ("cli.uncovered_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
COUNT_UNITS = ("count", "B")


def _bimp_flops(nnz: int, n: int, o: int) -> int:
    """Useful flops of one saturated-kernel evaluation.

    Aa X over the nonzeros, two products with the o-by-o option coupling,
    and eight elementwise operations; independent of how Aa is stored.
    """
    return 2 * nnz * o + 4 * n * o * o + 8 * n * o


def _linear_flops(nnz: int, n: int, o: int) -> int:
    """One product with an operator on the graph's nonzeros plus its diagonal."""
    return 2 * (nnz + n) * o


class Tracer:
    """Records spans and counts while :meth:`patched` is active.

    With ``keep_spans=False`` it records the counts only, so that the
    operation's memory holds nothing per call.
    """

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._nnz: dict[int, tuple[np.ndarray, int]] = {}

    def reset(self) -> None:
        self.spans, self.counts, self._nnz = [], collections.Counter(), {}

    def wrap(self, name, fn, hook=None):
        """``fn`` recorded as a span; ``hook(tracer, index, result, args)``
        may count work and returns the result handed to the caller; ``index``
        is None when spans are not kept."""

        def traced(*args, **kwargs):
            if not self.keep_spans:
                result = fn(*args, **kwargs)
                return hook(self, None, result, args) if hook else result
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            return hook(self, index, result, args) if hook else result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Replace the traced names in the package, and restore them on exit."""
        saved = []
        try:
            for module, attr, name, hook in PATCHES:
                mod = sys.modules[f"odyn.{module}"]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, hook))
            acceptance = sys.modules["odyn.acceptance"]
            saved.append((acceptance, "ALL_CRITERIA", acceptance.ALL_CRITERIA))
            acceptance.ALL_CRITERIA = tuple(
                self.wrap("acceptance", c, _name_criterion) for c in acceptance.ALL_CRITERIA
            )
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def nnz(self, m: np.ndarray) -> int:
        """Nonzeros of a coupling matrix, counted once per matrix object."""
        key = id(m)
        if key not in self._nnz:
            self._nnz[key] = (m, int(np.count_nonzero(m)))
        return self._nnz[key][1]

    def count_rhs(self, flops: int, entries: int) -> None:
        self.counts["kernels.rhs.flops"] += flops
        self.counts["updates"] += entries


def _traced_setup(tracer, index, setup, args):
    tag, g, x0 = args[0], args[1], np.asarray(args[2])
    n, o = x0.shape
    flops = (_bimp_flops if tag == "bimp" else _linear_flops)(g.edge_count, n, o)

    def count(tracer, index, result, rhs_args):
        tracer.count_rhs(flops, x0.size)
        return result

    return dataclasses.replace(setup, rhs=tracer.wrap("kernels.rhs", setup.rhs, count))


def _count_rhs_bimp(tracer, index, result, args):
    x, aa = args[0], args[1]
    tracer.count_rhs(_bimp_flops(tracer.nnz(aa), *x.shape), x.size)
    return result


def _count_adjoint(tracer, index, result, args):
    tape = args[0]
    tracer.counts["updates"] += (len(tape.states) - 1) * tape.states[0].size
    return result


def _count_snapshots(tracer, index, traj, args):
    tracer.counts["integrate.snapshots"] += len(traj.times)
    return traj


def _count_bytes(tracer, index, result, args):
    tracer.counts["integrate.save_trajectory_csv.bytes"] += os.path.getsize(args[1])
    return result


def _count_iterations(tracer, index, res, args):
    tracer.counts["spectral.power_iteration.iterations"] += res.iterations
    return res


def _name_criterion(tracer, index, result, args):
    if index is not None:
        tracer.spans[index][0] = f"acceptance.{result.name}"
    return result


# (module of odyn, attribute as the caller sees it, span name, hook)
PATCHES = (
    ("cli", "load_graph_json", "graphs.load_graph_json", None),
    ("cli", "load_matrix_csv", "graphs.load_matrix_csv", None),
    ("cli", "kernel_setup", "kernels.kernel_setup", _traced_setup),
    ("acceptance", "kernel_setup", "kernels.kernel_setup", _traced_setup),
    ("train", "rhs_bimp", "kernels.rhs", _count_rhs_bimp),
    ("acceptance", "rhs_bimp", "kernels.rhs", _count_rhs_bimp),
    ("cli", "euler_integrate", "integrate.euler_integrate", _count_snapshots),
    ("acceptance", "euler_integrate", "integrate.euler_integrate", _count_snapshots),
    ("cli", "save_trajectory_csv", "integrate.save_trajectory_csv", _count_bytes),
    ("cli", "save_metrics_csv", "integrate.save_metrics_csv", None),
    ("cli", "dirichlet_energy", "analysis.dirichlet_energy", None),
    ("acceptance", "dirichlet_energy", "analysis.dirichlet_energy", None),
    ("cli", "opinion_diameter", "analysis.opinion_diameter", None),
    ("acceptance", "opinion_diameter", "analysis.opinion_diameter", None),
    ("acceptance", "reduced_equilibria", "analysis.reduced_equilibria", None),
    ("acceptance", "scrambling_check", "analysis.scrambling_check", None),
    ("acceptance", "power_iteration", "spectral.power_iteration", _count_iterations),
    ("train", "build_communication_attention", "attention.build_communication_attention", None),
    ("train", "build_option_attention", "attention.build_option_attention", None),
    ("cli", "make_sbm_task", "train.make_sbm_task", None),
    ("acceptance", "make_sbm_task", "train.make_sbm_task", None),
    ("cli", "train_sgd", "train.train_sgd", None),
    ("acceptance", "train_sgd", "train.train_sgd", None),
    ("train", "forward_unroll", "train.forward_unroll", None),
    ("acceptance", "forward_unroll", "train.forward_unroll", None),
    ("train", "encoding_grad", "train.encoding_grad", _count_adjoint),
    ("acceptance", "gradient_check", "train.gradient_check", None),
    ("acceptance", "jacobian_chain_norm", "train.jacobian_chain_norm", None),
)


def layer_metrics(spans: list[list], counts: collections.Counter) -> dict[str, float]:
    """Per-layer metrics of one traced operation (all but the overhead ratio)."""
    duration = [end - start for _, start, end, _ in spans]
    children = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent] += duration[i]
    total: dict[str, float] = collections.defaultdict(float)
    own: dict[str, float] = collections.defaultdict(float)
    calls: collections.Counter = collections.Counter()
    for i, (name, _, _, _) in enumerate(spans):
        total[name] += duration[i]
        own[name] += duration[i] - children[i]
        calls[name] += 1
    euler_steps = sum(
        1
        for name, _, _, parent in spans
        if name == "kernels.rhs" and parent >= 0 and spans[parent][0] == "integrate.euler_integrate"
    )

    def ratio(num, den):
        return num / den if den else 0.0

    rhs_s, csv_s = total["kernels.rhs"], total["integrate.save_trajectory_csv"]
    csv_bytes = counts["integrate.save_trajectory_csv.bytes"]
    m = {
        "kernels.rhs.us_per_call": 1e6 * ratio(rhs_s, calls["kernels.rhs"]),
        "kernels.rhs.useful_gflops": 1e-9 * ratio(counts["kernels.rhs.flops"], rhs_s),
        "integrate.euler_integrate.self_s": own["integrate.euler_integrate"],
        "integrate.step_overhead_us": 1e6 * ratio(own["integrate.euler_integrate"], euler_steps),
        "integrate.snapshots": counts["integrate.snapshots"],
        "integrate.save_trajectory_csv.bytes": csv_bytes,
        "integrate.save_trajectory_csv.mb_per_s": 1e-6 * ratio(csv_bytes, csv_s),
        "spectral.power_iteration.iterations": counts["spectral.power_iteration.iterations"],
        "train.train_sgd.self_s": own["train.train_sgd"],
        "cli.uncovered_s": own[ROOT_SPAN],
    }
    for name, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name not in m and kind in ("s", "calls"):
            m[name] = total[span] if kind == "s" else calls[span]
    return m
