"""Benchmark of the odyn command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root; the package is imported from ``src/``.  One
process drives ``odyn.cli.main`` in-process as a closed loop, one
operation at a time, and checks every operation's output.  An untimed
warm-up operation runs first; it counts, without keeping spans, the state
entries the kernel layer advances, which ``updates_per_s`` divides by.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (see ``tracing.py``), plus their
overhead.  The last line of stdout is the result JSON; the line before
it records the machine, the seed and the raw samples.  ``--smoke`` runs
every workload at toy size through the same code path and checks.
"""
from __future__ import annotations

import os

# Fixed BLAS thread count, at most two and never above the core count, set
# before numpy loads here and inherited by every child process.
BLAS_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if not (SRC / "odyn" / "__init__.py").is_file():
    sys.exit(f"error: no package sources at {SRC / 'odyn'}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import odyn  # noqa: E402
from odyn import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# (name, unit); BENCHMARK.json adds the direction and regression bound.
END_TO_END = (
    ("op_s", "s"),
    ("updates_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# After each timed operation, fresh-process set-up probes run until they
# have taken this share of the operation's time (at least one), so that
# set-up is sampled over the same window as the operations.
SETUP_SHARE = 0.15
MIN_OPS = 3  # timed operations per untraced run, even past --seconds
MIN_TRACED = 2  # traced operations, so that counts can be compared


def run_cli(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


class Runner:
    """Runs and checks operations of one workload, counting failures."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def op(self, tracer: tracing.Tracer | None = None) -> float:
        """One checked operation; returns its wall seconds."""
        argv = self.wl.argv()
        with tracer.patched() if tracer else contextlib.nullcontext():
            call = tracer.wrap(tracing.ROOT_SPAN, run_cli) if tracer else run_cli
            start = time.perf_counter()
            rc = call(argv)
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if not self.wl.check(rc):
            self.failed += 1
            print(f"error: {self.wl.name}: operation {self.attempted} failed its output check "
                  f"(exit code {rc})", file=sys.stderr)
        return elapsed

    def warm_up(self) -> int:
        """The untimed first operation; returns the state entries it advanced.

        It keeps counts but no spans, so it adds nothing to the peak memory
        that the timed operations reach.
        """
        counter = tracing.Tracer(keep_spans=False)
        self.op(counter)
        return counter.counts["updates"]


def probe_setup(wl: workloads.Workload) -> float:
    out = subprocess.run(
        [sys.executable, str(workloads.PROBE), "setup", *wl.setup_probe()],
        check=True, capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT_S,
    )
    return float(out.stdout.strip())


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[float], list[float]]:
    updates = runner.warm_up()
    if not updates:
        raise SystemExit("error: the warm-up operation advanced no state through the traced kernels")
    times: list[float] = []
    setup: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_OPS or time.perf_counter() < deadline:
        times.append(runner.op())
        probed = 0.0
        while probed == 0.0 or probed < SETUP_SHARE * times[-1]:
            start = time.perf_counter()
            setup.append(probe_setup(runner.wl))
            probed += time.perf_counter() - start
    op_s = statistics.median(times)
    metrics = {
        "op_s": op_s,
        "updates_per_s": updates / op_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, times, setup


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, list[float]]:
    runner.warm_up()
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    per_op: list[dict] = []
    span_log: list[list[list]] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
        untraced.append(runner.op())
        tracer.reset()
        traced.append(runner.op(tracer))
        per_op.append(tracing.layer_metrics(tracer.spans, tracer.counts))
        span_log.append(tracer.spans)
    write_spans(runner.wl.name, span_log)
    units = dict(tracing.PER_LAYER)
    metrics = {}
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        if units[name] in tracing.COUNT_UNITS:
            if len(set(values)) != 1:
                raise SystemExit(f"error: count {name} differs between traced operations: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return metrics, traced


def write_spans(name: str, span_log: list[list[list]]) -> None:
    """All spans of the traced operations, times relative to each operation's start."""
    lines = ["op,index,name,start_s,end_s,parent"]
    for op, spans in enumerate(span_log):
        origin = spans[0][1]
        lines.extend(
            f"{op},{i},{s[0]},{s[1] - origin!r},{s[2] - origin!r},{s[3]}"
            for i, s in enumerate(spans)
        )
    WORK.mkdir(exist_ok=True)
    (WORK / f"{name}.spans.csv").write_text("\n".join(lines) + "\n")


def tail_percentile(samples: list[float]) -> dict:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 90.0):
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            return {f"op_s_p{p:g}": ordered[math.ceil(p / 100.0 * len(ordered)) - 1]}
    return {}


def machine_facts() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"l{level}"] = (index / "size").read_text().strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="toy sizes, same path and checks")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(odyn.__file__).resolve().parent != (SRC / "odyn").resolve():
        raise SystemExit(f"error: odyn was imported from {odyn.__file__}, not from {SRC}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, work, args.seed, smoke=args.smoke)
    runner = Runner(wl)
    try:
        wl.prepare()
        if args.trace:
            metrics, samples = measure_layers(runner, args.seconds)
            specs = tracing.PER_LAYER
            extra = {"traced_op_s": samples}
        else:
            metrics, samples, setup = measure_end_to_end(runner, args.seconds)
            specs = END_TO_END
            extra = {"op_s_samples": samples, **tail_percentile(samples), "setup_s_samples": setup}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "ops": len(samples),
        "fail_ratio": runner.failed / runner.attempted,
        "machine": machine_facts(),
        **extra,
    }
    print(json.dumps(info))
    for name, unit in specs:
        print(f"{args.workload:>15}  {name:<44} {metrics[name]:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
