"""The benchmark's tracer hangs its counters on module-level names of the package.

``perfbench/tracing.py`` replaces each ``(module, attr)`` of its PATCHES
table in the package for the traced operation; a renamed or deleted name,
or a caller that stops calling through it, silently loses a counter.
"""
import collections
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from odyn import acceptance
from odyn.analysis import power_iteration
from odyn.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves_on_the_package(tracing):
    for module, attr, _, _ in tracing.PATCHES:
        owner = importlib.import_module(f"odyn.{module}")
        assert callable(getattr(owner, attr, None)), f"odyn.{module}.{attr}"


def test_training_calls_through_the_patched_names(tracing, tmp_path):
    tracer = tracing.Tracer()
    with tracer.patched():
        assert main(["train", "--epochs", "2", "--n-per-block", "3",
                     "--out", str(tmp_path)]) == 0
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    # two descent epochs plus the terminal evaluation, eight steps each
    assert calls["train.train_sgd"] == 1
    assert calls["attention.build_communication_attention"] == 1
    assert calls["train.forward_unroll"] == 3
    assert calls["train.encoding_grad"] == 2
    assert calls["kernels.rhs"] == 3 * 8
    assert tracer.counts["updates"] == (3 * 8 + 2 * 8) * 6 * 2


def test_training_hands_the_kernel_one_agent_coupling(tracing, tmp_path):
    # every unroll multiplies by the same attention graph, so the tracer's
    # nonzero cache, keyed by the coupling object, keeps one entry
    tracer = tracing.Tracer()
    with tracer.patched():
        assert main(["train", "--epochs", "5", "--n-per-block", "3",
                     "--out", str(tmp_path)]) == 0
    assert sum(name == "train.forward_unroll" for name, *_ in tracer.spans) == 6
    assert len(tracer._nnz) == 1


def test_simulate_counts_one_rhs_call_per_step(tracing, tmp_path):
    # the tracer sees each Euler step as one setup.rhs call on the (n, o) state
    n, o, steps = 5, 3, 7
    edges = [[i, (i + 1) % n, 1.0] for i in range(n)] + [[i, (i + 2) % n, 0.5] for i in range(n)]
    (tmp_path / "g.json").write_text(json.dumps({"n": n, "edges": edges}))
    rows = np.random.default_rng(0).uniform(-1.0, 1.0, (n, o))
    (tmp_path / "x.csv").write_text("\n".join(",".join(map(repr, r)) for r in rows.tolist()))
    tracer = tracing.Tracer()
    with tracer.patched():
        assert main(["simulate", "--graph", str(tmp_path / "g.json"), "--init",
                     str(tmp_path / "x.csv"), "--steps", str(steps),
                     "--out", str(tmp_path / "out")]) == 0
    assert sum(name == "kernels.rhs" for name, *_ in tracer.spans) == steps
    assert tracer.counts["updates"] == steps * n * o


def test_critical_consensus_counts_the_work_of_its_20_starts(tracing):
    # one 2-d state of 20 x 3 agents, 4000 Euler steps of 9 entries per start
    tracer = tracing.Tracer()
    with tracer.patched():
        acceptance.criterion_critical_consensus()
    assert sum(name == "kernels.rhs" for name, *_ in tracer.spans) == 4000
    assert tracer.counts["updates"] == 20 * 4000 * 9


def test_toy_figure_counts_the_work_of_the_toy_verbs_four_runs(tracing):
    # four 3 x 3 runs of 400 Euler steps; the diameter is taken at the 401
    # snapshots of the source run, two of the laplacian run's and the last
    # of the oscillator's and of the saturated run's
    tracer = tracing.Tracer()
    with tracer.patched():
        acceptance.criterion_toy_figure()
    calls = collections.Counter(name for name, *_ in tracer.spans)
    assert calls["kernels.kernel_setup"] == 4
    assert calls["kernels.rhs"] == 4 * 400
    assert tracer.counts["updates"] == 4 * 400 * 9
    assert calls["analysis.opinion_diameter"] == 401 + 2 + 1 + 1


def test_leading_eigenvalue_iterates_from_a_start_off_its_answer(tracing, monkeypatch):
    # the ones vector is an exact eigenvector of every coupling the criterion
    # builds, so a start there would stop after one iteration on each call
    iterations = []

    def recording(*args, **kwargs):
        res = power_iteration(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(acceptance, "power_iteration", recording)
    tracer = tracing.Tracer()
    with tracer.patched():
        acceptance.criterion_leading_eigenvalue()
    assert len(iterations) == 10 and min(iterations) > 1
    assert tracer.counts["spectral.power_iteration.iterations"] == sum(iterations) == 486


def test_the_battery_runs_the_criteria_the_tracer_names(tracing):
    # a renamed criterion would leave its acceptance.<name>.s metric at zero
    assert tuple(r.name for r in acceptance.run_all()) == tracing.CRITERIA


@pytest.mark.parametrize("criterion, updates, rhs, unrolls, adjoints", [
    # 20 gradient checks and the depth-128 chain norm's unroll; each check
    # makes one unroll, one reverse sweep and one finite-difference unroll
    # of its 2 f No perturbed encoders side by side, M rhs calls on the
    # union's state, outside forward_unroll
    ("criterion_gradient_suite", 115_160, 462, 21, 20),
    # 200 descent epochs and the terminal evaluation, eight steps each
    ("criterion_training_smoke", 128_320, 1_608, 201, 200),
])
def test_gradient_criteria_trace_the_counts_of_their_reverse_sweeps(
    tracing, criterion, updates, rhs, unrolls, adjoints
):
    # the tracer counts reverse updates from the tape it finds as
    # encoding_grad's first argument, (len(states) - 1) * states[0].size
    tracer = tracing.Tracer()
    with tracer.patched():
        getattr(acceptance, criterion)()
    calls = collections.Counter(name for name, *_ in tracer.spans)
    assert tracer.counts["updates"] == updates
    assert calls["kernels.rhs"] == rhs
    assert calls["train.forward_unroll"] == unrolls
    assert calls["train.encoding_grad"] == adjoints


def test_the_whole_battery_runs_under_the_benchmarks_warm_up_tracer(tracing, tmp_path):
    # the verify-battery warm-up: counts without spans over every criterion,
    # so a state the hooks cannot count or a lost counter fails here first
    tracer = tracing.Tracer(keep_spans=False)
    with tracer.patched():
        assert main(["verify", "--out", str(tmp_path / "report.json")]) == 3
    assert tracer.counts["updates"] == 1_105_376
    assert tracer.spans == []
