"""Smoke tests of the benchmark, kept out of the package's own test suite.

    python3 -m pytest perfbench

Every workload runs at toy size through the same code path and output
checks as the measured run, in both modes, and must report exactly the
metrics that ``BENCHMARK.json`` declares.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_declared_metrics(workload, trace):
    out = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
              "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_simulate_check_rejects_wrong_terminal_state(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from odyn import cli

    wl = workloads.make("sim-record-200", tmp_path, seed=5, smoke=True)
    wl.prepare()
    assert cli.main(wl.argv()) == 0
    wrong = workloads.make("sim-record-200", tmp_path, seed=5, smoke=True)
    wrong.reference = wl.reference + 1e-6
    assert not wrong.check(0)
    assert wl.check(0)
    (tmp_path / "out" / "bimp-metrics.csv").write_text("t,dirichlet,diameter\n")
    assert not wl.check(0)


def test_counting_tracer_keeps_no_spans_and_missing_target_fails(tmp_path, monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads
    from odyn import cli

    wl = workloads.make("sim-record-200", tmp_path, seed=5, smoke=True)
    wl.prepare()
    counter = tracing.Tracer(keep_spans=False)
    with counter.patched():
        assert cli.main(wl.argv()) == 0
    assert counter.spans == [] and counter.counts["updates"] > 0
    monkeypatch.delattr(cli, "save_metrics_csv")
    with pytest.raises(AttributeError), counter.patched():
        pass


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, "--workload", "verify-battery", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
