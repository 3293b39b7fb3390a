"""Smoke test: each script in ``scripts/`` runs and writes its files."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import odyn

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
ENERGY_TAGS = ("laplacian", "laplacian-source", "graphcon-tran", "bimp")

CASES = [
    ("energy_depth.py", ["--steps", "20"],
     [f"{tag}-metrics.csv" for tag in ENERGY_TAGS] + ["energy-depth.svg"]),
]


@pytest.mark.parametrize("script, args, files", CASES, ids=[case[0] for case in CASES])
def test_script_runs_and_writes_its_files(tmp_path, script, args, files):
    env = dict(os.environ)
    src = str(Path(odyn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(out), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    assert all((out / name).stat().st_size > 0 for name in files)
