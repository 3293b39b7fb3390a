"""Each script in ``scripts/`` runs and writes its files, with pinned bytes."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import odyn

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# (script, arguments, the SHA-256 of each file it writes)
CASES = [
    ("energy_depth.py", ["--steps", "20"], {
        "laplacian-metrics.csv":
            "17d60c1da22402d70e272d92e5ab1bf21ba5ec5fca34cdf6e3adacdb3a2676b3",
        "laplacian-source-metrics.csv":
            "54aac58d3310c76f2d7b0226737d64c7432c6f6fc20e3304fdd62b657ca30b0a",
        "graphcon-tran-metrics.csv":
            "0bff435c87ca446c20f7d5796b0beac0910e2da1a497126dafea5ebdb6060d61",
        "bimp-metrics.csv":
            "a9a54b1ef6ecd1523f492136a617c2b405f5514d592a8931c4790eb52c9d15ad",
        "energy-depth.svg":
            "e69ff0ab5dec4d339d5d56e998c8d915a8e4d68f85210f594ffd601abad84fe4",
    }),
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
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files}
    assert digests == files
