"""Workload definitions: seeded inputs, the CLI operation, and its output checks.

Each workload writes its inputs into a work directory, names the
``odyn`` command line that one operation runs, and checks that
operation's outputs.  The program sees only the generated files and the
flags.  Sizes come in two variants: the measured size and a toy size
(``smoke``) that runs the same code path in well under a second.
"""
from __future__ import annotations

import collections
import hashlib
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Parameters the simulate workloads pass to the program explicitly or
# leave at the CLI defaults; the dense reference uses the same values.
DT = 0.05
DAMPING = 1.0
ALPHA = 1.0
# Euler from identical inputs may differ from the reference only by
# summation order, i.e. a few ulps per step; the damped kernel does not
# amplify them.
REFERENCE_TOL = 1e-9
PROBE = Path(__file__).with_name("probe.py")
CHILD_TIMEOUT_S = 120


def random_digraph(n: int, degree: int, rng: np.random.Generator) -> list[list]:
    """Directed graph with ``degree`` distinct out-edges per node, no self-loops,
    and weights uniform in [0.1, 1]."""
    edges = []
    for i in range(n):
        targets = rng.choice(n - 1, size=degree, replace=False)
        targets[targets >= i] += 1
        weights = rng.uniform(0.1, 1.0, size=degree)
        edges.extend([i, int(t), float(w)] for t, w in zip(targets, weights))
    return edges


def simulate_inputs(n: int, degree: int, options: int, seed: int):
    """The graph edges and initial state a simulate workload runs on."""
    rng = np.random.default_rng(seed)
    edges = random_digraph(n, degree, rng)
    x0 = rng.uniform(-1.0, 1.0, size=(n, options))
    return edges, x0


def dense_euler_reference(edges, x0: np.ndarray, steps: int, seed: int) -> np.ndarray:
    """Terminal state of the saturated kernel by dense forward Euler.

    Written from the documented model, independent of the package: the
    agent coupling is the row-normalized adjacency, the option coupling a
    seeded row-stochastic matrix with zero diagonal, the attention the
    critical d / (alpha + 3), and the input B equals the initial state.
    """
    n, options = x0.shape
    aa = np.zeros((n, n))
    src, dst, w = (np.array(col) for col in zip(*edges))
    aa[src.astype(np.int64), dst.astype(np.int64)] = w
    aa /= aa.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    ao = rng.uniform(0.0, 1.0, size=(options, options))
    np.fill_diagonal(ao, 0.0)
    ao /= ao.sum(axis=1, keepdims=True)
    u = DAMPING / (ALPHA + 3.0)
    x = x0.copy()
    for _ in range(steps):
        mixed = aa @ x
        coupling = ALPHA * x + mixed + x @ ao.T + mixed @ ao.T
        x = x + DT * (-DAMPING * x + np.tanh(u * coupling) + x0)
    return x


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class Workload:
    """One CLI operation on seeded inputs, with its output checks.

    Subclasses set ``name`` and implement ``prepare``, ``argv``,
    ``setup_probe`` and ``full_check``.  Deterministic workloads list their
    output files in ``outputs``: the first operation that passes the full
    check fixes their digest, and every later operation must reproduce it
    byte for byte.
    """

    name = ""
    outputs: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed
        self._digest: str | None = None

    def prepare(self) -> None:
        """Write the inputs into the work directory."""
        self.work.mkdir(parents=True, exist_ok=True)

    def argv(self) -> list[str]:
        raise NotImplementedError

    def setup_probe(self) -> list[str]:
        """Arguments of ``probe.py setup`` that build this workload's objects."""
        raise NotImplementedError

    def full_check(self, rc: int) -> bool:
        raise NotImplementedError

    def check(self, rc: int) -> bool:
        """Whether the operation that returned ``rc`` left correct outputs;
        a missing or malformed output file is a failed check."""
        try:
            if not self.outputs:
                return self.full_check(rc)
            if rc != 0:
                return False
            digest = _digest(self.work / p for p in self.outputs)
            if self._digest is None:
                if not self.full_check(rc):
                    return False
                self._digest = digest
            return digest == self._digest
        except (OSError, ValueError, LookupError):
            return False


@dataclass(frozen=True)
class SimSize:
    n: int
    degree: int
    options: int
    steps: int
    record_every: int


class Simulate(Workload):
    """``odyn simulate`` with the saturated kernel on a generated digraph."""

    outputs = ("out/bimp.csv", "out/bimp-metrics.csv")

    def __init__(self, name: str, size: SimSize, work: Path, seed: int):
        super().__init__(work, seed)
        self.name = name
        self.size = size
        self.reference: np.ndarray | None = None

    def prepare(self) -> None:
        s = self.size
        edges, x0 = simulate_inputs(s.n, s.degree, s.options, self.seed)
        super().prepare()
        (self.work / "graph.json").write_text(json.dumps({"n": s.n, "edges": edges}))
        (self.work / "init.csv").write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in x0) + "\n"
        )
        # The dense reference runs in a child process so that its n-by-n
        # matrix does not count towards this process's peak memory.
        ref = self.work / "reference.npy"
        args = [str(v) for v in (s.n, s.degree, s.options, s.steps, self.seed)]
        subprocess.run(
            [sys.executable, str(PROBE), "reference", *args, str(ref)],
            check=True, timeout=CHILD_TIMEOUT_S,
        )
        self.reference = np.load(ref)

    def argv(self) -> list[str]:
        s = self.size
        return [
            "simulate", "--kernel", "bimp", "--b-mode", "init", "--method", "euler",
            "--dt", repr(DT), "--steps", str(s.steps), "--record-every", str(s.record_every),
            "--seed", str(self.seed),
            "--graph", str(self.work / "graph.json"),
            "--init", str(self.work / "init.csv"),
            "--out", str(self.work / "out"),
        ]

    def setup_probe(self) -> list[str]:
        return ["simulate", str(self.work / "graph.json"), str(self.work / "init.csv"), str(self.seed)]

    def full_check(self, rc: int) -> bool:
        if rc != 0 or self.reference is None:
            return False
        s = self.size
        snapshots = s.steps // s.record_every + 1
        block = s.n * s.options
        with open(self.work / "out" / "bimp.csv") as f:
            header = f.readline().rstrip("\n")
            rows = 0
            tail = collections.deque(maxlen=block)
            for line in f:
                rows += 1
                tail.append(line)
        if header != "t,node,option,value" or rows != snapshots * block:
            return False
        terminal = np.empty((s.n, s.options))
        t_end = s.steps * DT  # every size records the terminal step
        for k, line in enumerate(tail):
            t, node, option, value = line.split(",")
            if abs(float(t) - t_end) > 1e-9 or (int(node), int(option)) != divmod(k, s.options):
                return False
            terminal[int(node), int(option)] = float(value)
        scale = max(1.0, float(np.max(np.abs(self.reference))))
        if float(np.max(np.abs(terminal - self.reference))) > REFERENCE_TOL * scale:
            return False
        metrics = (self.work / "out" / "bimp-metrics.csv").read_text().splitlines()
        return metrics[0] == "t,dirichlet,diameter" and len(metrics) == snapshots + 1


class Verify(Workload):
    """``odyn verify``: the acceptance battery, with its one designed failure."""

    name = "verify-battery"
    criteria = 12
    expected_failures = ["critical-consensus"]

    def argv(self) -> list[str]:
        return ["verify", "--out", str(self.work / "report.json")]

    def setup_probe(self) -> list[str]:
        return ["import"]

    def full_check(self, rc: int) -> bool:
        if rc != 3:
            return False
        report = json.loads((self.work / "report.json").read_text())
        failing = [r["name"] for r in report if not r["passed"]]
        return len(report) == self.criteria and failing == self.expected_failures


@dataclass(frozen=True)
class TrainSize:
    n_per_block: int
    p_in: float
    p_out: float
    epochs: int


class Train(Workload):
    """``odyn train`` on a two-block stochastic block model."""

    name = "train-sbm-1k"
    outputs = ("out/history.csv", "out/weights.csv")
    min_accuracy = 0.9

    def __init__(self, size: TrainSize, work: Path, seed: int):
        super().__init__(work, seed)
        self.size = size

    def argv(self) -> list[str]:
        s = self.size
        return [
            "train", "--n-per-block", str(s.n_per_block), "--p-in", repr(s.p_in),
            "--p-out", repr(s.p_out), "--epochs", str(s.epochs), "--seed", str(self.seed),
            "--out", str(self.work / "out"),
        ]

    def setup_probe(self) -> list[str]:
        s = self.size
        return ["train", str(s.n_per_block), repr(s.p_in), repr(s.p_out), str(self.seed)]

    def full_check(self, rc: int) -> bool:
        if rc != 0:
            return False
        history = (self.work / "out" / "history.csv").read_text().splitlines()
        if history[0] != "epoch,loss,accuracy" or len(history) != self.size.epochs + 2:
            return False
        return float(history[-1].split(",")[2]) >= self.min_accuracy


SIZES = {
    "sim-sparse-3k": (SimSize(3000, 16, 8, 200, 50), SimSize(3, 2, 3, 4, 2)),
    "sim-record-200": (SimSize(200, 16, 8, 400, 1), SimSize(3, 2, 3, 4, 1)),
    "train-sbm-1k": (TrainSize(500, 0.03, 0.004, 200), TrainSize(2, 0.03, 0.004, 200)),
}
NAMES = ("sim-sparse-3k", "sim-record-200", "verify-battery", "train-sbm-1k")


def make(name: str, work: Path, seed: int, smoke: bool = False) -> Workload:
    if name == "verify-battery":
        return Verify(work, seed)
    size = SIZES[name][int(smoke)]
    if name == "train-sbm-1k":
        return Train(size, work, seed)
    return Simulate(name, size, work, seed)
