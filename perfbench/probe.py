"""Child-process helpers of the benchmark.

    probe.py setup simulate GRAPH INIT SEED
    probe.py setup train N_PER_BLOCK P_IN P_OUT SEED
    probe.py setup import
    probe.py reference N DEGREE OPTIONS STEPS SEED OUT

``setup`` prints the seconds a fresh process takes from before
``import odyn`` until the workload's program objects exist; for ``train``
that is ``train_sgd`` with no epochs.  Only the
standard library is loaded before the clock starts, so the import of
numpy counts.  ``reference`` writes the dense-Euler terminal state of a
simulate workload to ``OUT`` (``.npy``).
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def time_setup(kind: str, args: list[str]) -> float:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import odyn

    if kind == "simulate":
        graph, init, seed = args
        g = odyn.load_graph_json(graph)
        x0 = odyn.load_matrix_csv(init)
        odyn.kernel_setup("bimp", g, x0, b=x0, seed=int(seed))
    elif kind == "train":
        from odyn.cli import DEFAULTS

        n_per_block, p_in, p_out, seed = args
        seed = int(seed)
        task = odyn.make_sbm_task(
            int(n_per_block), float(p_in), float(p_out), noise=DEFAULTS["noise"], seed=seed
        )
        # No epochs: the encoder draw, both attention builds and the one
        # terminal forward unroll that train_sgd makes before any update.
        odyn.train_sgd(task, odyn.TrainConfig(
            lr=DEFAULTS["lr"], epochs=0, steps=DEFAULTS["train_steps"], dt=DEFAULTS["train_dt"],
            d=DEFAULTS["d"], alpha=DEFAULTS["alpha"], seed=seed,
        ))
    elif kind != "import":
        raise SystemExit(f"unknown setup kind {kind!r}")
    return time.perf_counter() - start


def write_reference(args: list[str]) -> None:
    import numpy as np

    from workloads import dense_euler_reference, simulate_inputs

    n, degree, options, steps, seed = (int(a) for a in args[:5])
    edges, x0 = simulate_inputs(n, degree, options, seed)
    np.save(args[5], dense_euler_reference(edges, x0, steps, seed))


def main(argv: list[str]) -> None:
    if argv[:1] == ["setup"] and len(argv) >= 2:
        print(repr(time_setup(argv[1], argv[2:])))
    elif argv[:1] == ["reference"] and len(argv) == 7:
        write_reference(argv[1:])
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
