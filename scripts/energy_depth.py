"""Dirichlet energy over 1000 steps for every kernel on one random graph.

Reproduces the depth-stability comparison: linear consensus kernels
collapse the energy to zero while the saturated kernel holds it steady.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

from odyn.analysis import dirichlet_energy, opinion_diameter
from odyn.fixtures import TOY_RUNS, random_graph
from odyn.integrate import euler_integrate, save_metrics_csv
from odyn.kernels import kernel_setup
from odyn.svg import Series, write_chart


def run(out_dir: str, seed: int, steps: int) -> int:
    rng = np.random.default_rng(seed)
    g = random_graph((10,), 0.5, 0.5, rng)
    x0 = rng.uniform(0.0, 1.0, size=(10, 2))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series = []
    for tag, _, from_init in TOY_RUNS:
        b = x0 if from_init else None
        setup = kernel_setup(tag, g, x0, d=1.0, alpha=1.0, b=b, seed=seed)
        traj = euler_integrate(setup, 0.05, steps)
        energy = [dirichlet_energy(x, g) for x in traj.states]
        diameter = [opinion_diameter(x) for x in traj.states]
        save_metrics_csv(traj.times, energy, diameter, out / f"{tag}-metrics.csv")
        floor = 1e-16
        series.append(
            Series(tag, list(range(len(energy))),
                   [float(np.log10(max(e, floor))) for e in energy])
        )
        print(f"{tag}: terminal energy {energy[-1]:.3e}", file=sys.stderr)
    write_chart(out / "energy-depth.svg", series,
                title="log10 Dirichlet energy vs depth",
                x_label="step", y_label="log10 energy")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/energy")
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--steps", type=int, default=1000)
    args = parser.parse_args()
    sys.exit(run(args.out, args.seed, args.steps))
