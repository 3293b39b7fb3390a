"""Command-line front end.

Verbs: ``simulate`` (one kernel, trajectory + metrics CSV), ``toy`` (the
four-kernel demo comparison), ``bifurcation`` (equilibrium sweep CSV),
``energy`` (metrics CSV only), ``gradcheck`` (gradient report JSON),
``train`` (synthetic-task descent, history CSV), ``verify`` (acceptance
battery, JSON report), and ``plot`` (CSV to standalone SVG).

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3
acceptance failures.  Diagnostics go to stderr; data goes to files or
stdout.  Given ``--seed`` every command writes byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .analysis import (
    bifurcation_csv,
    bifurcation_sweep,
    dirichlet_energy,
    opinion_diameter,
    save_bifurcation_csv,
)
from .errors import NumericalError
from .fixtures import random_row_stochastic, toy_graph, toy_initial_state
from .graphs import load_graph_json, load_matrix_csv, save_matrix_csv
from .integrate import euler_integrate, rk4_integrate, save_metrics_csv, save_trajectory_csv
from .kernels import KERNEL_TAGS, SATURATIONS, kernel_setup, saturation_kind
from .svg import Series, write_chart
from .train import TrainConfig, gradient_check, make_sbm_task, save_history_csv, train_sgd


class CliError(ValueError):
    pass


class Parser(argparse.ArgumentParser):
    """argparse that reports bad verbs/flags as validation errors (exit 1)."""

    def error(self, message):
        raise CliError(message)


DEFAULTS = {
    "kernel": "bimp",
    "dt": 0.05,
    "steps": 400,
    "record_every": 1,
    "d": 1.0,
    "alpha": 1.0,
    "u": None,
    "beta": 0.5,
    "saturation": "tanh",
    "b_mode": "zero",
    "b_file": None,
    "seed": 0,
    "out": ".",
    "u_min": 0.05,
    "u_max": 0.6,
    "points": 112,
    "b": 0.0,
    "epochs": 200,
    "lr": 0.1,
    "train_steps": 8,
    "train_dt": 0.1,
    "n_per_block": 10,
    "p_in": 0.8,
    "p_out": 0.05,
    "noise": 0.1,
    "n_agents": 8,
    "n_options": 3,
    "features": 3,
    "h": 1e-5,
    "title": "",
    "method": "euler",
}


def _merge(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            payload = json.loads(Path(cfg_path).read_text())
        except FileNotFoundError:
            raise CliError(f"config file not found: {cfg_path}")
        except json.JSONDecodeError as e:
            raise CliError(f"config file is not valid JSON: {e}")
        if not isinstance(payload, dict):
            raise CliError("config file must hold a flat JSON object")
        for key, value in payload.items():
            norm = key.replace("-", "_")
            if norm not in merged:
                raise CliError(f"unknown config key {key!r}")
            merged[norm] = value
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def _load_graph_and_state(opts):
    g = load_graph_json(opts["graph"]) if opts.get("graph") else toy_graph()
    x0 = load_matrix_csv(opts["init"]) if opts.get("init") else toy_initial_state()
    if x0.shape[0] != g.n:
        raise CliError(
            f"initial state has {x0.shape[0]} rows but the graph has {g.n} nodes"
        )
    return g, x0


def _resolve_b(opts, x0):
    mode = opts["b_mode"]
    if mode == "zero":
        return None
    if mode == "init":
        return x0.copy()
    if mode == "file":
        if not opts.get("b_file"):
            raise CliError("--b-mode file requires --b-file")
        return load_matrix_csv(opts["b_file"])
    raise CliError(f"unknown b-mode {mode!r}")


def _integrate(opts, g, x0, tag=None):
    tag = tag or opts["kernel"]
    if tag not in KERNEL_TAGS:
        raise CliError(f"unknown kernel {tag!r}; choose from {', '.join(KERNEL_TAGS)}")
    setup = kernel_setup(
        tag,
        g,
        x0,
        d=float(opts["d"]),
        alpha=float(opts["alpha"]),
        u=None if opts["u"] is None else float(opts["u"]),
        b=_resolve_b(opts, x0),
        beta=float(opts["beta"]),
        saturation=saturation_kind(opts["saturation"]),
        seed=int(opts["seed"]),
    )
    integrator = rk4_integrate if opts["method"] == "rk4" else euler_integrate
    # the scalar reduced kernel has no graph-indexed state to take an
    # energy over
    energy_fn = None if tag == "reduced" else (lambda x: dirichlet_energy(x, g))
    return integrator(
        setup.state0,
        setup.rhs,
        float(opts["dt"]),
        int(opts["steps"]),
        record_every=int(opts["record_every"]),
        kernel_tag=tag,
        damping=setup.damping,
        energy_fn=energy_fn,
        diameter_fn=opinion_diameter,
    )


def cmd_simulate(opts) -> int:
    g, x0 = _load_graph_and_state(opts)
    traj = _integrate(opts, g, x0)
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    save_trajectory_csv(traj, out / f"{traj.kernel_tag}.csv")
    save_metrics_csv(traj, out / f"{traj.kernel_tag}-metrics.csv")
    print(f"wrote {out / (traj.kernel_tag + '.csv')}", file=sys.stderr)
    return 0


def cmd_toy(opts) -> int:
    g, x0 = _load_graph_and_state(opts)
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    runs = (
        ("laplacian", "grand-l", "zero"),
        ("laplacian-source", "grand++-l", "init"),
        ("graphcon-tran", "graphcon-tran", "zero"),
        ("bimp", "bimp", "init"),
    )
    for tag, name, b_mode in runs:
        local = dict(opts)
        local["b_mode"] = b_mode
        traj = _integrate(local, g, x0, tag=tag)
        save_trajectory_csv(traj, out / f"{name}.csv")
        save_metrics_csv(traj, out / f"{name}-metrics.csv")
        print(
            f"{name}: terminal diameter {traj.diameter[-1]:.3e}", file=sys.stderr
        )
    return 0


def cmd_bifurcation(opts) -> int:
    sweep = bifurcation_sweep(
        (float(opts["u_min"]), float(opts["u_max"]), int(opts["points"])),
        float(opts["d"]),
        float(opts["alpha"]),
        float(opts["b"]),
    )
    out = opts["out"]
    if out in (".", "-"):
        sys.stdout.write(bifurcation_csv(sweep))
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        save_bifurcation_csv(sweep, out)
        print(f"wrote {out}", file=sys.stderr)
    return 0


def cmd_energy(opts) -> int:
    g, x0 = _load_graph_and_state(opts)
    traj = _integrate(opts, g, x0)
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{traj.kernel_tag}-metrics.csv"
    save_metrics_csv(traj, path)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_gradcheck(opts) -> int:
    rng = np.random.default_rng(int(opts["seed"]))
    na, no, f = int(opts["n_agents"]), int(opts["n_options"]), int(opts["features"])
    cfg = TrainConfig(
        lr=0.0,
        epochs=0,
        steps=int(opts["train_steps"]),
        dt=float(opts["train_dt"]),
        d=float(opts["d"]),
        alpha=float(opts["alpha"]),
        seed=int(opts["seed"]),
    )
    aa = random_row_stochastic(na, rng, zero_diagonal=False)
    ao = random_row_stochastic(no, rng, zero_diagonal=False)
    x_in = rng.uniform(-1, 1, (na, f))
    w = rng.uniform(-1, 1, (f, no)) / np.sqrt(f)
    target = rng.uniform(-1, 1, (na, no))
    report = gradient_check(x_in, w, aa, ao, target, cfg, h=float(opts["h"]))
    payload = report.to_json()
    out = opts["out"]
    if out in (".", "-"):
        print(payload)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(payload + "\n")
        print(f"wrote {out}", file=sys.stderr)
    if report.rel_error >= 1e-5:
        raise NumericalError(
            f"analytic and finite-difference gradients disagree: {report.rel_error:.2e}"
        )
    return 0


def cmd_train(opts) -> int:
    task = make_sbm_task(
        int(opts["n_per_block"]),
        float(opts["p_in"]),
        float(opts["p_out"]),
        noise=float(opts["noise"]),
        seed=int(opts["seed"]),
    )
    cfg = TrainConfig(
        lr=float(opts["lr"]),
        epochs=int(opts["epochs"]),
        steps=int(opts["train_steps"]),
        dt=float(opts["train_dt"]),
        d=float(opts["d"]),
        alpha=float(opts["alpha"]),
        seed=int(opts["seed"]),
    )
    w, history = train_sgd(task, cfg)
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    save_history_csv(history, out / "history.csv")
    save_matrix_csv(w, out / "weights.csv")
    print(
        f"terminal loss {history[-1][0]:.6f}, accuracy {history[-1][1]:.4f}",
        file=sys.stderr,
    )
    return 0


def cmd_verify(opts) -> int:
    results = acceptance.run_all()
    for r in results:
        print(r.line(), file=sys.stderr)
    payload = json.dumps(
        [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "elapsed_seconds": round(r.elapsed, 3),
            }
            for r in results
        ],
        indent=2,
    )
    out = opts["out"]
    if out in (".", "-"):
        print(payload)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(payload + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 3


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise CliError(f"empty CSV: {path}")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line.strip()]
    return header, rows


def cmd_plot(opts) -> int:
    src = opts.get("infile")
    if not src:
        raise CliError("plot requires --in")
    dst = opts.get("svg_out") or (str(Path(src).with_suffix(".svg")))
    header, rows = _read_csv(src)
    title = opts["title"] or Path(src).stem
    if header == ["t", "node", "option", "value"]:
        groups: dict[tuple[str, str], Series] = {}
        for t, node, option, value in rows:
            key = (node, option)
            if key not in groups:
                groups[key] = Series(label=f"n{node}o{option}", x=[], y=[])
            groups[key].x.append(float(t))
            groups[key].y.append(float(value))
        series = [groups[k] for k in sorted(groups)]
        write_chart(dst, series, title=title, x_label="t", y_label="value")
    elif header == ["t", "dirichlet", "diameter"]:
        ts = [float(r[0]) for r in rows]
        series = [
            Series("dirichlet", ts, [float(r[1]) for r in rows]),
            Series("diameter", ts, [float(r[2]) for r in rows]),
        ]
        write_chart(dst, series, title=title, x_label="t", y_label="metric")
    elif header == ["u", "y", "stable"]:
        stable = Series("stable", [], [], mode="points")
        unstable = Series("unstable", [], [], mode="points")
        for u, y, flag in rows:
            target = stable if flag in ("1", "true", "True") else unstable
            target.x.append(float(u))
            target.y.append(float(y))
        write_chart(dst, [stable, unstable], title=title, x_label="u", y_label="y")
    elif header == ["epoch", "loss", "accuracy"]:
        es = [float(r[0]) for r in rows]
        series = [
            Series("loss", es, [float(r[1]) for r in rows]),
            Series("accuracy", es, [float(r[2]) for r in rows]),
        ]
        write_chart(dst, series, title=title, x_label="epoch", y_label="value")
    else:
        raise CliError(f"unrecognized CSV schema: {','.join(header)}")
    print(f"wrote {dst}", file=sys.stderr)
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="odyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    def common(p, *, kernel=True):
        p.add_argument("--config", help="flat JSON file mirroring flag names")
        p.add_argument("--out", help="output directory or file")
        p.add_argument("--seed", type=int)
        if kernel:
            p.add_argument("--kernel", choices=KERNEL_TAGS)
            p.add_argument("--graph", help="graph JSON file")
            p.add_argument("--init", help="initial-state CSV file")
            p.add_argument("--dt", type=float)
            p.add_argument("--steps", type=int)
            p.add_argument("--record-every", dest="record_every", type=int)
            p.add_argument("--d", type=float)
            p.add_argument("--alpha", type=float)
            p.add_argument("--u", type=float)
            p.add_argument("--beta", type=float)
            p.add_argument("--saturation", choices=sorted(SATURATIONS))
            p.add_argument("--b-mode", dest="b_mode", choices=["zero", "init", "file"])
            p.add_argument("--b-file", dest="b_file")
            p.add_argument("--method", choices=["euler", "rk4"])

    common(sub.add_parser("simulate", help="integrate one kernel"))
    common(sub.add_parser("toy", help="run the four-kernel demo comparison"))

    p_bif = sub.add_parser("bifurcation", help="equilibrium sweep over attention")
    p_bif.add_argument("--config")
    p_bif.add_argument("--out")
    p_bif.add_argument("--seed", type=int)
    p_bif.add_argument("--d", type=float)
    p_bif.add_argument("--alpha", type=float)
    p_bif.add_argument("--b", type=float)
    p_bif.add_argument("--u-min", dest="u_min", type=float)
    p_bif.add_argument("--u-max", dest="u_max", type=float)
    p_bif.add_argument("--points", type=int)

    common(sub.add_parser("energy", help="integrate and write metrics only"))

    p_grad = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p_grad.add_argument("--config")
    p_grad.add_argument("--out")
    p_grad.add_argument("--seed", type=int)
    p_grad.add_argument("--d", type=float)
    p_grad.add_argument("--alpha", type=float)
    p_grad.add_argument("--steps", dest="train_steps", type=int)
    p_grad.add_argument("--dt", dest="train_dt", type=float)
    p_grad.add_argument("--n-agents", dest="n_agents", type=int)
    p_grad.add_argument("--n-options", dest="n_options", type=int)
    p_grad.add_argument("--features", type=int)
    p_grad.add_argument("--h", type=float)

    p_train = sub.add_parser("train", help="gradient descent on the synthetic task")
    p_train.add_argument("--config")
    p_train.add_argument("--out")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--d", type=float)
    p_train.add_argument("--alpha", type=float)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--steps", dest="train_steps", type=int)
    p_train.add_argument("--dt", dest="train_dt", type=float)
    p_train.add_argument("--n-per-block", dest="n_per_block", type=int)
    p_train.add_argument("--p-in", dest="p_in", type=float)
    p_train.add_argument("--p-out", dest="p_out", type=float)
    p_train.add_argument("--noise", type=float)

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--config")
    p_verify.add_argument("--out")
    p_verify.add_argument("--seed", type=int)

    p_plot = sub.add_parser("plot", help="render a CSV to a standalone SVG")
    p_plot.add_argument("--config")
    p_plot.add_argument("--in", dest="infile")
    p_plot.add_argument("--out", dest="svg_out")
    p_plot.add_argument("--seed", type=int)
    p_plot.add_argument("--title")

    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "toy": cmd_toy,
    "bifurcation": cmd_bifurcation,
    "energy": cmd_energy,
    "gradcheck": cmd_gradcheck,
    "train": cmd_train,
    "verify": cmd_verify,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts = _merge(args)
        return COMMANDS[args.command](opts)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
