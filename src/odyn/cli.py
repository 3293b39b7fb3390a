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
from typing import NamedTuple

import numpy as np

from . import acceptance
from .analysis import bifurcation_csv, bifurcation_sweep, dirichlet_energy, opinion_diameter
from .errors import NumericalError
from .fixtures import random_row_stochastic, toy_graph, toy_initial_state
from .graphs import load_graph_json, load_matrix_csv, save_matrix_csv
from .integrate import (
    check_step,
    euler_integrate,
    rk4_integrate,
    save_metrics_csv,
    save_trajectory_csv,
)
from .kernels import KERNEL_TAGS, SATURATIONS, kernel_reads, kernel_setup, saturation_kind
from .svg import Series, write_chart
from .train import TrainConfig, gradient_check, make_sbm_task, save_history_csv, train_sgd


class CliError(ValueError):
    pass


class Parser(argparse.ArgumentParser):
    """argparse that reports bad verbs/flags as validation errors (exit 1)."""

    def error(self, message):
        raise CliError(message)


KERNEL_VERBS = ("simulate", "toy", "energy")
# the verbs that run one kernel of the user's choice; toy fixes its four
ONE_KERNEL_VERBS = ("simulate", "energy")
MODEL_VERBS = (*KERNEL_VERBS, "bifurcation", "gradcheck", "train")
TRAIN_VERBS = ("gradcheck", "train")
ALL_VERBS = (*MODEL_VERBS, "verify", "plot")


class Option(NamedTuple):
    """One command-line flag: the single source of its parsing and its default."""

    flag: str
    dest: str
    type: type | None
    default: object
    verbs: tuple[str, ...]
    choices: tuple[str, ...] | None = None
    help: str | None = None


# In ``--help`` order; a config file key is a flag name of its verb.
OPTIONS = (
    Option("config", "config", None, None, ALL_VERBS,
           help="JSON object keyed by flag name; explicit flags win"),
    Option("in", "infile", None, None, ("plot",)),
    Option("out", "out", None, ".", (*MODEL_VERBS, "verify"), help="output directory or file"),
    Option("out", "svg_out", None, None, ("plot",)),
    Option("seed", "seed", int, 0, ALL_VERBS),
    Option("kernel", "kernel", None, "bimp", ONE_KERNEL_VERBS, KERNEL_TAGS),
    Option("graph", "graph", None, None, KERNEL_VERBS, help="graph JSON file"),
    Option("init", "init", None, None, KERNEL_VERBS, help="initial-state CSV file"),
    Option("dt", "dt", float, 0.05, KERNEL_VERBS),
    Option("steps", "steps", int, 400, KERNEL_VERBS),
    Option("record-every", "record_every", int, 1, KERNEL_VERBS),
    Option("d", "d", float, 1.0, MODEL_VERBS),
    Option("alpha", "alpha", float, 1.0, MODEL_VERBS),
    Option("u", "u", float, None, KERNEL_VERBS),
    Option("beta", "beta", float, 0.5, ONE_KERNEL_VERBS),
    Option("saturation", "saturation", None, "tanh", KERNEL_VERBS, tuple(sorted(SATURATIONS))),
    Option("b-mode", "b_mode", None, "zero", ONE_KERNEL_VERBS, ("zero", "init", "file")),
    Option("b-file", "b_file", None, None, ONE_KERNEL_VERBS),
    Option("method", "method", None, "euler", KERNEL_VERBS, ("euler", "rk4")),
    Option("b", "b", float, 0.0, ("bifurcation",)),
    Option("u-min", "u_min", float, 0.05, ("bifurcation",)),
    Option("u-max", "u_max", float, 0.6, ("bifurcation",)),
    Option("points", "points", int, 112, ("bifurcation",)),
    Option("epochs", "epochs", int, 200, ("train",)),
    Option("lr", "lr", float, 0.1, ("train",)),
    Option("steps", "train_steps", int, 8, TRAIN_VERBS),
    Option("dt", "train_dt", float, 0.1, TRAIN_VERBS),
    Option("n-agents", "n_agents", int, 8, ("gradcheck",)),
    Option("n-options", "n_options", int, 3, ("gradcheck",)),
    Option("features", "features", int, 3, ("gradcheck",)),
    Option("h", "h", float, 1e-5, ("gradcheck",)),
    Option("n-per-block", "n_per_block", int, 10, ("train",)),
    Option("p-in", "p_in", float, 0.8, ("train",)),
    Option("p-out", "p_out", float, 0.05, ("train",)),
    Option("noise", "noise", float, 0.1, ("train",)),
    Option("title", "title", None, "", ("plot",)),
)

DEFAULTS = {o.dest: o.default for o in OPTIONS}


def _config_tokens(verb: str, path: str) -> list[str]:
    """A config file as ``--flag=value`` tokens, each value the JSON text after its flag."""
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise CliError(f"config file is not valid JSON: {e}")
    if not isinstance(payload, dict):
        raise CliError("config file must hold a flat JSON object")
    flags = {o.flag for o in OPTIONS if verb in o.verbs} - {"config"}
    tokens = []
    for key, value in payload.items():
        flag = key.replace("_", "-")
        if flag not in flags:
            raise CliError(f"unknown config key {key!r} for {verb}")
        tokens.append(f"--{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return tokens


def _load_graph_and_state(opts):
    g = load_graph_json(opts["graph"]) if opts["graph"] else toy_graph()
    x0 = load_matrix_csv(opts["init"]) if opts["init"] else toy_initial_state()
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
    if not opts["b_file"]:
        raise CliError("--b-mode file requires --b-file")
    return load_matrix_csv(opts["b_file"])


def _kernel_setup(opts, g, x0, tag=None, only_read=False):
    """Set one kernel up; with ``only_read`` it is handed only the options it reads."""
    tag = tag or opts["kernel"]
    # the verb may lack a flag, as toy lacks --beta
    options = {name: opts[name] for name in ("d", "alpha", "u", "beta", "seed") if name in opts}
    options.update(b=_resolve_b(opts, x0), saturation=saturation_kind(opts["saturation"]))
    if only_read:
        options = {name: value for name, value in options.items() if name in kernel_reads(tag)}
    return kernel_setup(tag, g, x0, **options)


def _integrate(opts, g, tag, setup):
    integrator = rk4_integrate if opts["method"] == "rk4" else euler_integrate
    # the scalar reduced kernel has no graph-indexed state to take an
    # energy over
    energy_fn = None if tag == "reduced" else (lambda x: dirichlet_energy(x, g))
    return integrator(
        setup,
        opts["dt"],
        opts["steps"],
        record_every=opts["record_every"],
        energy_fn=energy_fn,
        diameter_fn=opinion_diameter,
    )


def _emit(out: str, text: str) -> None:
    """Write ``text`` to stdout when ``out`` is ``.`` or ``-``, else to the file ``out``."""
    if out in (".", "-"):
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)
        print(f"wrote {out}", file=sys.stderr)


def _train_config(opts) -> TrainConfig:
    return TrainConfig(
        lr=opts.get("lr", 0.0),
        epochs=opts.get("epochs", 0),
        steps=opts["train_steps"],
        dt=opts["train_dt"],
        d=opts["d"],
        alpha=opts["alpha"],
        seed=opts["seed"],
    )


def cmd_simulate(opts) -> int:
    g, x0 = _load_graph_and_state(opts)
    traj = _integrate(opts, g, opts["kernel"], _kernel_setup(opts, g, x0))
    out, tag = Path(opts["out"]), opts["kernel"]
    out.mkdir(parents=True, exist_ok=True)
    save_trajectory_csv(traj, out / f"{tag}.csv")
    save_metrics_csv(traj, out / f"{tag}-metrics.csv")
    print(f"wrote {out / (tag + '.csv')}", file=sys.stderr)
    return 0


def cmd_toy(opts) -> int:
    g, x0 = _load_graph_and_state(opts)
    runs = (
        ("laplacian", "grand-l", "zero"),
        ("laplacian-source", "grand++-l", "init"),
        ("graphcon-tran", "graphcon-tran", "zero"),
        ("bimp", "bimp", "init"),
    )
    # one option set drives four kernels; each takes only what it reads, and
    # all four, with their step sizes, are checked before anything is written
    setups = [_kernel_setup({**opts, "b_mode": b_mode}, g, x0, tag=tag, only_read=True)
              for tag, _, b_mode in runs]
    for setup in setups:
        check_step(opts["dt"], opts["steps"], setup.damping)
    out = Path(opts["out"])
    for (tag, name, _), setup in zip(runs, setups):
        traj = _integrate(opts, g, tag, setup)
        out.mkdir(parents=True, exist_ok=True)
        save_trajectory_csv(traj, out / f"{name}.csv")
        save_metrics_csv(traj, out / f"{name}-metrics.csv")
        print(
            f"{name}: terminal diameter {traj.diameter[-1]:.3e}", file=sys.stderr
        )
    return 0


def cmd_bifurcation(opts) -> int:
    sweep = bifurcation_sweep(
        (opts["u_min"], opts["u_max"], opts["points"]), opts["d"], opts["alpha"], opts["b"]
    )
    _emit(opts["out"], bifurcation_csv(sweep))
    return 0


def cmd_energy(opts) -> int:
    g, x0 = _load_graph_and_state(opts)
    traj = _integrate(opts, g, opts["kernel"], _kernel_setup(opts, g, x0))
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{opts['kernel']}-metrics.csv"
    save_metrics_csv(traj, path)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_gradcheck(opts) -> int:
    na, no, f = opts["n_agents"], opts["n_options"], opts["features"]
    for flag, size in zip(("n-agents", "n-options", "features"), (na, no, f)):
        if size < 1:
            raise CliError(f"--{flag} must be at least 1, got {size}")
    rng = np.random.default_rng(opts["seed"])
    aa = random_row_stochastic(na, rng, zero_diagonal=False)
    ao = random_row_stochastic(no, rng, zero_diagonal=False)
    x_in = rng.uniform(-1, 1, (na, f))
    w = rng.uniform(-1, 1, (f, no)) / np.sqrt(f)
    target = rng.uniform(-1, 1, (na, no))
    report = gradient_check(x_in, w, aa, ao, target, _train_config(opts), h=opts["h"])
    _emit(opts["out"], report.to_json() + "\n")
    if report.rel_error >= 1e-5:
        raise NumericalError(
            f"analytic and finite-difference gradients disagree: {report.rel_error:.2e}"
        )
    return 0


def cmd_train(opts) -> int:
    # a bad hyperparameter fails before the task's O(n^2) draws
    cfg = _train_config(opts)
    task = make_sbm_task(
        opts["n_per_block"], opts["p_in"], opts["p_out"], noise=opts["noise"], seed=opts["seed"]
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
                "measured": r.measured,
                "threshold": r.threshold,
                "budget_seconds": r.budget,
            }
            for r in results
        ],
        indent=2,
    )
    _emit(opts["out"], payload + "\n")
    return 0 if all(r.passed for r in results) else 3
def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise CliError(f"empty CSV: {path}")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line.strip()]
    return header, rows


# line-chart schemas: the first column is x, each other column one line
LINE_CHART_Y_LABELS = {("t", "dirichlet", "diameter"): "metric",
                       ("epoch", "loss", "accuracy"): "value"}


def cmd_plot(opts) -> int:
    src = opts["infile"]
    if not src:
        raise CliError("plot requires --in")
    dst = opts["svg_out"] or str(Path(src).with_suffix(".svg"))
    header, rows = _read_csv(src)
    Path(dst).parent.mkdir(parents=True, exist_ok=True)
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
    elif tuple(header) in LINE_CHART_Y_LABELS:
        xs = [float(r[0]) for r in rows]
        series = [Series(name, xs, [float(r[k]) for r in rows])
                  for k, name in enumerate(header[1:], 1)]
        write_chart(dst, series, title=title, x_label=header[0],
                    y_label=LINE_CHART_Y_LABELS[tuple(header)])
    elif header == ["u", "y", "stable"]:
        stable = Series("stable", [], [], mode="points")
        unstable = Series("unstable", [], [], mode="points")
        for u, y, flag in rows:
            target = stable if flag in ("1", "true", "True") else unstable
            target.x.append(float(u))
            target.y.append(float(y))
        write_chart(dst, [stable, unstable], title=title, x_label="u", y_label="y")
    else:
        raise CliError(f"unrecognized CSV schema: {','.join(header)}")
    print(f"wrote {dst}", file=sys.stderr)
    return 0


COMMANDS = {
    "simulate": (cmd_simulate, "integrate one kernel"),
    "toy": (cmd_toy, "run the four-kernel demo comparison"),
    "bifurcation": (cmd_bifurcation, "equilibrium sweep over attention"),
    "energy": (cmd_energy, "integrate and write metrics only"),
    "gradcheck": (cmd_gradcheck, "analytic vs finite-difference gradients"),
    "train": (cmd_train, "gradient descent on the synthetic task"),
    "verify": (cmd_verify, "run the acceptance battery"),
    "plot": (cmd_plot, "render a CSV to a standalone SVG"),
}


def build_parser() -> Parser:
    parser = Parser(prog="odyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)
    for verb, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(verb, help=help_text)
        for o in OPTIONS:
            if verb in o.verbs:
                p.add_argument(f"--{o.flag}", dest=o.dest, type=o.type, default=o.default,
                               choices=o.choices, help=o.help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # defaults < config file < explicit flags
            tokens = _config_tokens(args.command, args.config)
            args = parser.parse_args([argv[0], *tokens, *argv[1:]])
        return COMMANDS[args.command][0](vars(args))
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        # numpy refuses an allocation beyond the machine at once, e.g. a
        # graph file whose node count no array can hold
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
