"""Command-line front end.

Verbs: ``simulate`` (one kernel, trajectory + metrics CSV), ``toy`` (the
four-kernel demo comparison), ``bifurcation`` (equilibrium sweep CSV),
``energy`` (metrics CSV only), ``gradcheck`` (gradient report JSON),
``train`` (synthetic-task descent, history CSV), ``verify`` (acceptance
battery, JSON report), and ``plot`` (CSV to standalone SVG).

``simulate``, ``energy`` and ``toy`` share one run path; ``toy``'s runs are
:data:`~odyn.fixtures.TOY_RUNS`, which the ``toy-figure`` criterion checks.

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
from .fixtures import TOY_RUNS, _gradient_problem, toy_graph, toy_initial_state
from .graphs import load_graph_json, load_matrix_csv, save_matrix_csv
from .integrate import (
    check_step,
    euler_integrate,
    rk4_integrate,
    save_metrics_csv,
    save_trajectory_csv,
)
from .kernels import KERNEL_TAGS, SATURATIONS, kernel_reads, kernel_setup
from .svg import Series, write_chart
from .train import TrainConfig, gradient_check, make_sbm_task, save_history_csv, train_sgd


class Parser(argparse.ArgumentParser):
    """argparse that reports bad verbs/flags as validation errors (exit 1)."""

    def error(self, message):
        raise ValueError(message)


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
        raise ValueError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ValueError(f"config file is not valid JSON: {e}")
    if not isinstance(payload, dict):
        raise ValueError("config file must hold a flat JSON object")
    flags = {o.flag for o in OPTIONS if verb in o.verbs} - {"config"}
    tokens = []
    for key, value in payload.items():
        flag = key.replace("_", "-")
        if flag not in flags:
            raise ValueError(f"unknown config key {key!r} for {verb}")
        tokens.append(f"--{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return tokens


def _resolve_b(opts, x0):
    mode = opts["b_mode"]
    if mode == "zero":
        return None
    if mode == "init":
        return x0.copy()
    if not opts["b_file"]:
        raise ValueError("--b-mode file requires --b-file")
    return load_matrix_csv(opts["b_file"])


def _run_kernels(opts) -> int:
    """Set up every run and check its step size, then integrate each run and
    write its metrics CSV, and its trajectory CSV unless the verb is ``energy``.

    ``toy`` hands each of its runs only the options that run's kernel reads.
    """
    verb = opts["command"]
    g = load_graph_json(opts["graph"]) if opts["graph"] else toy_graph()
    x0 = load_matrix_csv(opts["init"]) if opts["init"] else toy_initial_state()
    if x0.shape[0] != g.n:
        raise ValueError(f"initial state has {x0.shape[0]} rows but the graph has {g.n} nodes")
    if verb == "toy":
        runs = [(tag, name, x0 if from_init else None) for tag, name, from_init in TOY_RUNS]
    else:
        runs = [(opts["kernel"], opts["kernel"], _resolve_b(opts, x0))]
    # the verb may lack a flag, as toy lacks --beta
    options = {name: opts[name] for name in ("d", "alpha", "u", "beta", "seed") if name in opts}
    options["saturation"] = SATURATIONS[opts["saturation"]]
    setups = []
    for tag, _, b in runs:
        given = {**options, "b": b}
        if verb == "toy":
            given = {name: value for name, value in given.items() if name in kernel_reads(tag)}
        setups.append(kernel_setup(tag, g, x0, **given))
    for setup in setups:
        check_step(opts["dt"], opts["steps"], setup.damping)
    integrate = rk4_integrate if opts["method"] == "rk4" else euler_integrate
    out = Path(opts["out"])
    for (tag, name, _), setup in zip(runs, setups):
        traj = integrate(setup, opts["dt"], opts["steps"], record_every=opts["record_every"])
        # the scalar reduced kernel has no graph-indexed state to take an
        # energy over
        energy = [np.nan if tag == "reduced" else dirichlet_energy(x, g) for x in traj.states]
        diameter = [opinion_diameter(x) for x in traj.states]
        out.mkdir(parents=True, exist_ok=True)
        trajectory, metrics = out / f"{name}.csv", out / f"{name}-metrics.csv"
        if verb != "energy":
            save_trajectory_csv(traj, trajectory)
        save_metrics_csv(traj.times, energy, diameter, metrics)
        if verb == "toy":
            print(f"{name}: terminal diameter {diameter[-1]:.3e}", file=sys.stderr)
        else:
            print(f"wrote {metrics if verb == 'energy' else trajectory}", file=sys.stderr)
    return 0


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


def cmd_bifurcation(opts) -> int:
    sweep = bifurcation_sweep(
        (opts["u_min"], opts["u_max"], opts["points"]), opts["d"], opts["alpha"], opts["b"]
    )
    _emit(opts["out"], bifurcation_csv(sweep))
    return 0


def cmd_gradcheck(opts) -> int:
    na, no, f = opts["n_agents"], opts["n_options"], opts["features"]
    for flag, size in zip(("n-agents", "n-options", "features"), (na, no, f)):
        if size < 1:
            raise ValueError(f"--{flag} must be at least 1, got {size}")
    problem = _gradient_problem(np.random.default_rng(opts["seed"]), na, no, f)
    report = gradient_check(*problem, _train_config(opts), h=opts["h"])
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
                "checks": [
                    {"quantity": c.quantity, "measured": c.measured, "relation": c.relation,
                     "threshold": c.threshold, "holds": c.holds}
                    for c in r.checks
                ],
            }
            for r in results
        ],
        indent=2,
    )
    _emit(opts["out"], payload + "\n")
    return 0 if all(r.passed for r in results) else 3


def _read_csv(path):
    """The header and nonblank rows of a plot CSV file, each row as long as the header."""
    text = Path(path).read_text()
    if not text:
        raise ValueError(f"empty CSV: {path}")
    first, *lines = text.split("\n")
    header, rows = first.split(","), []
    if tuple(header) not in PLOT_SCHEMAS:
        raise ValueError(f"unrecognized CSV schema: {first}")
    numbers = PLOT_SCHEMAS[tuple(header)][2]
    for number, line in enumerate(lines, 2):
        if not line.strip():
            continue
        row = line.split(",")
        if len(row) != len(header):
            raise ValueError(f"CSV file {path}, line {number}: {len(row)} values, "
                             f"where the header has {len(header)}")
        for k in numbers:
            try:
                row[k] = float(row[k])
            except ValueError:
                raise ValueError(f"CSV file {path}, line {number}: value {row[k]!r} "
                                 f"in column {header[k]} is not a number") from None
        rows.append(row)
    return header, rows


# plot's schemas: header -> x and y labels and the columns read as numbers (the
# rest stay text); a line chart plots each later column against the first one
PLOT_SCHEMAS = {("t", "node", "option", "value"): ("t", "value", (0, 3)),
                ("u", "y", "stable"): ("u", "y", (0, 1)),
                ("t", "dirichlet", "diameter"): ("t", "metric", (0, 1, 2)),
                ("epoch", "loss", "accuracy"): ("epoch", "value", (0, 1, 2))}


def cmd_plot(opts) -> int:
    src = opts["infile"]
    if not src:
        raise ValueError("plot requires --in")
    dst = opts["svg_out"] or str(Path(src).with_suffix(".svg"))
    header, rows = _read_csv(src)
    x_label, y_label, _ = PLOT_SCHEMAS[tuple(header)]
    if header == ["t", "node", "option", "value"]:
        groups: dict[tuple[str, str], Series] = {}
        for t, node, option, value in rows:
            key = (node, option)
            if key not in groups:
                groups[key] = Series(label=f"n{node}o{option}", x=[], y=[])
            groups[key].x.append(t)
            groups[key].y.append(value)
        series = [groups[k] for k in sorted(groups)]
    elif header == ["u", "y", "stable"]:
        stable = Series("stable", [], [], mode="points")
        unstable = Series("unstable", [], [], mode="points")
        for u, y, flag in rows:
            target = stable if flag in ("1", "true", "True") else unstable
            target.x.append(u)
            target.y.append(y)
        series = [stable, unstable]
    else:
        xs = [r[0] for r in rows]
        series = [Series(name, xs, [r[k] for r in rows]) for k, name in enumerate(header[1:], 1)]
    write_chart(dst, series, title=opts["title"] or Path(src).stem, x_label=x_label,
                y_label=y_label)
    print(f"wrote {dst}", file=sys.stderr)
    return 0


COMMANDS = {
    "simulate": (_run_kernels, "integrate one kernel"),
    "toy": (_run_kernels, "run the four-kernel demo comparison"),
    "bifurcation": (cmd_bifurcation, "equilibrium sweep over attention"),
    "energy": (_run_kernels, "integrate and write metrics only"),
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
