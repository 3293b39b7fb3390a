import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import odyn
from odyn import acceptance
from odyn.cli import DEFAULTS, KERNEL_VERBS, ONE_KERNEL_VERBS, OPTIONS, main
from odyn.fixtures import toy_graph, toy_initial_state
from odyn.graphs import from_edge_list, save_matrix_csv
from odyn.kernels import KERNEL_TAGS, SATURATIONS, kernel_reads, kernel_setup
from oracles import save_graph_json


class TestValidation:
    def test_unknown_verb_is_validation_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_validation_error(self, capsys):
        assert main(["toy", "--frobnicate"]) == 1

    def test_unknown_kernel(self, capsys):
        assert main(["simulate", "--kernel", "heat"]) == 1

    def test_step_guard_maps_to_validation_exit(self, tmp_path):
        assert main(["simulate", "--kernel", "bimp", "--dt", "2.0", "--d", "1.0",
                     "--out", str(tmp_path)]) == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        assert main(["toy", "--config", str(cfg), "--out", str(tmp_path)]) == 1


BAD_INPUTS = [
    ("graph-without-edges", ["simulate", "--graph", "noedges.json"], 1, "error:"),
    ("graph-with-text-node-count", ["simulate", "--graph", "textn.json"], 1, "error:"),
    ("missing-graph-file", ["simulate", "--graph", "missing.json"], 1, "error:"),
    ("missing-init-file", ["simulate", "--init", "missing.csv"], 1, "error:"),
    (
        "rk4-diverging-stage",
        ["simulate", "--method", "rk4", "--d", "0", "--u", "0.25", "--b-mode", "file",
         "--b-file", "huge.csv", "--dt", "0.5", "--steps", "4000", "--out", "out"],
        2,
        "numerical failure:",
    ),
    (
        "laplacian-step-beyond-degree-bound",
        ["simulate", "--kernel", "laplacian", "--graph", "two-pairs.json",
         "--init", "four.csv", "--dt", "1.5", "--out", "out"],
        1,
        "error:",
    ),
    (
        "linear-od-step-beyond-degree-bound",
        ["simulate", "--kernel", "linear-od", "--graph", "two-pairs.json",
         "--init", "four.csv", "--dt", "1.5", "--out", "out"],
        1,
        "error:",
    ),
    (
        "euler-diverging-state",
        ["simulate", "--d", "0", "--u", "0.25", "--b-mode", "file",
         "--b-file", "huge.csv", "--dt", "0.5", "--steps", "4000", "--out", "out"],
        2,
        "numerical failure:",
    ),
    (
        "train-diverging-learning-rate",
        ["train", "--lr", "1e100", "--epochs", "20", "--out", "out"],
        2,
        "numerical failure:",
    ),
    (
        "train-overflowing-features",
        ["train", "--noise", "1e306", "--epochs", "3", "--out", "out"],
        2,
        "numerical failure:",
    ),
    (
        "b-file-shape-mismatch-zero-steps",
        ["simulate", "--b-mode", "file", "--b-file", "four.csv", "--steps", "0", "--out", "out"],
        1,
        "error:",
    ),
    # three pairs must not be read as two triples
    ("graph-edges-are-pairs", ["simulate", "--kernel", "laplacian", "--graph", "pairs.json",
                               "--out", "out"], 1, "error:"),
    ("graph-text-node-index", ["simulate", "--graph", "text-index.json", "--out", "out"], 1,
     "error:"),
    ("graph-duplicate-edge", ["simulate", "--graph", "duplicate.json", "--out", "out"], 1,
     "error: duplicate edge (0, 1)"),
    # a node without out-edges cannot be row-normalized
    ("bimp-sink-node", ["simulate", "--graph", "sink.json", "--out", "out"], 1,
     "error: row 1 has no positive entry"),
    ("graphcon-tran-sink-node", ["simulate", "--kernel", "graphcon-tran", "--graph", "sink.json",
                                 "--out", "out"], 1, "error: row 1 has no positive entry"),
    # a NaN weight is a validation error, not a non-finite state at step 1
    ("graph-nan-weight", ["simulate", "--kernel", "laplacian", "--graph", "nan-weight.json",
                          "--out", "out"], 1, "error: non-finite weight nan on edge (0, 1)"),
    # the reduced kernel checks its parameters as bimp does
    ("reduced-negative-attention", ["simulate", "--kernel", "reduced", "--graph", "one.json",
                                    "--init", "one.csv", "--u", "-0.5", "--out", "out"], 1,
     "error: attention u must be finite and positive, got -0.5"),
    ("reduced-negative-damping", ["simulate", "--kernel", "reduced", "--graph", "one.json",
                                  "--init", "one.csv", "--d", "-1", "--out", "out"], 1,
     "error: damping d must be finite and nonnegative, got -1.0"),
    # only bimp has a saturation to select
    ("reduced-non-tanh-saturation", ["simulate", "--kernel", "reduced", "--graph", "one.json",
                                     "--init", "one.csv", "--u", "0.4", "--saturation",
                                     "softsign", "--out", "out"], 1,
     "error: kernel 'reduced' has no saturation"),
    ("laplacian-saturation", ["simulate", "--kernel", "laplacian", "--saturation", "relu",
                              "--out", "out"], 1, "error: kernel 'laplacian' has no saturation"),
    # a saturation name arrives from outside here, and only a listed one passes
    ("unknown-saturation", ["simulate", "--saturation", "swish", "--out", "out"], 1,
     "error: argument --saturation: invalid choice: 'swish' (choose from "),
    # every row that reads b checks its shape once, at set-up
    ("laplacian-source-b-file-shape-mismatch",
     ["simulate", "--kernel", "laplacian-source", "--b-mode", "file", "--b-file",
      "three-by-two.csv", "--steps", "0", "--out", "out"], 1,
     "error: input matrix must match state shape (3, 3), got (3, 2)"),
    ("reduced-b-file-shape-mismatch",
     ["simulate", "--kernel", "reduced", "--graph", "one.json", "--init", "one.csv",
      "--b-mode", "file", "--b-file", "three-by-two.csv", "--out", "out"], 1,
     "error: input matrix must match state shape (1, 1), got (3, 2)"),
    # sizes below 1
    ("train-zero-block-size", ["train", "--n-per-block", "0", "--out", "out"], 1,
     "error: n_per_block must be at least 1, got 0"),
    ("train-negative-block-size", ["train", "--n-per-block", "-1", "--out", "out"], 1,
     "error: n_per_block must be at least 1, got -1"),
    ("gradcheck-zero-agents", ["gradcheck", "--n-agents", "0", "--out", "out.json"], 1,
     "error: --n-agents must be at least 1, got 0"),
    ("gradcheck-zero-options", ["gradcheck", "--n-options", "0", "--out", "out.json"], 1,
     "error: --n-options must be at least 1, got 0"),
    ("gradcheck-zero-features", ["gradcheck", "--features", "0", "--out", "out.json"], 1,
     "error: --features must be at least 1, got 0"),
    # toy fixes the kernel and source of each of its runs, and none reads beta
    ("toy-kernel", ["toy", "--kernel", "gread-fb", "--out", "out"], 1, "error:"),
    ("toy-beta", ["toy", "--beta", "0.7", "--out", "out"], 1, "error:"),
    ("toy-b-mode", ["toy", "--b-mode", "init", "--out", "out"], 1, "error:"),
    ("toy-b-file", ["toy", "--b-file", "missing.csv", "--out", "out"], 1, "error:"),
    # gread-fb's beta term grows the state like exp(beta t) on a cycle; the
    # run ends at the magnitude limit instead of writing 1e+128
    ("gread-fb-runaway", ["simulate", "--kernel", "gread-fb", "--graph", "cycle.json",
                          "--dt", "0.05", "--steps", "12000", "--out", "out"], 2,
     "numerical failure: state norm above 1e+50 at step 4656"),
    # the initial state passes the same check as every later one
    ("init-beyond-magnitude-limit", ["simulate", "--init", "huge.csv", "--steps", "0",
                                     "--out", "out"], 2,
     "numerical failure: state norm above 1e+50 at step 0"),
    ("init-beyond-magnitude-limit-with-steps", ["simulate", "--init", "huge.csv", "--steps", "5",
                                                "--out", "out"], 2,
     "numerical failure: state norm above 1e+50 at step 0"),
    # a NaN step size is a validation error, not divergence
    ("train-nan-step-size", ["train", "--dt", "nan", "--out", "out"], 1,
     "error: step size must be finite and positive, got nan"),
    ("train-negative-noise", ["train", "--noise", "-1", "--out", "out"], 1,
     "error: noise must be finite and nonnegative, got -1.0"),
    # the sweep's reduced kernel takes the saturated kernel's alpha rule
    ("bifurcation-negative-alpha", ["bifurcation", "--alpha", "-5", "--out", "out.csv"], 1,
     "error: self-reinforcement alpha must be finite and nonnegative, got -5.0"),
    # finite ends whose distance overflows would make the grid NaN
    ("bifurcation-range-beyond-float", ["bifurcation", "--u-min=-1e308", "--u-max", "1e308",
                                        "--out", "out.csv"], 1,
     "error: the width of the attention range [-1e+308, 1e+308] must be finite, got inf"),
    # an attention whose gain u (alpha+3) overflows leaves tanh(c y) NaN at y = 0
    ("bifurcation-gain-beyond-float", ["bifurcation", "--u-min", "1e308", "--u-max", "1.5e308",
                                       "--out", "out.csv"], 1,
     "error: the gain u (alpha+3) over [1e+308, 1.5e+308] must be finite, got inf"),
    ("gradcheck-zero-difference-step", ["gradcheck", "--h", "0", "--out", "out.json"], 1,
     "error: difference step h must be finite and positive, got 0.0"),
    # a node index is an integer, never truncated
    ("graph-fractional-node-index", ["simulate", "--graph", "fractional-index.json",
                                     "--out", "out"], 1,
     "error: edge (0.5, 1) has a node index that is not an integer"),
    # a finite index beyond n is printed short, not digit by digit
    ("graph-huge-node-index", ["simulate", "--graph", "huge-index.json", "--out", "out"], 1,
     "error: edge (1e+300, 1) out of range for n=3"),
    # a graph file holds numbers only, and exactly the members n and edges
    ("graph-string-weight", ["simulate", "--graph", "string-weight.json", "--out", "out"], 1,
     "error: graph file string-weight.json: the edge list breaks off at byte"),
    ("graph-boolean-weight", ["simulate", "--graph", "boolean-weight.json", "--out", "out"], 1,
     "error: graph file boolean-weight.json: the edge list breaks off at byte"),
    ("graph-extra-key", ["simulate", "--graph", "extra-key.json", "--out", "out"], 1,
     "error: graph file extra-key.json must hold a JSON object with exactly the members"),
    ("graph-quad-edge", ["simulate", "--graph", "quad.json", "--out", "out"], 1,
     "error: graph file quad.json: the edge list breaks off at byte"),
    ("empty-init-file", ["simulate", "--init", "empty.csv", "--out", "out"], 1,
     "error: empty matrix file: empty.csv"),
    ("ragged-init-file", ["simulate", "--init", "ragged.csv", "--out", "out"], 1,
     "error: matrix file ragged.csv: the number of columns changed from 3 to 2"),
    # plot checks every row's length before it makes the output directory;
    # a line number counts blank lines too
    ("plot-short-row", ["plot", "--in", "short-row.csv", "--out", "out/short-row.svg"], 1,
     "error: CSV file short-row.csv, line 4: 2 values, where the header has 3"),
    ("plot-long-row", ["plot", "--in", "long-row.csv", "--out", "out/long-row.svg"], 1,
     "error: CSV file long-row.csv, line 3: 5 values, where the header has 4"),
    # and converts every number before it makes the output directory
    ("plot-non-numeric-value", ["plot", "--in", "nn.csv", "--out", "pl/nn.svg"], 1,
     "error: CSV file nn.csv, line 2: value 'x' in column dirichlet is not a number"),
    # toy sets all four kernels up before its first run writes
    ("toy-non-finite-attention", ["toy", "--u=inf", "--steps", "2", "--out", "out"], 1,
     "error: attention u must be finite and positive, got inf"),
    # 10^12 nodes need 8 TB per index array, an allocation refused at once
    ("graph-node-count-beyond-memory", ["simulate", "--graph", "huge-n.json", "--out", "out"], 1,
     "error: Unable to allocate"),
    # node indices are int64
    ("graph-node-count-beyond-int64", ["simulate", "--graph", "n-beyond-int64.json",
                                       "--out", "out"], 1,
     "error: node count must be less than 2**63"),
]

# Linux refuses an allocation beyond its memory at once unless it is set to
# overcommit always (mode 1); elsewhere the huge-n row is not run
OVERCOMMIT = Path("/proc/sys/vm/overcommit_memory")
REFUSES_HUGE_ALLOCATIONS = OVERCOMMIT.is_file() and OVERCOMMIT.read_text().strip() in ("0", "2")


@pytest.mark.parametrize(
    "argv, code, prefix", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS]
)
def test_bad_input_exit_code_and_one_line_diagnostic(tmp_path, argv, code, prefix):
    if "huge-n.json" in argv and not REFUSES_HUGE_ALLOCATIONS:
        pytest.skip("this kernel may grant an 8 TB allocation and fail later")
    (tmp_path / "huge-n.json").write_text(json.dumps({"n": 10**12, "edges": [[0, 1, 1.0]]}))
    (tmp_path / "n-beyond-int64.json").write_text(json.dumps({"n": 10**23, "edges": []}))
    (tmp_path / "noedges.json").write_text(json.dumps({"n": 3}))
    (tmp_path / "textn.json").write_text(json.dumps({"n": "3", "edges": []}))
    for name, edges in (("pairs", [[0, 1], [1, 2], [2, 0]]), ("text-index", [[0, "a", 1.0]]),
                        ("duplicate", [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0], [0, 1, 0.5]]),
                        ("sink", [[0, 1, 1.0]]), ("cycle", [[0, 1, 1], [1, 2, 1], [2, 0, 1]]),
                        ("nan-weight", [[0, 1, math.nan], [1, 2, 1.0], [2, 0, 1.0]]),
                        ("fractional-index", [[0.5, 1, 1], [1, 2, 1], [2, 0, 1]]),
                        ("huge-index", [[1e300, 1, 1]]),
                        ("string-weight", [[0, 1, "2"], [1, 2, 1], [2, 0, 1]]),
                        ("boolean-weight", [[0, 1, True], [1, 2, 1], [2, 0, 1]]),
                        ("quad", [[0, 1, 1, 1], [1, 2, 1, 1], [2, 0, 1, 1]])):
        (tmp_path / f"{name}.json").write_text(json.dumps({"n": 3, "edges": edges}))
    (tmp_path / "extra-key.json").write_text(
        json.dumps({"n": 3, "edges": [[0, 1, 1], [1, 2, 1], [2, 0, 1]], "name": "cycle"}))
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "ragged.csv").write_text("1,0,0\n\n0,1\n0,0,1\n")
    (tmp_path / "short-row.csv").write_text("t,dirichlet,diameter\n0.0,1.0,2.0\n\n0.1,0.9\n")
    (tmp_path / "long-row.csv").write_text("t,node,option,value\n0.0,0,0,1.0\n0.0,0,1,0.5,9\n")
    (tmp_path / "nn.csv").write_text("t,dirichlet,diameter\n0.0,x,1\n")
    save_matrix_csv(np.full((3, 3), 1e307), tmp_path / "huge.csv")
    (tmp_path / "one.json").write_text(json.dumps({"n": 1, "edges": []}))
    save_matrix_csv(np.array([[0.3]]), tmp_path / "one.csv")
    save_matrix_csv(np.ones((3, 2)), tmp_path / "three-by-two.csv")
    # two 2-node components: max out-degree 1, lambda_max(L) = 2
    two_pairs = {"n": 4, "edges": [[0, 1, 1.0], [1, 0, 1.0], [2, 3, 1.0], [3, 2, 1.0]]}
    (tmp_path / "two-pairs.json").write_text(json.dumps(two_pairs))
    save_matrix_csv(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-1.0, 2.0]]),
                    tmp_path / "four.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "odyn.cli", *argv],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    # a validation error writes nothing
    if code == 1 and "--out" in argv:
        assert not (tmp_path / argv[argv.index("--out") + 1]).exists()


def _child_env():
    env = dict(os.environ)
    src = str(Path(odyn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_the_cli_loads_the_xml_escaper_only_to_plot():
    # xml.sax.saxutils loads urllib.request, 40 ms and 7 MB at every start
    code = "import sys, odyn.cli; print('urllib.request' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.stdout == "False\n", proc.stderr


def test_an_sbm_task_beyond_memory_is_refused_before_its_draws(tmp_path):
    # about 1.7e12 directed edges: drawing them would fill the host, so the
    # child runs under a 1 GiB address-space limit and a 10 s timeout, with
    # one BLAS thread, whose buffers fit that limit on a host of any size
    limit = 1 << 30
    env = {**_child_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "odyn.cli", "train", "--n-per-block", "1000000", "--out", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stderr.splitlines()) == (
        1, ["error: the SBM task expects 1.7e+12 edges, more than can be allocated"])


GRAPH_KERNELS = tuple(tag for tag in KERNEL_TAGS if tag != "reduced")
# the smallest run of each verb
TINY = {"simulate": ["--steps", "2"], "toy": ["--steps", "2"], "energy": ["--steps", "2"],
        "bifurcation": ["--points", "3"],
        "gradcheck": ["--n-agents", "2", "--n-options", "2", "--features", "2"],
        "train": ["--n-per-block", "2", "--epochs", "1"]}


def _non_finite_cases():
    """Every float flag of every verb, as nan, inf and -inf, under each kernel that reads it."""
    for o in OPTIONS:
        if o.type is not float:
            continue
        for verb in o.verbs:
            runs = [[]]
            if verb in ONE_KERNEL_VERBS:
                # the integrator reads dt under every kernel
                runs = [["--kernel", tag] for tag in GRAPH_KERNELS
                        if o.dest == "dt" or o.dest in kernel_reads(tag)]
                if o.dest in ("d", "alpha"):
                    # a given u skips the critical attention d / (alpha + 3)
                    runs.append(["--kernel", "bimp", "--u", "0.3"])
            for run in runs:
                for value in ("nan", "inf", "-inf"):
                    # "--flag=-inf", since argparse reads a lone "-inf" as a flag
                    argv = [verb, *run, f"--{o.flag}={value}"]
                    yield pytest.param(argv, id=" ".join(argv))


@pytest.mark.parametrize("argv", list(_non_finite_cases()))
def test_a_non_finite_float_flag_is_a_validation_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, *TINY[argv[0]], "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert [line for line in err if line.startswith(("error:", "numerical failure:"))] == err[-1:]
    assert err[-1].startswith("error:")
    assert not caught
    assert not out.exists()


# The kernel options each row reads (README, "Command line"); --seed is
# accepted by every kernel.
READS = {
    "bimp": {"d", "alpha", "u", "b-mode", "saturation"},
    "linear-od": set(),
    "laplacian": set(),
    "laplacian-source": {"b-mode"},
    "graphcon-tran": set(),
    "gread-f": set(),
    "gread-fb": {"alpha", "beta"},
    "reduced": {"d", "alpha", "u", "b-mode"},
}
NON_DEFAULT = {"d": "0.5", "alpha": "1.5", "u": "0.3", "beta": "0.7", "saturation": "softsign",
               "b-mode": "init", "seed": "7"}


@pytest.mark.parametrize("flag", NON_DEFAULT)
@pytest.mark.parametrize("tag", READS)
def test_a_kernel_rejects_a_set_option_it_does_not_read(tmp_path, capsys, tag, flag):
    (tmp_path / "one.json").write_text(json.dumps({"n": 1, "edges": []}))
    save_matrix_csv(np.array([[0.3]]), tmp_path / "one.csv")
    inputs = ["--graph", str(tmp_path / "one.json"), "--init", str(tmp_path / "one.csv")]
    argv = ["simulate", "--kernel", tag, "--steps", "2", "--out", str(tmp_path / "out"),
            *(inputs if tag == "reduced" else []), f"--{flag}", NON_DEFAULT[flag]]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    if flag in READS[tag] or flag == "seed":
        assert code == 0
    else:
        name = "b" if flag == "b-mode" else flag
        assert (code, err) == (1, [f"error: kernel '{tag}' has no {name} to set"])


def _differs_from_default_train(tmp_path):
    assert main(["train", "--epochs", "2", "--out", "default"]) == 0
    return (tmp_path / "cfg/history.csv").read_text() != (
        tmp_path / "default/history.csv"
    ).read_text()


CONFIG_CASES = [
    # (id, argv, config object, exit code, check on the working directory)
    ("train-honours-steps", ["train", "--epochs", "2", "--out", "cfg"], {"steps": 2}, 0,
     _differs_from_default_train),
    ("unknown-method-rejected", ["simulate", "--steps", "5", "--out", "cfg"], {"method": "rk5"},
     1, None),
    ("graph-accepted", ["simulate", "--steps", "5", "--out", "cfg"],
     {"graph": "four-nodes.json", "init": "four.csv"}, 0,
     lambda tmp: {row.split(",")[1] for row in (tmp / "cfg/bimp.csv").read_text().split()[1:]}
     == {"0", "1", "2", "3"}),
    ("fractional-steps-rejected", ["simulate", "--out", "cfg"], {"steps": 10.7}, 1, None),
    ("bifurcation-rejects-steps", ["bifurcation", "--points", "3", "--out", "bif.csv"],
     {"steps": 99}, 1, None),
    ("plot-honours-in-and-out", ["plot"], {"in": "traj.csv", "out": "traj.svg"}, 0,
     lambda tmp: (tmp / "traj.svg").read_text().startswith("<svg")),
]


@pytest.mark.parametrize(
    "argv, config, code, check",
    [case[1:] for case in CONFIG_CASES],
    ids=[case[0] for case in CONFIG_CASES],
)
def test_config_keys_are_parsed_as_the_verbs_flags(tmp_path, monkeypatch, argv, config, code,
                                                   check):
    monkeypatch.chdir(tmp_path)
    save_graph_json(from_edge_list([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)], 4),
                    "four-nodes.json")
    save_matrix_csv(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-1.0, 2.0]]), "four.csv")
    Path("traj.csv").write_text("t,node,option,value\n0.0,0,0,1.0\n0.1,0,0,0.5\n")
    Path("cfg.json").write_text(json.dumps(config))
    assert main([*argv, "--config", "cfg.json"]) == code
    assert check is None or check(tmp_path)


def test_defaults_read_by_the_setup_probe_keep_their_values():
    # perfbench/probe.py builds the train-sbm-1k set-up from these keys
    expected = {"noise": 0.1, "lr": 0.1, "train_steps": 8, "train_dt": 0.1, "d": 1.0,
                "alpha": 1.0}
    assert {key: DEFAULTS[key] for key in expected} == expected


def test_the_cli_defaults_are_kernel_setups():
    # both modules state these defaults; were they to part, a kernel that
    # does not read an option would reject the CLI's default for it
    defaults = kernel_setup.__kwdefaults__
    assert {k: DEFAULTS[k] for k in ("d", "alpha", "u", "beta", "seed")} == {
        k: defaults[k] for k in ("d", "alpha", "u", "beta", "seed")}
    assert SATURATIONS[DEFAULTS["saturation"]] is defaults["saturation"]


class TestToy:
    def test_writes_four_trajectories(self, tmp_path):
        out = tmp_path / "toy"
        assert main(["toy", "--out", str(out), "--seed", "0"]) == 0
        for name in ("grand-l", "grand++-l", "graphcon-tran", "bimp"):
            path = out / f"{name}.csv"
            assert path.exists()
            assert path.read_text().splitlines()[0] == "t,node,option,value"

    def test_saturation_applies_to_the_bimp_run_alone(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["toy", "--out", str(a), "--seed", "0"]) == 0
        assert main(["toy", "--out", str(b), "--seed", "0", "--saturation", "softsign"]) == 0
        for name in ("grand-l", "grand++-l", "graphcon-tran"):
            assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()
        assert (a / "bimp.csv").read_bytes() != (b / "bimp.csv").read_bytes()


    def test_the_toy_figure_criterion_measures_the_runs_toy_writes(self, tmp_path):
        # at its defaults toy writes the four runs the battery checks: each
        # terminal diameter in its metrics CSV is the criterion's, to the bit
        assert main(["toy", "--out", str(tmp_path)]) == 0
        measured = {c.quantity: c.measured for c in acceptance.criterion_toy_figure().checks}
        for quantity, name, bits in (
            ("laplacian terminal diameter", "grand-l", "0x1.54d0000000000p-41"),
            ("oscillator terminal diameter", "graphcon-tran", "0x1.63796784e8000p-16"),
            ("saturated terminal diameter", "bimp", "0x1.08a1ce57dc51cp-1"),
        ):
            diameter = float(_last_metrics_row(tmp_path / f"{name}-metrics.csv")[2])
            assert (float.hex(diameter), float.hex(measured[quantity])) == (bits, bits)


def _last_metrics_row(path):
    return path.read_text().split()[-1].split(",")


class TestKernelVerbs:
    """simulate, energy and toy run one path, and each keeps its stderr line."""

    def test_simulate_names_its_trajectory_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--kernel", "laplacian", "--steps", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [f"wrote {out / 'laplacian.csv'}"]
        assert sorted(p.name for p in out.iterdir()) == ["laplacian-metrics.csv", "laplacian.csv"]

    def test_energy_names_its_metrics_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["energy", "--steps", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [f"wrote {out / 'bimp-metrics.csv'}"]
        assert [p.name for p in out.iterdir()] == ["bimp-metrics.csv"]

    def test_toy_reports_each_terminal_diameter_in_run_order(self, tmp_path, capsys):
        assert main(["toy", "--steps", "20", "--out", str(tmp_path)]) == 0
        names = ("grand-l", "grand++-l", "graphcon-tran", "bimp")
        expected = [
            f"{name}: terminal diameter "
            f"{float(_last_metrics_row(tmp_path / f'{name}-metrics.csv')[2]):.3e}"
            for name in names
        ]
        assert capsys.readouterr().err.splitlines() == expected

    @pytest.mark.parametrize("verb", KERNEL_VERBS)
    def test_a_second_seeded_run_in_the_same_process_writes_the_same_bytes(self, tmp_path, verb):
        # the benchmark's rule for repeated operations: nothing a run leaves
        # behind in the process changes what the next one writes
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([verb, "--seed", "3", "--out", str(a)]) == 0
        assert main([verb, "--seed", "3", "--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir()) and names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("verb", KERNEL_VERBS)
    def test_a_step_at_the_bound_exits_1_and_writes_nothing(self, tmp_path, capsys, verb):
        # dt * d = 1 for bimp at d = 1, and for graphcon-tran's unit damping
        out = tmp_path / "out"
        assert main([verb, "--dt", "1.0", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: step size 1.0 is not below 1/d")
        assert not out.exists()


class TestSimulate:
    def test_custom_graph_and_state(self, tmp_path):
        gpath = tmp_path / "g.json"
        xpath = tmp_path / "x.csv"
        save_graph_json(toy_graph(), gpath)
        save_matrix_csv(toy_initial_state(), xpath)
        out = tmp_path / "sim"
        code = main([
            "simulate", "--kernel", "laplacian", "--graph", str(gpath),
            "--init", str(xpath), "--steps", "50", "--out", str(out),
        ])
        assert code == 0
        assert (out / "laplacian.csv").exists()
        assert (out / "laplacian-metrics.csv").exists()

    def test_state_graph_mismatch(self, tmp_path):
        gpath = tmp_path / "g.json"
        xpath = tmp_path / "x.csv"
        save_graph_json(toy_graph(), gpath)
        save_matrix_csv(np.zeros((2, 2)), xpath)
        assert main(["simulate", "--graph", str(gpath), "--init", str(xpath)]) == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernel": "laplacian", "steps": 10, "dt": 0.05}))
        out = tmp_path / "sim"
        code = main([
            "simulate", "--config", str(cfg), "--kernel", "linear-od",
            "--out", str(out),
        ])
        assert code == 0
        # the flag overrides the config kernel
        assert (out / "linear-od.csv").exists()
        assert not (out / "laplacian.csv").exists()


class TestBifurcation:
    def test_branch_count_changes_at_critical_attention(self, tmp_path):
        out = tmp_path / "bif.csv"
        code = main([
            "bifurcation", "--d", "1", "--alpha", "1", "--u-min", "0.05",
            "--u-max", "0.6", "--points", "112", "--out", str(out),
        ])
        assert code == 0
        counts = {}
        for line in out.read_text().splitlines()[1:]:
            u = float(line.split(",")[0])
            counts[u] = counts.get(u, 0) + 1
        below = [c for u, c in counts.items() if u < 0.24]
        above = [c for u, c in counts.items() if u > 0.26]
        assert set(below) == {1} and set(above) == {3}

    def test_stdout_mode(self, capsys):
        assert main(["bifurcation", "--points", "3", "--u-min", "0.1",
                     "--u-max", "0.2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "u,y,stable"


class TestGradcheckAndTrain:
    def test_gradcheck_json(self, tmp_path, capsys):
        out = tmp_path / "grad.json"
        assert main(["gradcheck", "--seed", "5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rel_error"] < 1e-5
        assert payload["within_bound"] is True

    def test_train_history(self, tmp_path):
        out = tmp_path / "train"
        code = main([
            "train", "--epochs", "5", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) == 1 + 5 + 1
        assert (out / "weights.csv").exists()


class TestPlot:
    def test_trajectory_plot(self, tmp_path):
        out = tmp_path / "toy"
        main(["toy", "--out", str(out), "--seed", "0", "--steps", "20"])
        svg = tmp_path / "bimp.svg"
        assert main(["plot", "--in", str(out / "bimp.csv"), "--out", str(svg)]) == 0
        body = svg.read_text()
        assert body.startswith("<svg")
        assert "polyline" in body
        assert "http" not in body.replace("http://www.w3.org/2000/svg", "")

    def test_metrics_and_bifurcation_schemas(self, tmp_path):
        out = tmp_path / "toy"
        main(["toy", "--out", str(out), "--seed", "0", "--steps", "20"])
        assert main(["plot", "--in", str(out / "bimp-metrics.csv"),
                     "--out", str(tmp_path / "m.svg")]) == 0
        bif = tmp_path / "bif.csv"
        main(["bifurcation", "--points", "20", "--out", str(bif)])
        assert main(["plot", "--in", str(bif), "--out", str(tmp_path / "b.svg")]) == 0
        assert "circle" in (tmp_path / "b.svg").read_text()

    def test_out_into_a_missing_directory(self, tmp_path):
        out = tmp_path / "toy"
        main(["toy", "--out", str(out), "--seed", "0", "--steps", "20"])
        svg = tmp_path / "plot" / "bimp.svg"
        assert main(["plot", "--in", str(out / "bimp.csv"), "--out", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")

    def test_a_ragged_row_fails_before_the_output_directory_is_made(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("t,dirichlet,diameter\n0.0,1.0,2.0\n0.1,0.9\n")
        assert main(["plot", "--in", str(bad), "--out", str(tmp_path / "plot" / "m.svg")]) == 1
        assert not (tmp_path / "plot").exists()

    @pytest.mark.parametrize("text, message", [
        ("t,dirichlet,diameter\n0.0,1.0,2.0\n0.1,0.9,x\n",
         "line 3: value 'x' in column diameter is not a number"),
        ("t,node,option,value\n0.0,0,0,1.0\n\n0.1,0,0,\n",
         "line 4: value '' in column value is not a number"),
        ("u,y,stable\n0.1,0.0,1\nnan?,0.0,0\n",
         "line 3: value 'nan?' in column u is not a number"),
        ("a,b\n1,2\n", "unrecognized CSV schema: a,b"),
        ("t,dirichlet,diameter\n", "nothing to plot: no finite points"),
        ("t,dirichlet,diameter\n0.0,nan,nan\n", "nothing to plot: no finite points"),
    ], ids=["metrics", "trajectory", "bifurcation", "unknown-schema", "header-only", "all-nan"])
    def test_a_file_with_no_chart_fails_before_the_output_directory_is_made(
        self, tmp_path, capsys, text, message
    ):
        bad = tmp_path / "m.csv"
        bad.write_text(text)
        assert main(["plot", "--in", str(bad), "--out", str(tmp_path / "plot" / "m.svg")]) == 1
        assert capsys.readouterr().err.strip().endswith(message)
        assert not (tmp_path / "plot").exists()

    def test_node_and_option_stay_text_that_orders_the_series(self, tmp_path):
        # "10" sorts before "2" as text, and a node label need not be a number
        src = tmp_path / "traj.csv"
        src.write_text("t,node,option,value\n0.0,2,0,1.0\n0.0,10,0,0.5\n0.0,a&b,0,0.0\n"
                       "1.0,2,0,0.5\n1.0,10,0,0.25\n1.0,a&b,0,1.0\n")
        assert main(["plot", "--in", str(src), "--out", str(tmp_path / "traj.svg")]) == 0
        body = (tmp_path / "traj.svg").read_text()
        assert body.index(">n10o0<") < body.index(">n2o0<") < body.index(">na&amp;bo0<")

    def test_unknown_schema_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["plot", "--in", str(bad), "--out", str(tmp_path / "x.svg")]) == 1


class TestVerify:
    def test_report_structure_and_exit_contract(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--out", str(out)])
        report = json.loads(out.read_text())
        assert len(report) == 12
        assert {r["name"] for r in report} >= {
            "toy-figure",
            "leading-eigenvalue",
            "bifurcation-structure",
            "critical-consensus",
            "gradient-suite",
            "training-smoke",
        }
        all_passed = all(r["passed"] for r in report)
        assert code == (0 if all_passed else 3)
        for r in report:
            for key in ("measured", "threshold", "budget_seconds"):
                assert r[key] is None or type(r[key]) in (int, float), (r["name"], key)
            for c in r["checks"]:
                assert list(c) == ["quantity", "measured", "relation", "threshold", "holds"]
                assert type(c["quantity"]) is str and type(c["holds"]) is bool
                assert type(c["measured"]) in (int, float) and type(c["threshold"]) in (int, float)
                assert c["relation"] in ("<", "<=", "==", ">=", ">")
            assert r["passed"] == all(c["holds"] for c in r["checks"])
            # measured and threshold are those of the one check besides the runtime budget
            gates = [c for c in r["checks"] if c["quantity"] != "runtime seconds"]
            single = gates[0] if len(gates) == 1 else {"measured": None, "threshold": None}
            assert (r["measured"], r["threshold"]) == (single["measured"], single["threshold"])
            budget = [c["threshold"] for c in r["checks"] if c["quantity"] == "runtime seconds"]
            assert budget == ([] if r["budget_seconds"] is None else [r["budget_seconds"]])
        critical = next(r for r in report if r["name"] == "critical-consensus")
        assert (critical["measured"], critical["threshold"]) == (0.08226893359259696, 1e-3)
        assert critical["passed"] == (critical["measured"] < critical["threshold"])
        assert critical["detail"].endswith("; failed: worst |X(200)|_inf")
