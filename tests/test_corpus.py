"""Byte identity of seeded CLI output.

Every command below runs in-process in a fresh directory, and every file
it writes (or, for ``bifurcation`` to stdout, what it prints) must keep
the SHA-256 recorded here.  A change that moves a recorded hash changes
seeded output, which the project treats as a behaviour change.
"""
import contextlib
import hashlib
import io
import json
from xml.etree import ElementTree

import numpy as np
import pytest

from odyn.cli import main
from odyn.graphs import save_matrix_csv
from odyn.svg import Series, write_chart

CORPUS = (
    ["toy", "--seed", "0", "--out", "toy"],
    ["simulate", "--method", "rk4", "--kernel", "graphcon-tran", "--seed", "0",
     "--out", "sim-rk4"],
    ["simulate", "--kernel", "bimp", "--b-mode", "init", "--u", "0.3", "--saturation",
     "softsign", "--method", "rk4", "--out", "sim-bimp"],
    ["simulate", "--config", "sim-cfg.json", "--out", "sim-cfg"],
    ["energy", "--kernel", "laplacian", "--steps", "100", "--out", "energy"],
    ["bifurcation", "--out", "bif/bif.csv"],
    ["gradcheck", "--seed", "3", "--out", "grad/grad.json"],
    ["train", "--seed", "1", "--epochs", "5", "--out", "train"],
    ["plot", "--in", "toy/bimp.csv", "--out", "bimp.svg"],
    ["plot", "--in", "toy/grand-l-metrics.csv"],
    # the kernels the recorded corpus above does not run
    ["simulate", "--kernel", "linear-od", "--steps", "100", "--out", "sim-linear-od"],
    ["simulate", "--kernel", "laplacian-source", "--b-mode", "init", "--steps", "100",
     "--out", "sim-laplacian-source"],
    ["simulate", "--kernel", "gread-f", "--method", "rk4", "--steps", "100",
     "--out", "sim-gread-f"],
    ["simulate", "--kernel", "gread-fb", "--alpha", "1.5", "--beta", "0.7", "--steps", "100",
     "--out", "sim-gread-fb"],
    ["simulate", "--kernel", "reduced", "--graph", "one.json", "--init", "one.csv",
     "--u", "0.4", "--b-mode", "init", "--steps", "100", "--out", "sim-reduced"],
    # toy hands each run only the options its kernel reads
    ["toy", "--seed", "0", "--saturation", "softsign", "--out", "toy-softsign"],
    ["toy", "--seed", "0", "--d", "2", "--out", "toy-d2"],
    # the line chart of a training history, and the point chart of a sweep
    ["plot", "--in", "train/history.csv"],
    ["plot", "--in", "bif/bif.csv"],
    # every regime of the trajectory writer: the t = 0 snapshot holds the specials
    ["simulate", "--graph", "specials.json", "--init", "specials.csv", "--steps", "2",
     "--record-every", "1", "--out", "sim-specials"],
    # a small-d sweep whose one root lies near y = 20, far beyond the default's
    ["bifurcation", "--d", "0.1", "--alpha", "1", "--b", "1", "--u-min", "0.01",
     "--u-max", "0.2", "--points", "20", "--out", "bif01/bif.csv"],
    # each saturation the corpus above does not run, from a state of both signs
    *(["simulate", "--saturation", name, "--init", "mixed.csv", "--b-mode", "init",
       "--steps", "40", "--out", f"sim-{name}"]
      for name in ("arctan", "sigmoid", "relu", "gelu", "identity")),
)

# Zeros of both signs, subnormals, the neighbours of repr's positional range
# [1e-4, 1e16), powers of two, multiples of 0.05 and the largest magnitudes
# that stay within the integrator's norm limit of 1e50.
SPECIALS = np.array([
    [0.0, -0.0, 5e-324, -5e-324],
    [2.2250738585072014e-308, 2.225073858507201e-308, 1e-310, -4.9e-320],
    [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0), -1e-4],
    [9999999999999998.0, 1e16, np.nextafter(1e16, np.inf), -9999999999999998.0],
    [0.5, 2.0 ** -20, 2.0 ** 52, -(2.0 ** 53)],
    [0.05, 3 * 0.05, 7 * 0.05, -21 * 0.05],
    [0.1 + 0.2, 1 / 3, 9.999999999999999e48, -1e49],
])

# A 3-agent, 3-option state of both signs: the saturations that agree on
# positive arguments (relu and identity) part on it.
MIXED = np.array([
    [0.43, -0.29, 0.61],
    [-0.14, 0.29, -0.37],
    [0.46, -0.79, 0.20],
])

HASHES = {
    "bif-stdout.csv":
        "06046d4c889170e15a253ae765775ea6d6df89678c196381f9386ce1ce710924",
    "bif/bif.csv":
        "06046d4c889170e15a253ae765775ea6d6df89678c196381f9386ce1ce710924",
    "bif/bif.svg":
        "9cb48855889c9470eacf946155b36ba9a85469f1b3e2ac34635e3833a2efe686",
    "bif01/bif.csv":
        "13e51a085b372d6317155d69934622e336bbc521858e3d7c7074ea0c9ffe37c4",
    "bimp.svg":
        "d038e35067314506413ce516b1694a6ad82bb2f59b5d3a771f2c8e2130fc1e12",
    "energy/laplacian-metrics.csv":
        "87acecb9f3f19386d495a3b169e060a8b4769b431d1a7e646a8b22c6dbcbcf20",
    "grad/grad.json":
        "fd94ad3297f70663b5964409974be37ecc8d67f9c57e26e4f80b7a73b8a39e4d",
    "sim-arctan/bimp-metrics.csv":
        "27141d722fe5fb537c922b9d2bb3c277aa216209ad0838093c47bc3531ea5187",
    "sim-arctan/bimp.csv":
        "977340b5f13bbc4a3f22f069dcb3c159a177967dc68bbd9defed55af9a26539d",
    "sim-bimp/bimp-metrics.csv":
        "edc132ebe09eeb2444c1530374819bcce10a117e302f63db38564616f431b8ee",
    "sim-bimp/bimp.csv":
        "4ed9fc23cb267571f6abc3542ee77cec6f019200736b088447f533eee837be80",
    "sim-cfg/laplacian-metrics.csv":
        "99f33e2acc6ba046ec5e19b52e221e09ffdf877ad75397e2ea2db876e66e93f0",
    "sim-cfg/laplacian.csv":
        "36cfe493d2045462218caf1c24ec626d5a2b83f436028682207e2fedb0d4f60d",
    "sim-gelu/bimp-metrics.csv":
        "99df460114d024dc3050aeeaa690d68f8ec1e4d416565c95e3a384ca9763cd52",
    "sim-gelu/bimp.csv":
        "b6a95f6a2dc81402e544b4b5a5632a1f6ffb07d03cd7726943017273213f0eca",
    "sim-gread-f/gread-f-metrics.csv":
        "80a35b874b08f2d8825c30d03f77869f0b128d9c09da38db2c04bf9e56007573",
    "sim-gread-f/gread-f.csv":
        "0ea2fdf59e6ee77bbfbe675acba8e7e206ed7987af106ee66401433e902693c1",
    "sim-gread-fb/gread-fb-metrics.csv":
        "9a262d54592aacb38a169dc72027c52ee70a06c904a660100dbf9e74db1bc8f5",
    "sim-gread-fb/gread-fb.csv":
        "5ee7a77986a48bc49e0a2f987f37951ab885871977da91c270b9c100c0acf239",
    "sim-identity/bimp-metrics.csv":
        "8f4ea8ac4d4564489c36fe426db232e78370f2e7ae01a2713fafe7b4e617e9da",
    "sim-identity/bimp.csv":
        "4d27e677682d1d26a59b3b3ed76a5208543d7cf10431b8d62f3cb2c68036650e",
    "sim-laplacian-source/laplacian-source-metrics.csv":
        "d1050267fba3739d6e556cae0bbddff71aef954d776590360fbf1ad767e9f23b",
    "sim-laplacian-source/laplacian-source.csv":
        "b8af2925b2297a0a53a77ba06f5a4f0bf4d34016c0b94538602defc38b2934d6",
    "sim-linear-od/linear-od-metrics.csv":
        "87acecb9f3f19386d495a3b169e060a8b4769b431d1a7e646a8b22c6dbcbcf20",
    "sim-linear-od/linear-od.csv":
        "2d7cf05ebfcc7468c4ab230de6106dc83c6872d19b77ad0731bf72a8b5d76a3d",
    "sim-reduced/reduced-metrics.csv":
        "b20cf2cb9d2e0767e2620c46ac8854152ec69c739072bd93252dfba9fa811e81",
    "sim-reduced/reduced.csv":
        "6432e751313b39b54361759699acb3fef23855bb82984a19954b55ad8a89bd28",
    "sim-relu/bimp-metrics.csv":
        "cb0052dacfed9f452391c72e66fac0f656d42b03f5486a500784cf853fcf735c",
    "sim-relu/bimp.csv":
        "abc0173c0624355d053ce40d8a2f483dd15ef8c2b7b6419ab1dd14ea88765a47",
    "sim-rk4/graphcon-tran-metrics.csv":
        "49a49e2e4c02f9a9ab2e0a0bed654f426891c240940a9628fd49e8d41c957505",
    "sim-rk4/graphcon-tran.csv":
        "9a63269b09235a6ddafc164134691610b24487c4c86c9a57598a83a2cb699830",
    "sim-sigmoid/bimp-metrics.csv":
        "b0bcf5affee531b3e9965ec39fbb6437a6539951fe342e34ad61286ffb9b240d",
    "sim-sigmoid/bimp.csv":
        "4cba898bb5d258a2735a6e54079b13c0ab7df1a8f14f6ef4e2839fb999bce348",
    "sim-specials/bimp-metrics.csv":
        "ec88abe21dcad1fd7a11eb267d07e95230907c1362a7ce7cfe77fb0b6e2277f3",
    "sim-specials/bimp.csv":
        "f03553d1c33e8f74a109c7d95274a03e4564d609cdc4af1e30c9c73d784cae83",
    "toy-d2/bimp-metrics.csv":
        "80827631ed54433569ddf7b19740b6234124d9893d33d418c5a3b2694bd3a03a",
    "toy-d2/bimp.csv":
        "be526581f9d8bbe5a8c079ac047ad3d52a0c2dd2d072aaa052449c99fc080048",
    "toy-d2/grand++-l-metrics.csv":
        "3ef936df06b455fa5b0701752c0742bb6010679e1ed4cdf2a4d0f263cbe74352",
    "toy-d2/grand++-l.csv":
        "f0d1afadeb8bee044dd238412a0560c4e006938688f3a60c757c3fd7db70cf49",
    "toy-d2/grand-l-metrics.csv":
        "1279037dfdd34eb6fffd0339102508c8928bc61f4b79adc14f2afbeec75d4907",
    "toy-d2/grand-l.csv":
        "135d72d3d76d5fd77e84bda5ca33c561de8acdb4586f05386d4e54f787e3b16f",
    "toy-d2/graphcon-tran-metrics.csv":
        "9c6468953224ff8483b7e113c7fd5984cb6d9b02cfc5ece1e7d35facf8c4bbb9",
    "toy-d2/graphcon-tran.csv":
        "3e885f37b16d8e521ab69793b00f9dc6282fe6ac3233e22b9109f6b3fc364798",
    "toy-softsign/bimp-metrics.csv":
        "b4b645d5ababf79aa0bd9f60d181790b2871faf784b70abc23af06e429f4018e",
    "toy-softsign/bimp.csv":
        "bd71e4caefc287d806968e5980614bd214573613e3b6dde4f34c9c34936972c6",
    "toy-softsign/grand++-l-metrics.csv":
        "3ef936df06b455fa5b0701752c0742bb6010679e1ed4cdf2a4d0f263cbe74352",
    "toy-softsign/grand++-l.csv":
        "f0d1afadeb8bee044dd238412a0560c4e006938688f3a60c757c3fd7db70cf49",
    "toy-softsign/grand-l-metrics.csv":
        "1279037dfdd34eb6fffd0339102508c8928bc61f4b79adc14f2afbeec75d4907",
    "toy-softsign/grand-l.csv":
        "135d72d3d76d5fd77e84bda5ca33c561de8acdb4586f05386d4e54f787e3b16f",
    "toy-softsign/graphcon-tran-metrics.csv":
        "9c6468953224ff8483b7e113c7fd5984cb6d9b02cfc5ece1e7d35facf8c4bbb9",
    "toy-softsign/graphcon-tran.csv":
        "3e885f37b16d8e521ab69793b00f9dc6282fe6ac3233e22b9109f6b3fc364798",
    "toy/bimp-metrics.csv":
        "c200a8ea9e3f4ce101fd1f54bcdaf0edeb77318ddafb73373327fc867d30f9e6",
    "toy/bimp.csv":
        "ca20752fafa2056aa959f09b96377cbd787749bef33c25929e53a6ae785e68bc",
    "toy/grand++-l-metrics.csv":
        "3ef936df06b455fa5b0701752c0742bb6010679e1ed4cdf2a4d0f263cbe74352",
    "toy/grand++-l.csv":
        "f0d1afadeb8bee044dd238412a0560c4e006938688f3a60c757c3fd7db70cf49",
    "toy/grand-l-metrics.csv":
        "1279037dfdd34eb6fffd0339102508c8928bc61f4b79adc14f2afbeec75d4907",
    "toy/grand-l-metrics.svg":
        "75261c7820d122ac18adda025a6f0450941d3d4c94b7fcb9d2dad6d27df37624",
    "toy/grand-l.csv":
        "135d72d3d76d5fd77e84bda5ca33c561de8acdb4586f05386d4e54f787e3b16f",
    "toy/graphcon-tran-metrics.csv":
        "9c6468953224ff8483b7e113c7fd5984cb6d9b02cfc5ece1e7d35facf8c4bbb9",
    "toy/graphcon-tran.csv":
        "3e885f37b16d8e521ab69793b00f9dc6282fe6ac3233e22b9109f6b3fc364798",
    "train/history.csv":
        "946f16154c03f5e17da51999e4c30ca0038afd4270531d8d552c2c8f0c79577d",
    "train/history.svg":
        "76499e185866ce88a8219b46de6c24a5d116410a6c8062bb97e779625df86674",
    "train/weights.csv":
        "5ed97f175c1241c1e02abce0b88f50ede3baf910850a38357f32a06f8d0a053b",
}


def run_corpus(root):
    """Run :data:`CORPUS` in ``root``, the working directory, and return the
    SHA-256 of every output file."""
    (root / "sim-cfg.json").write_text(
        json.dumps({"kernel": "laplacian", "steps": 50, "dt": 0.02, "record_every": 5}))
    (root / "one.json").write_text(json.dumps({"n": 1, "edges": []}))
    save_matrix_csv(np.array([[0.3]]), root / "one.csv")
    (root / "specials.json").write_text(
        json.dumps({"n": len(SPECIALS), "edges": [[i, i, 1.0] for i in range(len(SPECIALS))]}))
    save_matrix_csv(SPECIALS, root / "specials.csv")
    save_matrix_csv(MIXED, root / "mixed.csv")
    inputs = {p.name for p in root.iterdir()}
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in CORPUS:
            assert main(argv) == 0, argv
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["bifurcation"]) == 0
    hashes = {"bif-stdout.csv": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in inputs:
            hashes[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return hashes


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The directory the corpus ran in, and the SHA-256 of every file it wrote."""
    root = tmp_path_factory.mktemp("corpus")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        return root, run_corpus(root)


def test_seeded_output_keeps_its_recorded_bytes(corpus):
    assert corpus[1] == HASHES


def test_every_chart_is_well_formed_xml(corpus, tmp_path):
    root, _ = corpus
    charts = sorted(root.rglob("*.svg"))
    assert [p.relative_to(root).as_posix() for p in charts] == sorted(
        name for name in HASHES if name.endswith(".svg"))
    # markup characters in a title and a series label are written as text
    title = 'a<b & "c"'
    assert main(["plot", "--in", str(root / "train/history.csv"), "--title", title,
                 "--out", str(tmp_path / "titled.svg")]) == 0
    write_chart(tmp_path / "labelled.svg", [Series("<&>", [0.0, 1.0], [1.0, 0.0])],
                x_label="x < 1", y_label="y & z")
    texts = []
    for path in [*charts, tmp_path / "titled.svg", tmp_path / "labelled.svg"]:
        texts += [t.text for t in ElementTree.parse(path).iter("{http://www.w3.org/2000/svg}text")]
    assert {title, "<&>", "x < 1", "y & z"} <= set(texts)
