import dataclasses
import json
import os
import stat
import warnings
from collections import Counter

import numpy as np
import pytest

import relumorse.cli as cli_module
import relumorse.dgvf as dgvf_module
from relumorse import (
    AffineLayer,
    Architecture,
    Matching,
    ReluNetwork,
    build_complex,
    build_dgvf,
    compactify,
    from_weight_dict,
    net_b,
    random_network,
    render_svg,
    signs_from_str,
    to_weight_dict,
    verify_relative_perfectness,
)
from relumorse.cli import main
from relumorse.errors import DimensionError

from conftest import make_net_b_negated, scan_generic_nets


def run(args):
    return main(args)


def test_gen_fixture_and_build(tmp_path, capsys):
    weights = tmp_path / "w.json"
    output = tmp_path / "complex.json"
    assert run(["gen", "--fixture", "net-b", "-o", str(weights)]) == 0
    assert run(["build", "-i", str(weights), "-o", str(output)]) == 0
    data = json.loads(output.read_text())
    assert len(data["cells"]) == 19
    vertex = data["cells"]["+00"]
    assert vertex["dim"] == 0
    assert vertex["coordinates"] == [1.0, 0.0]
    assert vertex["value"] == 1.0
    assert data["cells"]["+++"]["bounded_above"] is True
    assert data["cells"]["-0+"]["bounded_above"] is False


def test_output_files_get_the_mode_open_would_give(tmp_path):
    # A new file gets 0666 less the umask, and an existing one keeps its mode.
    weights, kept = tmp_path / "w.json", tmp_path / "kept.json"
    kept.write_text("")
    kept.chmod(0o640)
    mask = os.umask(0o022)
    try:
        for path in (weights, kept):
            assert run(["gen", "--fixture", "net-b", "-o", str(path)]) == 0
    finally:
        os.umask(mask)
    assert stat.S_IMODE(weights.stat().st_mode) == 0o644
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640


def test_outputs_are_byte_deterministic(tmp_path):
    weights = tmp_path / "w.json"
    run(["gen", "--arch", "2,3,1", "--seed", "7", "-o", str(weights)])
    again = tmp_path / "w2.json"
    run(["gen", "--arch", "2,3,1", "--seed", "7", "-o", str(again)])
    assert weights.read_bytes() == again.read_bytes()

    first = tmp_path / "c1.json"
    second = tmp_path / "c2.json"
    fixture = tmp_path / "fx.json"
    run(["gen", "--fixture", "net-b", "-o", str(fixture)])
    run(["build", "-i", str(fixture), "-o", str(first)])
    run(["build", "-i", str(fixture), "-o", str(second)])
    assert first.read_bytes() == second.read_bytes()

    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    run(["render", "-i", str(fixture), "-o", str(svg1)])
    run(["render", "-i", str(fixture), "-o", str(svg2)])
    assert svg1.read_bytes() == svg2.read_bytes()


def test_gen_different_seeds_differ(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["gen", "--arch", "2,3,1", "--seed", "7", "-o", str(a)])
    run(["gen", "--arch", "2,3,1", "--seed", "8", "-o", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_classify_net_b(tmp_path):
    weights = tmp_path / "w.json"
    output = tmp_path / "cls.json"
    run(["gen", "--fixture", "net-b", "-o", str(weights)])
    assert run(["classify", "-i", str(weights), "-o", str(output)]) == 0
    data = json.loads(output.read_text())
    kinds = {v["vertex"]: (v["kind"], v["index"]) for v in data["vertices"]}
    assert kinds == {
        "00+": ("regular", None),
        "0+0": ("regular", None),
        "+00": ("critical", 0),
    }
    assert data["shallow"]["class"] == "all-away"
    assert data["shallow"]["critical"] == [{"vertex": "+00", "index": 0, "value": 1.0}]


def test_classify_negated(tmp_path):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps(to_weight_dict(make_net_b_negated())))
    output = tmp_path / "cls.json"
    assert run(["classify", "-i", str(weights), "-o", str(output)]) == 0
    data = json.loads(output.read_text())
    critical = [v for v in data["vertices"] if v["kind"] == "critical"]
    assert len(critical) == 1 and critical[0]["index"] == 2


def test_classify_random_net_has_wellformed_report(tmp_path):
    seed = scan_generic_nets((2, 4), 1)[0][0]
    weights = tmp_path / "w.json"
    output = tmp_path / "cls.json"
    run(["gen", "--arch", "2,4,1", "--seed", str(seed), "-o", str(weights)])
    assert run(["classify", "-i", str(weights), "-o", str(output)]) == 0
    data = json.loads(output.read_text())
    assert len(data["vertices"]) == 6  # C(4, 2) line crossings
    for record in data["vertices"]:
        assert record["kind"] in ("regular", "critical")
        if record["kind"] == "critical":
            assert 0 <= record["index"] <= 2
        else:
            assert record["index"] is None and record["flow_axis"] is not None
    assert data["shallow"] is None  # (2, 4, 1) is not an (n, n+1, 1) net


def test_classify_and_dgvf_outputs_deterministic(tmp_path):
    weights = tmp_path / "w.json"
    run(["gen", "--fixture", "net-b", "-o", str(weights)])
    outs = []
    for tag in ("1", "2"):
        cls = tmp_path / f"cls{tag}.json"
        m = tmp_path / f"m{tag}.json"
        r = tmp_path / f"r{tag}.json"
        run(["classify", "-i", str(weights), "-o", str(cls)])
        run(["dgvf", "-i", str(weights), "-o", str(m), "--report", str(r)])
        outs.append((cls.read_bytes(), m.read_bytes(), r.read_bytes()))
    assert outs[0] == outs[1]


def test_dgvf_command(tmp_path):
    weights = tmp_path / "w.json"
    matching = tmp_path / "m.json"
    report = tmp_path / "r.json"
    run(["gen", "--fixture", "net-b", "-o", str(weights)])
    code = run(
        ["dgvf", "-i", str(weights), "-o", str(matching), "--report", str(report), "--local-check"]
    )
    assert code == 0
    m = json.loads(matching.read_text())
    assert m == {
        "pairs": [["00+", "+0+"], ["0+0", "++0"], ["0++", "+++"]],
        "critical": ["+00"],
        "basepoint": True,
    }
    r = json.loads(report.read_text())
    assert r["acyclic"] is True
    assert r["relative_perfectness"]["pass"] is True
    assert len(r["relative_perfectness"]["levels"]) == 3
    assert r["betti_match"] is True
    assert r["local_check"] == {"pass": True, "mismatches": []}
    assert r["pass"] is True


def test_local_check_classifies_each_vertex_once(tmp_path, monkeypatch):
    # The check classifies the vertex cells in one stacked pass, each once.
    # Every cell's peak vertex is then among them and is certified without
    # an LP.
    classified, lps = [], []
    real_classify, real_lp = dgvf_module.classifications, dgvf_module.lp_solve
    monkeypatch.setattr(
        dgvf_module, "classifications", lambda vs, desc: classified.extend(vs) or real_classify(vs, desc)
    )
    monkeypatch.setattr(dgvf_module, "lp_solve", lambda *a, **k: lps.append(a) or real_lp(*a, **k))
    weights, matching, report = tmp_path / "w.json", tmp_path / "m.json", tmp_path / "r.json"
    run(["gen", "--arch", "2,8,1", "--seed", "0", "-o", str(weights)])
    code = run(
        ["dgvf", "-i", str(weights), "-o", str(matching), "--report", str(report), "--local-check"]
    )
    assert code == 0
    assert json.loads(report.read_text())["pass"] is True
    m = json.loads(matching.read_text())
    words = [w for pair in m["pairs"] for w in pair] + m["critical"]
    vertices = sorted(signs_from_str(w) for w in words if w.count("0") == 2)
    assert lps == [] and sorted(classified) == vertices and len(vertices) == 28


@pytest.mark.parametrize("arch", ["2,8,1", "4,7,1"])
def test_local_check_pays_per_vertex(tmp_path, monkeypatch, arch):
    # Inside the check, no cell builds its H-representation or solves an
    # LP, the points of all V vertices are solved in one stack of V
    # systems, and their edges in one stack of V * 2 * n0: no other solve.
    counts, solves, inside, words = Counter(), [], [], []
    real_solve = np.linalg.solve

    def solve(a, b):
        if inside:
            solves.append(np.shape(a))
        return real_solve(a, b)

    def spy(name):
        real = getattr(dgvf_module, name)
        monkeypatch.setattr(
            dgvf_module, name, lambda *a, **k: counts.update([name]) or real(*a, **k)
        )

    def inside_of(real):
        def call(*args, **kwargs):
            inside.append(True)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()

        return call

    for name in ("_hrep_for", "lp_solve"):
        spy(name)
    real_slopes = dgvf_module._edge_slopes
    monkeypatch.setattr(
        dgvf_module, "_edge_slopes", lambda net, w: words.append(list(w)) or real_slopes(net, w)
    )
    monkeypatch.setattr(cli_module, "local_check", inside_of(cli_module.local_check))
    monkeypatch.setattr(np.linalg, "solve", solve)
    weights, report = tmp_path / "w.json", tmp_path / "r.json"
    run(["gen", "--arch", arch, "--seed", "0", "-o", str(weights)])
    code = run(
        ["dgvf", "-i", str(weights), "-o", str(tmp_path / "m.json"), "--report", str(report),
         "--local-check"]
    )
    assert code == 0 and json.loads(report.read_text())["pass"] is True
    n0 = int(arch.split(",")[0])
    cpx = build_complex(cli_module._load_network(str(weights)))
    assert counts["_hrep_for"] == counts["lp_solve"] == 0 and words == [list(cpx.vertices)]
    assert solves == [(len(cpx.vertices), n0, n0), (len(cpx.vertices) * 2 * n0, n0, n0)]


def test_local_check_lists_mismatches_in_word_order(tmp_path, monkeypatch):
    # The oracle is forced to call 00+ and +++ critical.  The report lists
    # them in sign-word order, the order the check pairs cells in, though
    # "+++" sorts before "00+" as a string.
    real = cli_module.local_check
    forced = {signs_from_str("00+"), signs_from_str("+++")}

    def local_check(net, words, *args, **kwargs):
        got = real(net, words, *args, **kwargs)
        return [dataclasses.replace(a, role="critical", partner=None) if a.cell in forced else a for a in got]

    monkeypatch.setattr(cli_module, "local_check", local_check)
    weights, report = tmp_path / "w.json", tmp_path / "r.json"
    run(["gen", "--fixture", "net-b", "-o", str(weights)])
    code = run(
        ["dgvf", "-i", str(weights), "-o", str(tmp_path / "m.json"), "--report", str(report),
         "--local-check"]
    )
    assert code == 0
    r = json.loads(report.read_text())
    assert r["local_check"] == {"pass": False, "mismatches": ["00+", "+++"]}
    assert r["pass"] is False


def test_near_tie_net_b_passes_dgvf(tmp_path):
    # Final weights (1+1e-7, 1, 4): the vertices +00 and 0+0 take the values
    # 1.0000001 and 1.0, far apart at the 1e-9 injectivity tolerance.  The
    # edge ++0 between them peaks at the upper one.
    net = ReluNetwork(net_b().layers, AffineLayer([[1.0 + 1e-7, 1.0, 4.0]], [0.0]))
    cpx = build_complex(net)
    cc = compactify(cpx)
    assert cc.f_max[(1, 1, 0)] == 1.0000001
    assert verify_relative_perfectness(cc, build_dgvf(cpx)).passed

    weights = tmp_path / "w.json"
    report = tmp_path / "r.json"
    weights.write_text(json.dumps(to_weight_dict(net)))
    code = run(
        ["dgvf", "-i", str(weights), "-o", str(tmp_path / "m.json"),
         "--report", str(report), "--local-check"]
    )
    assert code == 0
    assert json.loads(report.read_text())["pass"] is True


def test_dgvf_corrupt_flag_fails_report(tmp_path, monkeypatch):
    # The matching loses its first pair before verification.
    def corrupted(cpx):
        matching = build_dgvf(cpx)
        return Matching(matching.pairs[1:], matching.critical)

    monkeypatch.setattr(cli_module, "build_dgvf", corrupted)
    weights = tmp_path / "w.json"
    report = tmp_path / "r.json"
    run(["gen", "--fixture", "net-b", "-o", str(weights)])
    code = run(
        ["dgvf", "-i", str(weights), "-o", str(tmp_path / "m.json"),
         "--report", str(report)]
    )
    assert code == 0
    r = json.loads(report.read_text())
    assert r["pass"] is False
    assert r["relative_perfectness"]["pass"] is False


def test_render_net_b(tmp_path):
    weights = tmp_path / "w.json"
    svg = tmp_path / "c.svg"
    run(["gen", "--fixture", "net-b", "-o", str(weights)])
    assert run(["render", "-i", str(weights), "-o", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<line") == 9
    assert text.count('stroke="#c03030"') == 1  # one critical vertex ring


def test_render_single_hyperplane(tmp_path):
    weights = tmp_path / "w.json"
    weights.write_text(
        json.dumps(
            {
                "dims": [2, 1, 1],
                "layers": [{"weights": [[1.0, 1.0]], "bias": [-1.0]}],
                "final": {"weights": [[2.0]], "bias": [0.5]},
            }
        )
    )
    svg = tmp_path / "c.svg"
    assert run(["render", "-i", str(weights), "-o", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<line") == 1
    assert text.count('stroke="#c03030"') == 0


def test_render_rejects_3d(tmp_path, capsys):
    weights = tmp_path / "w.json"
    run(["gen", "--arch", "3,4,1", "--seed", "0", "-o", str(weights)])
    code = run(["render", "-i", str(weights), "-o", str(tmp_path / "c.svg")])
    err = capsys.readouterr().err
    if code == 2:
        payload = json.loads(err)
        assert payload["error"] in ("dimension", "flat_cell", "genericity", "injectivity")
    else:
        pytest.fail(f"expected a structured error exit, got {code}")


def test_render_box_flag(tmp_path):
    weights = tmp_path / "w.json"
    run(["gen", "--fixture", "net-b", "-o", str(weights)])
    svg = tmp_path / "c.svg"
    assert run(["render", "-i", str(weights), "-o", str(svg),
                "--render-box=-3,-3,4,4"]) == 0
    assert svg.read_text().count("<line") == 9


@pytest.mark.parametrize("box", ["nan,0,1,1", "-inf,-1,1,1", "-1e308,-1e308,1e308,1e308"])
def test_render_box_must_be_finite(tmp_path, capsys, box):
    weights = tmp_path / "w.json"
    run(["gen", "--fixture", "net-b", "-o", str(weights)])
    svg = tmp_path / "c.svg"
    assert run(["render", "-i", str(weights), "-o", str(svg), f"--render-box={box}"]) == 1
    assert "--render-box expects" in capsys.readouterr().err
    assert not svg.exists()


def test_auto_sized_render_draws_every_line():
    # Without a vertex the default box is [-2, 2]^2; each vertex-free line
    # it misses widens it, so every 1-cell of these nets is drawn.  At seeds
    # 0-39, 17 of the 80 renders missed a line before the box was widened.
    for arch in ((2, 1, 1), (2, 1, 3, 1)):
        for seed in range(40):
            cpx = build_complex(random_network(Architecture.from_full(arch), seed=seed))
            ones = sum(c.dim == 1 for c in cpx.cells.values())
            assert render_svg(cpx).count("<line") == ones, (arch, seed)


def _edited(edit) -> str:
    """NET-B's weight file text after ``edit`` of its dict."""
    data = to_weight_dict(net_b())
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("{not json", "Expecting property name", id="not-json"),
        pytest.param(json.dumps({"dims": [2, 3, 1]}), "missing field 'layers'", id="missing-field"),
        pytest.param(None, "No such file", id="absent-file"),
        # The schema's faults: each a ValueError naming its field.
        pytest.param("[2, 3, 1]", "weight file must be a JSON object", id="non-object"),
        pytest.param(_edited(lambda d: d.update(dims=[2])), "dims: expected (n0, ...", id="short-dims"),
        pytest.param(
            _edited(lambda d: d["layers"].append(d["layers"][0])),
            "expected 1 hidden layers, got 2",
            id="layer-count",
        ),
        pytest.param(
            _edited(lambda d: d.update(dims=[2.7, 3, 1])),
            "dims: expected a list of integers, got [2.7, 3, 1]",
            id="float-dims",
        ),
        pytest.param(
            _edited(lambda d: d.update(dims=[2, 3, True])),
            "dims: expected a list of integers, got [2, 3, True]",
            id="bool-dims",
        ),
        pytest.param(
            _edited(lambda d: d.update(dims="231")),
            "dims: expected a list of integers, got '231'",
            id="string-dims",
        ),
        # Weights and biases are JSON numbers too, in lists of the schema's shape.
        pytest.param(
            _edited(lambda d: d["layers"][0]["bias"].__setitem__(0, True)),
            "layer 1 bias: expected JSON numbers, got True",
            id="bool-bias",
        ),
        pytest.param(
            _edited(lambda d: d["final"]["weights"][0].__setitem__(1, "0.5")),
            "final weights: expected JSON numbers, got '0.5'",
            id="string-weight",
        ),
        # An integer is a JSON number, but one past float range is no weight.
        pytest.param(
            _edited(lambda d: d["layers"][0]["bias"].__setitem__(0, 10**400)),
            "layer 1 bias: integer too large for a float",
            id="huge-int-bias",
        ),
        pytest.param(
            _edited(lambda d: d["final"]["weights"][0].__setitem__(0, -(2**1024 - 2**970))),
            "final weights: integer too large for a float",
            id="huge-int-weight",
        ),
        pytest.param(
            _edited(lambda d: d.update(layers=5)), "layers: expected a list of layers, got 5", id="int-layers"
        ),
        pytest.param(
            _edited(lambda d: d.update(layers={"a": 1})),
            "layers: expected a list of layers, got {'a': 1}",
            id="dict-layers",
        ),
        pytest.param(
            _edited(lambda d: d["layers"][0]["weights"][1].pop()),
            "layer 1 weights: expected a list of equal-length rows, got [[",
            id="ragged-weights",
        ),
        pytest.param(
            _edited(lambda d: d.update(dims=[3, 3, 1])),
            "layer 1 weights have shape (3, 2), expected (3, 3)",
            id="layer-shape",
        ),
        pytest.param(
            _edited(lambda d: d["layers"][0]["bias"].pop()),
            "layer 1: inconsistent layer shapes: weights (3, 2), bias (2,)",
            id="bias-rows",
        ),
        pytest.param(
            _edited(lambda d: d["final"]["weights"][0].pop()),
            "final weights have shape (1, 2), expected (1, 3)",
            id="final-shape",
        ),
        pytest.param(
            _edited(lambda d: d["layers"][0].pop("bias")),
            "layer 1 missing field 'bias'",
            id="missing-bias",
        ),
    ],
)
def test_malformed_input_exit_1(tmp_path, capsys, text, message):
    # Unreadable input and every weight-file schema fault exit 1 with one
    # "error:" line that names the fault, and write no output.
    weights, output = tmp_path / "w.json", tmp_path / "c.json"
    if text is not None:
        weights.write_text(text)
    assert run(["build", "-i", str(weights), "-o", str(output)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
    assert not output.exists()


@pytest.mark.parametrize(
    "command, weight",
    [("build", 1e154), ("build", 1e155), ("build", 1e200), ("build", 1e308), ("dgvf", 1e200), ("dgvf", 1e308)],
)
def test_overflowing_node_maps_exit_1(tmp_path, capsys, command, weight):
    # Layer 1's first weight of (2,1,1) s1 set so large that its row's norm
    # overflows a float past 1e154: the unit row would be zero and build
    # would find the one cell 0.  Build and dgvf report it instead: exit 1,
    # one "error:" line naming the layer, no numpy warning, no output.  At
    # 1e154 the norm is finite and the complex has its three cells.
    weights, output, report = tmp_path / "w.json", tmp_path / "out.json", tmp_path / "r.json"
    assert run(["gen", "--arch", "2,1,1", "--seed", "1", "-o", str(weights)]) == 0
    data = json.loads(weights.read_text())
    data["layers"][0]["weights"][0][0] = weight
    weights.write_text(json.dumps(data))
    capsys.readouterr()
    args = [command, "-i", str(weights), "-o", str(output)] + ["--report", str(report)] * (command == "dgvf")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(args)
    assert caught == []
    if weight == 1e154:
        assert code == 0 and capsys.readouterr().err == ""
        assert list(json.loads(output.read_text())["cells"]) == ["-", "0", "+"]
        return
    message = "error: layer 1: node maps overflow the float range; a weight or bias is too large\n"
    assert (code, capsys.readouterr().err) == (1, message)
    assert not output.exists() and not report.exists()


FINAL_OVERFLOW = "error: final map: F overflows the float range; a weight or bias is too large\n"


@pytest.mark.parametrize("command", ["build", "classify", "dgvf", "render"])
@pytest.mark.parametrize("weight", [1e100, 1e300])
def test_overflowing_final_map_exit_1(tmp_path, capsys, command, weight):
    # (2,1,1) s1 with layer 1's first weight at 1e10 keeps finite node maps,
    # but a final weight of 1e300 makes F's gradient overflow: every command
    # exits 1 with one "error:" line naming the final map, no numpy warning
    # and no output.  At 1e100 each command keeps its result, warning-free:
    # the three cells, and dgvf's flat_cell rejection of the vertex-free net.
    weights, output, report = tmp_path / "w.json", tmp_path / "out", tmp_path / "r.json"
    assert run(["gen", "--arch", "2,1,1", "--seed", "1", "-o", str(weights)]) == 0
    data = json.loads(weights.read_text())
    data["layers"][0]["weights"][0][0] = 1e10
    data["final"]["weights"][0][0] = weight
    weights.write_text(json.dumps(data))
    capsys.readouterr()
    args = [command, "-i", str(weights), "-o", str(output)] + ["--report", str(report)] * (command == "dgvf")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(args)
    assert caught == []
    err = capsys.readouterr().err
    if weight == 1e300:
        assert (code, err) == (1, FINAL_OVERFLOW)
        assert not output.exists() and not report.exists()
    elif command == "dgvf":
        assert code == 2 and json.loads(err)["error"] == "flat_cell"
    else:
        assert (code, err) == (0, "")
        if command == "build":
            assert list(json.loads(output.read_text())["cells"]) == ["-", "0", "+"]


@pytest.mark.parametrize("weight", [1e144, 1e145])
def test_final_map_overflow_on_a_vertex_net(tmp_path, capsys, weight):
    # (2,4,1) s1 with layer 1's first row times 1e10: up to 1e144 as its
    # first final weight, dgvf names the flat edge 0--+ without a warning;
    # past it F's bound overflows and build stops before the flat check
    # reads inf and NaN gradients (which named cell +--+ instead).
    weights, output, report = tmp_path / "w.json", tmp_path / "out.json", tmp_path / "r.json"
    assert run(["gen", "--arch", "2,4,1", "--seed", "1", "-o", str(weights)]) == 0
    data = json.loads(weights.read_text())
    data["layers"][0]["weights"][0] = [x * 1e10 for x in data["layers"][0]["weights"][0]]
    data["final"]["weights"][0][0] = weight
    weights.write_text(json.dumps(data))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["dgvf", "-i", str(weights), "-o", str(output), "--report", str(report)])
    assert caught == []
    err = capsys.readouterr().err
    if weight == 1e145:
        assert (code, err) == (1, FINAL_OVERFLOW)
        assert not output.exists() and not report.exists()
    else:
        assert code == 2 and json.loads(err) == {
            "error": "flat_cell", "message": "F is constant along edge 0--+; network out of scope"}


@pytest.mark.parametrize(
    "arch, message",
    [
        ("2", "--arch: expected (n0, ..., nm, 1) with at least one hidden layer, got (2,)"),
        ("2,0,1", "--arch: architecture entries must be >= 1, got (2, 0)"),
        ("2,x,1", "invalid literal for int()"),
        # An entry that is no integer is --arch's fault too.
        ("2,3.5,1", "error: --arch: invalid literal for int() with base 10: '3.5'"),
        ("2,,1", "error: --arch: invalid literal for int() with base 10: ''"),
        ("2,3,1,", "error: --arch: invalid literal for int() with base 10: ''"),
    ],
)
def test_malformed_arch_exit_1(tmp_path, capsys, arch, message):
    # A malformed --arch is a usage fault, like the weight file's dims:
    # gen exits 1 with one "error:" line that names it, and writes no file.
    output = tmp_path / "w.json"
    assert run(["gen", "--arch", arch, "-o", str(output)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
    assert not output.exists()


def test_unknown_fixture_exit_1(tmp_path, capsys):
    output = tmp_path / "w.json"
    assert run(["gen", "--fixture", "nope", "-o", str(output)]) == 1
    assert "error: unknown fixture 'nope'; known: ['net-b']" in capsys.readouterr().err
    assert not output.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--lp-tol", v) for v in ("-1", "inf", "0", "nan", "1", "2")]
    + [("--sign-tol", v) for v in ("-1", "nan", "inf")],
)
def test_broken_tolerance_exit_1(tmp_path, capsys, flag, value):
    weights = tmp_path / "w.json"
    run(["gen", "--fixture", "net-b", "-o", str(weights)])
    output = tmp_path / "c.json"
    assert run(["build", "-i", str(weights), "-o", str(output), f"{flag}={value}"]) == 1
    assert not output.exists()
    assert f"{flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, value, name",
    [
        (("layers", 0, "bias", 2), float("inf"), "layer 1"),
        (("layers", 0, "weights", 1, 0), float("nan"), "layer 1"),
        (("final", "bias", 0), float("-inf"), "final"),
    ],
)
def test_non_finite_weight_exit_1(tmp_path, capsys, entry, value, name):
    data = to_weight_dict(net_b())
    *path, last = entry
    target = data
    for key in path:
        target = target[key]
    target[last] = value
    with pytest.raises(ValueError, match=f"{name} has a non-finite weight or bias"):
        from_weight_dict(data)
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps(data))  # written as Infinity / NaN
    output = tmp_path / "c.json"
    assert run(["build", "-i", str(weights), "-o", str(output)]) == 1
    assert not output.exists()
    assert f"error: {name} has a non-finite weight or bias" in capsys.readouterr().err


def test_degenerate_net_exit_2(tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(
        json.dumps(
            {
                "dims": [2, 3, 1],
                "layers": [
                    {
                        "weights": [[1.0, 0.0], [1.0, 0.0], [-1.0, -1.0]],
                        "bias": [0.0, 0.0, 1.0],
                    }
                ],
                "final": {"weights": [[1.0, 2.0, 4.0]], "bias": [0.0]},
            }
        )
    )
    code = run(["build", "-i", str(weights), "-o", str(tmp_path / "c.json")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "genericity"


def test_vanishing_layer_one_map_exit_2(tmp_path, capsys):
    # Every region of layer 1 has a vanishing map, so none is split.
    weights = tmp_path / "w.json"
    net = ReluNetwork(
        (AffineLayer([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 0.1]),),
        AffineLayer([[1.0, 2.0, 4.0]], [0.0]),
    )
    weights.write_text(json.dumps(to_weight_dict(net)))
    output = tmp_path / "c.json"
    assert run(["build", "-i", str(weights), "-o", str(output)]) == 2
    assert not output.exists()
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "genericity"
    assert payload["message"] == "node map (1, 1) vanishes identically on a region"


def test_usage_error_exit_1():
    assert run(["gen"]) == 1  # neither --arch nor --fixture
    assert run(["unknown-command"]) == 1


def test_gen_arch_and_fixture_are_exclusive(tmp_path, capsys):
    output = tmp_path / "w.json"
    assert run(["gen", "--arch", "2,8,1", "--fixture", "net-b", "-o", str(output)]) == 1
    assert "argument --fixture: not allowed with argument --arch" in capsys.readouterr().err
    assert not output.exists()


def test_gen_negative_seed_names_the_flag(tmp_path, capsys):
    output = tmp_path / "w.json"
    assert run(["gen", "--arch", "2,8,1", "--seed", "-1", "-o", str(output)]) == 1
    assert capsys.readouterr().err == "error: --seed: expected non-negative integer, got -1\n"
    assert not output.exists()


def test_write_error_names_the_destination(tmp_path, capsys):
    # The output goes through a temporary file beside it; an OSError names
    # the path given, not that file, and leaves nothing behind.
    weights = tmp_path / "w.json"
    run(["gen", "--fixture", "net-b", "-o", str(weights)])
    capsys.readouterr()
    target = tmp_path / "missing_dir" / "m.json"
    assert run(["dgvf", "-i", str(weights), "-o", str(target)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    directory = tmp_path / "a_dir"
    directory.mkdir()
    assert run(["build", "-i", str(weights), "-o", str(directory)]) == 1
    assert capsys.readouterr().err.endswith(f": '{directory}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir", "w.json"]
    assert list(directory.iterdir()) == []


def test_dgvf_rejects_one_file_for_matching_and_report(tmp_path, capsys, monkeypatch):
    # Spellings of one path, through a symlinked directory too, are a usage
    # error before any work is done; "-" for both prints both.
    weights = tmp_path / "w.json"
    run(["gen", "--fixture", "net-b", "-o", str(weights)])
    (tmp_path / "link").symlink_to(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_module, "_load_network", lambda path: pytest.fail("loaded"))
    for report in ("x.json", "./x.json", str(tmp_path / "x.json"), "link/x.json"):
        assert run(["dgvf", "-i", "w.json", "-o", "x.json", "--report", report]) == 1
        assert "error: --output and --report name the same file" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
    monkeypatch.undo()
    assert run(["dgvf", "-i", str(weights), "-o", "-", "--report", "-"]) == 0
    out = capsys.readouterr().out
    assert '"pairs"' in out and '"pass": true' in out


def test_full_pipeline_on_random_3d_net(tmp_path):
    # First (3,4,1) seed that builds also passes dgvf verification end to end.
    seed = scan_generic_nets((3, 4), 1)[0][0]
    weights = tmp_path / "w.json"
    report = tmp_path / "r.json"
    run(["gen", "--arch", "3,4,1", "--seed", str(seed), "-o", str(weights)])
    code = run(["dgvf", "-i", str(weights), "-o", str(tmp_path / "m.json"),
                "--report", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["pass"] is True


def test_render_svg_direct_dimension_error():
    cpx = build_complex(
        from_weight_dict(to_weight_dict(net_b()))
    )
    assert cpx.n0 == 2
    for seed, net, cpx3 in scan_generic_nets((3, 4), 1):
        with pytest.raises(DimensionError):
            render_svg(cpx3)
