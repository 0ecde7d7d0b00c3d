"""Self-checks of the benchmark's tracing layer.

Run with ``python3 -m pytest perfbench/tests -q``.  The exact counts below
were measured on the unmodified pipeline; they pin what the counters mean
(one ``lp_solve`` per interior-witness LP during build, cells read off the
returned complex), so a change to the tracing that miscounts shows here.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402
import workloads  # noqa: E402

workloads.import_relumorse()

import relumorse  # noqa: E402
import relumorse.cli  # noqa: E402
from relumorse.network import Architecture, net_b, random_network, to_weight_dict  # noqa: E402


def traced_dgvf(tmp_path, net):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(to_weight_dict(net)))
    argv = ["dgvf", "-i", str(weights), "-o", str(tmp_path / "m.json"),
            "--report", str(tmp_path / "r.json"), "--local-check"]
    tracer = tracing.Tracer()
    with tracer, contextlib.redirect_stderr(io.StringIO()):
        code = relumorse.cli.main(argv)
    assert code == 0
    assert json.loads((tmp_path / "r.json").read_text())["pass"] is True
    return tracer


def cells(metrics):
    return [metrics[f"complex.cells.d{d}"] for d in range(tracing.MAX_CELL_DIM + 1)]


@pytest.mark.parametrize(
    "arch, build_lps, after_build_lps, n_cells",
    [((2, 8, 1), 3072, None, 129), ((4, 8, 1), 5984, 3127, 1697)],
)
def test_counts_on_seed_zero(tmp_path, arch, build_lps, after_build_lps, n_cells):
    tracer = traced_dgvf(tmp_path, random_network(Architecture.from_full(arch), seed=0))
    m = tracer.metrics()
    assert m["lp.lp_solve.calls.build"] == build_lps
    assert m["lp.interior_witness.calls"] == build_lps
    assert m["lp.lp_solve.calls.other"] == 0
    if after_build_lps is not None:
        after = sum(m[f"lp.lp_solve.calls.{s}"] for s in ("dgvf", "compactify", "local_pair"))
        assert after == after_build_lps
    assert sum(m[f"lp.lp_solve.calls.{s}"] for s in tracing.STAGE_NAMES) == m["lp.lp_solve.calls"]
    assert sum(cells(m)) == n_cells
    assert m["complex.build_complex.calls"] == 1
    assert m["cli.main.calls"] == 1
    # Self times partition the root span.
    roots = [s for s in tracer.spans if s[4] is None]
    assert len(roots) == 1 and roots[0][1] == "cli.main"
    total_self = sum(tracer.self_times().values())
    assert total_self == pytest.approx(roots[0][3] - roots[0][2], rel=1e-9)
    assert all(s[3] >= s[2] for s in tracer.spans)


def test_net_b_cell_counts(tmp_path):
    m = traced_dgvf(tmp_path, net_b()).metrics()
    # Three lines in general position: 3 vertices, 9 edges, 7 regions.
    assert cells(m) == [3, 9, 7, 0, 0]
    assert m["orientation.classify_vertex.calls"] == 3
    assert m["homology.relative_ranks.calls"] == 3  # one call per vertex level


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "relumorse" or name.startswith("relumorse.")):
            out.update({(name, k): v for k, v in vars(module).items()})
    cls = relumorse.complex.CanonicalComplex
    out.update({("CanonicalComplex", k): v for k, v in vars(cls).items()})
    return out


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        # lp_solve is bound in lp, complex and dgvf; all three are wrapped.
        wrapped = relumorse.lp.lp_solve
        assert wrapped is not before[("relumorse.lp", "lp_solve")]
        assert relumorse.complex.lp_solve is wrapped and relumorse.dgvf.lp_solve is wrapped
        assert relumorse.cli.is_acyclic is relumorse.homology.is_acyclic
        assert relumorse.cli.is_acyclic is not before[("relumorse.cli", "is_acyclic")]
        assert relumorse.dgvf.classify_vertex is not before[("relumorse.dgvf", "classify_vertex")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_callable_reads_zero(monkeypatch):
    monkeypatch.delattr(relumorse.homology, "betti")
    tracer = tracing.Tracer()
    with tracer:
        pass
    m = tracer.metrics()
    assert m["homology.betti.calls"] == 0 and m["homology.betti.self_s"] == 0.0
