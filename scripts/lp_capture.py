"""Capture of every LP the CLI solves, for diffing two checkouts.

Wraps every binding of ``relumorse.lp.lp_solve`` in the loaded
``relumorse*`` modules, then runs ``build``, ``classify``,
``dgvf --local-check`` and ``render`` on the networks of
``scripts/cli_sweep.py`` and on the ``NEAR_DEGENERATE`` integer nets of
``tests/test_enumeration.py``.  Prints one line per case,

    net/command build_count build_digest later_count later_digest
        build_solved later_solved

(on one line) the LPs solved under ``complex._enumerate_cells`` (build's
cell enumeration) apart from every later one: per part, the number of LPs
and a sha256 over each LP's problem arrays (shape and bytes), ``feas_tol``,
and its result's status, value, argmax bytes and tight set.  The last two
fields hash, per part, only the problem arrays, ``feas_tol``, status and
tight set, which a change of solver keeps wherever the optimum is a single
vertex.

Run it on two checkouts and diff the outputs; a change that means to keep
every LP as it was must print the same lines, one that changes only how
build enumerates cells the same case, later count and later digest, and
one that changes only the solver the same case and last two fields:

    python3 scripts/lp_capture.py > after.txt
    diff before.txt after.txt
    diff <(cut -d' ' -f1,4,5 before.txt) <(cut -d' ' -f1,4,5 after.txt)
    diff <(cut -d' ' -f1,6,7 before.txt) <(cut -d' ' -f1,6,7 after.txt)
"""

import hashlib
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts")]

import relumorse.complex as complex_module  # noqa: E402
import relumorse.lp as lp_module  # noqa: E402
from cli_sweep import cases  # noqa: E402
from relumorse import to_weight_dict  # noqa: E402
from test_enumeration import NEAR_DEGENERATE, _integer_net  # noqa: E402
from test_golden_outputs import COMMANDS, _run  # noqa: E402


class Capture:
    """Counts and hashes every lp_solve call while installed, those made
    under cell enumeration (``building``) apart from the rest."""

    def __init__(self):
        self.building = False
        self.reset()

    def reset(self):
        self.counts = [0, 0]
        self.hashes = [hashlib.sha256(), hashlib.sha256()]
        self.solved = [hashlib.sha256(), hashlib.sha256()]

    def line(self) -> str:
        parts = [f"{c} {h.hexdigest()}" for c, h in zip(self.counts, self.hashes)]
        return " ".join(parts + [h.hexdigest() for h in self.solved])

    def _feed(self, digests, *items):
        for item in items:
            if hasattr(item, "tobytes"):
                data = repr(item.shape).encode() + item.tobytes()
            else:
                data = repr(item).encode()
            for digest in digests:
                digest.update(data + b"|")

    def wrap(self, solve):
        def spy(problem, feas_tol=lp_module.FEAS_TOL):
            part = int(not self.building)
            self.counts[part] += 1
            res = solve(problem, feas_tol=feas_tol)
            full, solved = self.hashes[part], self.solved[part]
            arrays = (problem.objective, problem.a_eq, problem.b_eq, problem.a_ge, problem.b_ge)
            self._feed((full, solved), *arrays, float(feas_tol), res.status)
            self._feed((full,), res.value, res.x)
            self._feed((full, solved), tuple(res.tight))
            return res

        return spy

    def enumeration(self, enumerate_cells):
        def spy(*args, **kwargs):
            self.building = True
            try:
                return enumerate_cells(*args, **kwargs)
            finally:
                self.building = False

        return spy


def install(capture) -> None:
    """Replace every relumorse* binding of lp_solve by one spy, and flag
    the calls made while cell enumeration runs."""
    complex_module._enumerate_cells = capture.enumeration(complex_module._enumerate_cells)
    real = lp_module.lp_solve
    spy = capture.wrap(real)
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "relumorse" or name.startswith("relumorse.")):
            if getattr(module, "lp_solve", None) is real:
                module.lp_solve = spy


def main() -> int:
    capture = Capture()
    install(capture)
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        weights = {}
        for net, gen_args in cases().items():
            path = weights[net] = directory / f"{net}.json"
            if _run(["gen", *gen_args, "-o", str(path)])[0] != 0:
                raise SystemExit(f"gen failed for {net}")
        for arch, seed, noise in NEAR_DEGENERATE:
            net = f"int-{'-'.join(map(str, arch))}-s{seed}-n{noise:g}"
            path = weights[net] = directory / f"{net}.json"
            path.write_text(json.dumps(to_weight_dict(_integer_net(arch, seed, noise))))
        for net, path in weights.items():
            for command in sorted(COMMANDS):
                capture.reset()
                target = directory / f"{net}.{command}.out"
                _run([*COMMANDS[command], "-i", str(path), "-o", str(target)])
                print(f"{net}/{command} {capture.line()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
