"""Paired timing of two checkouts on the draws of a benchmark workload, or
on one random network.

    python3 scripts/ab_time.py OLD_SRC NEW_SRC --workload deep --seed 0 --rounds 15
    python3 scripts/ab_time.py OLD_SRC NEW_SRC --arch 2,100,1 --seed 0 --rounds 3

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Both
``relumorse`` packages are imported into this one process, under the names
``relumorse_old`` and ``relumorse_new`` (the package imports itself only by
relative imports, so each copy keeps to its own modules).  The draws are
those of ``perfbench/workloads.py`` in this script's checkout, or with
``--arch`` the one network that ``relumorse gen --arch A --seed S`` writes,
written once as weight files.  Each round runs every draw through both checkouts'
``cli.main(["dgvf", ..., "--local-check"])``, as the benchmark does,
alternating which goes first, and records the new/old ratio of the pair.
Prints one line per draw, with its outcome, both median times and the median
ratio, and the median ratio over all draws last; exits 1 if the two
checkouts' exit codes or output bytes differ on a draw.

Two processes on a shared host can drift apart in speed by far more than a
change of 5-10% in one class of draws; pairs timed back to back in one
process drift together.
"""

import argparse
import contextlib
import importlib.util
import io
import os
import pathlib
import statistics
import sys
import tempfile
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(name: str, src: pathlib.Path):
    """Import ``src/relumorse`` as the package ``name``."""
    init = src / "relumorse" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_time: no relumorse package under {src}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run(cli, weights: pathlib.Path, out: pathlib.Path) -> tuple:
    """(seconds, exit code, output bytes) of one ``dgvf --local-check`` call."""
    matching, report = out / "matching.json", out / "report.json"
    for path in (matching, report):
        path.unlink(missing_ok=True)
    argv = ["dgvf", "-i", str(weights), "-o", str(matching), "--report", str(report), "--local-check"]
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    files = b"".join(p.read_bytes() for p in (matching, report) if p.exists())
    return seconds, code, err.getvalue().encode() + files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=pathlib.Path)
    parser.add_argument("new_src", type=pathlib.Path)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload")
    source.add_argument("--arch", help="comma-separated dims ending in 1, e.g. 2,100,1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()

    old, new = load("relumorse_old", args.old_src.resolve()), load("relumorse_new", args.new_src.resolve())
    # workloads.py builds its draws with ``relumorse``: the new checkout's.
    sys.modules["relumorse"] = sys.modules["relumorse_new"]
    for sub in ("network", "errors"):
        sys.modules[f"relumorse.{sub}"] = sys.modules[f"relumorse_new.{sub}"]
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    import workloads

    if args.workload and args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"ab_time: unknown workload {args.workload!r}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        if args.workload:
            draws, _ = workloads.prepare(workloads.WORKLOADS[args.workload], args.seed, tmp)
        else:
            weights = tmp / "net.json"
            if new.main(["gen", "--arch", args.arch, "--seed", str(args.seed), "-o", str(weights)]):
                raise SystemExit(f"ab_time: cannot generate --arch {args.arch!r}")
            arch = tuple(int(d) for d in args.arch.split(","))
            draws = [workloads.Draw(args.seed, arch, weights)]
        times = {d.index: ([], []) for d in draws}
        outcome, differ = {}, []
        for k in range(args.rounds + 1):  # round 0 warms both up and is not counted
            for draw in draws:
                pair = [(0, old), (1, new)] if (k + draw.index) % 2 else [(1, new), (0, old)]
                got = {side: run(cli, draw.weights, tmp) for side, cli in pair}
                if got[0][1:] != got[1][1:]:
                    differ.append(draw.index)
                outcome[draw.index] = got[1][1]
                for side in (0, 1):
                    if k:
                        times[draw.index][side].append(got[side][0])
        ratios = []
        print("draw arch exit old_ms new_ms new/old")
        for draw in draws:
            t_old, t_new = times[draw.index]
            ratio = statistics.median(b / a for a, b in zip(t_old, t_new))
            ratios.append(ratio)
            arch = ",".join(map(str, draw.arch))
            print(f"{draw.index} {arch} {outcome[draw.index]} {1e3 * statistics.median(t_old):.2f}"
                  f" {1e3 * statistics.median(t_new):.2f} {ratio:.3f}")
        print(f"median new/old over {len(draws)} draws: {statistics.median(ratios):.3f}")
    if differ:
        print(f"outputs differ on draws {sorted(set(differ))}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
