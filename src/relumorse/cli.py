"""Command-line surface: gen / build / classify / dgvf / render.

Exit codes: 0 on success, 1 for usage/IO/schema problems, 2 for structured
domain errors (which also emit machine-readable JSON on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

from . import complex as cpxmod
# is_acyclic stays bound here, where perfbench's tracer wraps it.
from .dgvf import build_dgvf, compactify, is_acyclic, local_check  # noqa: F401
from .errors import ArchitectureError, CyclicMatchingError, StructuredError
from .homology import betti, chain_complex, morse_complex, verify_relative_perfectness
from .network import (
    Architecture,
    from_weight_dict,
    net_b,
    random_network,
    signs_to_str,
    to_weight_dict,
)
from .orientation import analyze_shallow, classify_vertex
from .render import render_svg

FIXTURES = {"net-b": net_b}


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it; an
    OSError names ``path``, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".relumorse-")
        # mkstemp creates mode 0600; give the file the mode open(path, "w")
        # would: an existing file's, else 0666 less the umask.
        try:
            mode = os.stat(path).st_mode & 0o7777
        except FileNotFoundError:
            mask = os.umask(0)
            os.umask(mask)
            mode = 0o666 & ~mask
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def _emit(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _load_network(path: str):
    with open(path) as handle:
        return from_weight_dict(json.load(handle))


def _parse_arch(text: str) -> Architecture:
    try:
        return Architecture.from_full([part.strip() for part in text.split(",")])
    except (ArchitectureError, ValueError) as exc:  # ValueError: an entry that is no integer
        raise ValueError(f"--arch: {exc}") from None


def _parse_box(text: str):
    vals = [float(part) for part in text.split(",")]
    spans = [vals[2] - vals[0], vals[3] - vals[1]] if len(vals) == 4 else []
    # The spans too: a box of finite corners can be wider than the largest float.
    if len(vals) != 4 or not all(map(math.isfinite, vals + spans)) or min(spans) <= 0:
        raise ValueError("--render-box expects xmin,ymin,xmax,ymax")
    return (vals[0], vals[1]), (vals[2], vals[3])


def cmd_gen(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed: expected non-negative integer, got {args.seed}")
    if args.fixture:
        name = args.fixture.lower()
        if name not in FIXTURES:
            raise ValueError(f"unknown fixture {args.fixture!r}; known: {sorted(FIXTURES)}")
        net = FIXTURES[name]()
    elif args.arch:
        net = random_network(_parse_arch(args.arch), seed=args.seed)
    else:
        raise ValueError("gen needs --arch or --fixture")
    _emit(to_weight_dict(net), args.output)
    return 0


def cmd_build(args) -> int:
    net = _load_network(args.input)
    cpx = cpxmod.build_complex(net, sign_tol=args.sign_tol, lp_tol=args.lp_tol)
    _emit(cpx.export_dict(), args.output)
    return 0


def cmd_classify(args) -> int:
    net = _load_network(args.input)
    cpx = cpxmod.build_complex(net, sign_tol=args.sign_tol, lp_tol=args.lp_tol)
    vertices = []
    for signs in sorted(cpx.vertices):
        v = cpx.vertices[signs]
        cls = classify_vertex(cpx, v)
        record = {
            "vertex": signs_to_str(signs),
            "location": [float(x) for x in v.location],
            "value": float(v.value),
            "kind": cls.kind,
            "index": cls.index,
            "flow_axis": list(net.ij(cls.flow_axis)) if cls.flow_axis is not None else None,
        }
        vertices.append(record)
    report = {"vertices": vertices, "shallow": None}
    dims = net.arch.dims
    if len(dims) == 2 and dims[1] == dims[0] + 1:
        report["shallow"] = analyze_shallow(net, cpx).to_json_dict()
    _emit(report, args.output)
    return 0


def cmd_dgvf(args) -> int:
    if args.report not in (None, "-") and args.output != "-":
        out, rep = (os.path.split(os.path.abspath(p)) for p in (args.output, args.report))
        # _atomic_write replaces the named entry: one name in one directory,
        # perhaps reached through a symlink, is the only way to write twice.
        if out[1] == rep[1] and os.path.realpath(out[0]) == os.path.realpath(rep[0]):
            raise ValueError(f"--output and --report name the same file: {args.report}")
    net = _load_network(args.input)
    cpx = cpxmod.build_complex(net, sign_tol=args.sign_tol, lp_tol=args.lp_tol)
    matching = build_dgvf(cpx)
    cc = compactify(cpx)
    perfect = verify_relative_perfectness(cc, matching)
    full_betti = list(betti(chain_complex(cc)))
    try:  # morse_complex runs the one V-path search
        morse_betti = list(betti(morse_complex(cc, matching)))
    except CyclicMatchingError:
        morse_betti = None
    report = {
        "acyclic": morse_betti is not None,
        "relative_perfectness": perfect.to_json_dict(),
        "complex_betti": full_betti,
        "morse_betti": morse_betti,
        "betti_match": morse_betti == full_betti,
    }
    report["pass"] = bool(report["acyclic"] and perfect.passed and report["betti_match"])
    if args.local_check:
        mismatches = []
        lower_of = matching.lower_to_upper()
        upper_of = matching.upper_to_lower()
        # One stacked pass pairs every cell without the complex; the
        # assignments come in word order, so mismatches and errors do too.
        cells = sorted(cc.cells)
        for signs, assignment in zip(cells, local_check(net, cells, args.lp_tol)):
            if assignment.role == "critical":
                agree = signs in matching.critical
            elif assignment.role == "lower":
                agree = lower_of.get(signs) == assignment.partner
            else:
                agree = upper_of.get(signs) == assignment.partner
            if not agree:
                mismatches.append(signs_to_str(signs))
        report["local_check"] = {"pass": not mismatches, "mismatches": mismatches}
        report["pass"] = report["pass"] and not mismatches
    _emit(matching.to_json_dict(), args.output)
    _emit(report, args.report)
    return 0


def cmd_render(args) -> int:
    net = _load_network(args.input)
    cpx = cpxmod.build_complex(net, sign_tol=args.sign_tol, lp_tol=args.lp_tol)
    matching = None
    try:
        matching = build_dgvf(cpx)
    except StructuredError:
        pass  # draw the skeleton even when the Morse machinery is out of scope
    box = _parse_box(args.render_box) if args.render_box else None
    svg = render_svg(cpx, matching=matching, box=box)
    if args.output is None or args.output == "-":
        sys.stdout.write(svg)
    else:
        _atomic_write(args.output, svg)
    return 0


def _add_tolerances(sub) -> None:
    sub.add_argument("--sign-tol", type=float, default=1e-9,
                     help="relative tolerance under which two vertex values count"
                          " as equal, an injectivity error (default 1e-9)")
    sub.add_argument("--lp-tol", type=float, default=1e-7,
                     help="LP feasibility tolerance, in (0, 1); also sets the split band"
                          " (10x), the sample-point margin and the local oracle's"
                          " tightness test (default 1e-7)")


@functools.cache  # parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relumorse",
        description="Canonical polyhedral complexes and discrete Morse data for ReLU networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a weight file (random or fixture)")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--arch", help="comma-separated dims ending in 1, e.g. 2,3,1")
    source.add_argument("--fixture", help="named built-in network (net-b)")
    p.add_argument("--seed", type=int, default=0, help="random seed, >= 0 (default 0)")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="build the canonical polyhedral complex")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", default=None)
    _add_tolerances(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("classify", help="classify vertices as PL regular/critical")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", default=None)
    _add_tolerances(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dgvf", help="build and verify the discrete gradient vector field")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True, help="matching JSON destination")
    p.add_argument("--report", default=None, help="verification report destination (default stdout)")
    p.add_argument("--local-check", action="store_true",
                   help="cross-validate every cell against the local pairing oracle")
    _add_tolerances(p)
    p.set_defaults(func=cmd_dgvf)

    p = sub.add_parser("render", help="render a 2-D complex as SVG")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--render-box", default=None, help="xmin,ymin,xmax,ymax")
    _add_tolerances(p)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except StructuredError as exc:
        sys.stderr.write(json.dumps(exc.payload()) + "\n")
        return 2
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
