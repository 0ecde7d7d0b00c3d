"""Byte-identity sweep of the CLI over 224 cases.

Runs ``build``, ``classify``, ``dgvf --local-check`` and ``render`` on the
NET-B fixture, seeds 0-5 of (2,8,1), (2,4,1), (3,4,1), (3,6,1), (2,4,3,1),
(2,4,4,1) and (3,4,3,1), seeds 0-1 of (4,7,1), and seed 0 of (2,20,1),
(3,8,1) and (4,10,1), whose neuron steps split hundreds of regions and
whose top cells have many nonzero entries, (2,1,1) s1 and (2,1,3,1) s5,
whose renders draw vertex-free lines, the accepted two-layer nets
(2,8,8,1) s0, s12 and s13 and (2,12,12,1) s0, and the accepted
three-layer nets (2,6,6,6,1) s16 and s22: the only cases with more than
one parent table per layer and vertices whose zero sets span two layers,
and the last two the only ones built to a third.  Prints one
``net/command sha256`` line per case, hashed as in
``tests/test_golden_outputs.py``: exit code, stdout, stderr and output file.

Run it on two checkouts and diff the outputs; a refactor that means to keep
outputs byte-identical must print the same lines:

    python3 scripts/cli_sweep.py > after.txt
    diff before.txt after.txt
"""

import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden_outputs import COMMANDS, _run, digest  # noqa: E402

ARCHS = {
    "2,8,1": range(6),
    "2,4,1": range(6),
    "3,4,1": range(6),
    "3,6,1": range(6),
    "2,4,3,1": range(6),
    "2,4,4,1": range(6),
    "3,4,3,1": range(6),
    "4,7,1": range(2),
    "2,20,1": range(1),
    "3,8,1": range(1),
    "4,10,1": range(1),
    "2,1,1": range(1, 2),
    "2,1,3,1": range(5, 6),
    "2,8,8,1": (0, 12, 13),
    "2,12,12,1": range(1),
    "2,6,6,6,1": (16, 22),
}


def cases() -> dict:
    """{net name: gen arguments} of every swept network."""
    nets = {"net-b": ["--fixture", "net-b"]}
    for arch, seeds in ARCHS.items():
        for seed in seeds:
            name = f"{arch.replace(',', '-')}-s{seed}"
            nets[name] = ["--arch", arch, "--seed", str(seed)]
    return nets


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        for net, gen_args in cases().items():
            # digest() reuses a weight file that already exists.
            if _run(["gen", *gen_args, "-o", str(directory / f"{net}.json")])[0] != 0:
                raise SystemExit(f"gen failed for {net}")
            for command in sorted(COMMANDS):
                print(f"{net}/{command} {digest(net, command, directory)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
