"""Brute-force agreement of build on near-degenerate integer nets.

Builds ``tests/test_enumeration.py``'s ``_integer_net`` (integer weights in
[-2, 2] plus Gaussian noise) for the architectures below, noise 1e-6 to
1e-10 and seeds 0-39: 1,600 nets, whose hyperplanes and vertices nearly
coincide.  Each net's build outcome is compared with that test file's
brute force, which tries all 3^n_k sign words of each layer by LP, as
``test_split_enumeration_matches_brute_force`` does: the same cells,
vertex records and interior witnesses, or the same structured error.  A
built cell without an interior witness is a phantom and counts as a
disagreement.  Prints one line per net,

    arch seed noise agree|DIFFER outcome

and the total last.  Run it on two checkouts and diff the outputs:

    python3 scripts/degenerate_scan.py > after.txt
    diff before.txt after.txt
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from relumorse.errors import StructuredError  # noqa: E402
from test_enumeration import _integer_net, brute_force_outcome, split_outcome  # noqa: E402

ARCHS = ((2, 3), (2, 4), (2, 3, 2), (3, 4), (2, 4, 3), (3, 5), (2, 1, 3), (3, 2, 2))
NOISES = (1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
SEEDS = range(40)


def summary(outcome) -> str:
    if outcome[0] == "ok":
        return f"ok {len(outcome[1])} cells"
    return f"{outcome[2]['error']}: {outcome[2]['message']}"


def main() -> int:
    agree = total = 0
    for arch in ARCHS:
        for noise in NOISES:
            for seed in SEEDS:
                net = _integer_net(arch, seed, noise)
                try:
                    got = split_outcome(net)
                except StructuredError as exc:  # a built cell with no interior witness
                    got = ("phantom", None, {"error": "phantom", "message": str(exc)})
                same = got == brute_force_outcome(net)
                agree, total = agree + same, total + 1
                name = "x".join(map(str, arch))
                print(f"{name} s{seed} {noise:g} {'agree' if same else 'DIFFER'} {summary(got)}")
    print(f"agree {agree} of {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
