"""Workload definitions and the benchmark's set-up step.

A workload is a panel of random networks: panel member ``i`` is the network
that ``relumorse gen --arch A --seed i`` writes, for ``i`` in ``range(draws)``.
A run with workload seed ``s`` mixes every weight of member ``i`` with
``MIX`` of fresh standard-normal noise drawn from ``(s, i)``:

    w = sqrt(1 - MIX**2) * w_panel + MIX * noise

so each draw is again a standard-normal network and no two seeds give the
same input, while the mix of outcomes (accepted, rejected early, rejected
after a full build) stays that of the panel.  A run of a few dozen seconds
holds only a handful of draws; drawing them afresh per seed would let the
outcome mix alone move every timing by far more than any bound.

Run as a script, this module performs one set-up and exits; the benchmark
times that child process to measure ``setup_s`` from process start.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
DEFAULT_SEED = 0
MIX = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    archs: tuple  # full dims (n0, ..., nm, 1); member i uses archs[i % len(archs)]
    draws: int


# Why each workload is here: see BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide2d", ((2, 8, 1),), 2),
        Workload("highdim", ((4, 7, 1),), 3),
        Workload("deep", ((2, 4, 3, 1), (2, 4, 4, 1), (3, 4, 3, 1)), 21),
    )
}


@dataclass(frozen=True)
class Draw:
    index: int
    arch: tuple
    weights: Path


def import_relumorse():
    """Import relumorse from this checkout's ``src``; SystemExit if absent."""
    if not (SRC / "relumorse" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no relumorse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relumorse

    if Path(relumorse.__file__).resolve().parent != SRC / "relumorse":
        raise SystemExit(f"perfbench: imported relumorse from {relumorse.__file__}, not {SRC}")
    return relumorse


def draw_network(workload: Workload, seed: int, index: int):
    import numpy as np
    from relumorse.network import AffineLayer, Architecture, ReluNetwork, random_network

    arch = workload.archs[index % len(workload.archs)]
    base = random_network(Architecture.from_full(arch), seed=index)
    rng = np.random.default_rng([seed, index])
    keep = math.sqrt(1.0 - MIX * MIX)

    def mix(layer):
        w = keep * layer.weights + MIX * rng.standard_normal(layer.weights.shape)
        b = keep * layer.bias + MIX * rng.standard_normal(layer.bias.shape)
        return AffineLayer(w, b)

    return arch, ReluNetwork(tuple(mix(layer) for layer in base.layers), mix(base.final))


def load_golden(workload: Workload, seed: int) -> dict:
    """Stored digests by draw index for ``seed``, or {} when none are stored."""
    with open(GOLDEN) as handle:
        stored = json.load(handle).get(workload.name, {})
    if stored.get("seed") != seed:
        return {}
    return {int(k): v for k, v in stored["draws"].items()}


def prepare(workload: Workload, seed: int, workdir: Path):
    """Write every draw's weight file and load the goldens: the set-up."""
    from relumorse.network import to_weight_dict

    weights_dir = workdir / "weights"
    weights_dir.mkdir(parents=True, exist_ok=True)
    draws = []
    for index in range(workload.draws):
        arch, net = draw_network(workload, seed, index)
        path = weights_dir / f"draw{index:03d}.json"
        path.write_text(json.dumps(to_weight_dict(net), indent=2) + "\n")
        draws.append(Draw(index, arch, path))
    return draws, load_golden(workload, seed)


if __name__ == "__main__":
    # Set-up probe: python3 workloads.py WORKLOAD SEED WORKDIR
    import_relumorse()
    prepare(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
