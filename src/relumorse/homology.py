"""Mod-2 cellular homology: the independent oracle for the vector field.

Chain complexes are assembled from the compactified facet lists, sublevel
complexes by filtering on per-cell maxima, and ranks by plain Gaussian
elimination over Z/2 (the complexes here have at most a few hundred cells).
The Morse complex counts V-paths between critical cells mod 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dgvf import BASEPOINT, CompactifiedComplex, Matching, is_acyclic
from .errors import CyclicMatchingError
from .network import signs_to_str


@dataclass(frozen=True)
class ChainComplex:
    """Cells per dimension plus mod-2 boundary matrices.

    ``boundary[k]`` has shape (#cells of dim k-1, #cells of dim k); the
    dim-0 boundary is the empty matrix.
    """

    cells_by_dim: tuple  # tuple of tuples of cell keys
    boundary: tuple  # tuple of uint8 arrays

    def dims(self) -> int:
        return len(self.cells_by_dim)


def _key_order(key):
    return (0,) if key == BASEPOINT else (1, key)


def _assemble(keys, dim_of, facets_of, max_dim) -> ChainComplex:
    selected = set(keys)
    by_dim = [[] for _ in range(max_dim + 1)]
    for key in keys:
        by_dim[dim_of(key)].append(key)
    for bucket in by_dim:
        bucket.sort(key=_key_order)
    index = [
        {key: i for i, key in enumerate(bucket)} for bucket in by_dim
    ]
    boundary = [np.zeros((0, len(by_dim[0])), dtype=np.uint8)]
    for k in range(1, max_dim + 1):
        mat = np.zeros((len(by_dim[k - 1]), len(by_dim[k])), dtype=np.uint8)
        for j, key in enumerate(by_dim[k]):
            for f in facets_of(key):
                if f in selected:
                    mat[index[k - 1][f], j] ^= 1
        boundary.append(mat)
    return ChainComplex(tuple(tuple(b) for b in by_dim), tuple(boundary))


def chain_complex(cc: CompactifiedComplex, level: float | None = None) -> ChainComplex:
    """Cells of the compactified complex with f_max <= level (all if None).

    The basepoint (value -inf) is always included.
    """
    cutoff = float("inf") if level is None else level
    keys = [k for k in cc.sorted_keys() if cc.f_max[k] <= cutoff]
    return _assemble(keys, cc.dim, lambda k: cc.facets[k], cc.n0)


def _rank_mod2(mat: np.ndarray) -> int:
    """Rank over GF(2) by row reduction on a uint8 copy."""
    m = mat.copy()
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        pivot = -1
        for r in range(rank, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot < 0:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        hits = np.nonzero(m[:, col])[0]
        for r in hits:
            if r != rank:
                m[r, :] ^= m[rank, :]
        rank += 1
        if rank == rows:
            break
    return rank


def betti(chain: ChainComplex) -> tuple:
    """Mod-2 Betti numbers: beta_k = dim ker d_k - rank d_(k+1)."""
    ranks = [_rank_mod2(b) for b in chain.boundary]
    out = []
    for k, bucket in enumerate(chain.cells_by_dim):
        kernel = len(bucket) - ranks[k]
        image = ranks[k + 1] if k + 1 < len(ranks) else 0
        out.append(kernel - image)
    return tuple(out)


def relative_ranks(cc: CompactifiedComplex, level: float, prev_level: float) -> tuple:
    """Ranks of H_*(C_level, C_prev) over Z/2 via the quotient complex."""
    keys = [
        k for k in cc.sorted_keys() if prev_level < cc.f_max[k] <= level
    ]
    chain = _assemble(keys, cc.dim, lambda k: cc.facets[k], cc.n0)
    return betti(chain)


@dataclass(frozen=True)
class LevelRecord:
    level: float
    expected: tuple
    critical_counts: tuple
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "expected": list(self.expected),
            "critical_counts": list(self.critical_counts),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class PerfectnessReport:
    levels: tuple
    passed: bool

    def to_json_dict(self) -> dict:
        return {"levels": [r.to_json_dict() for r in self.levels], "pass": self.passed}


def verify_relative_perfectness(cc: CompactifiedComplex, matching: Matching) -> PerfectnessReport:
    """Compare critical-cell counts with relative homology at every level.

    At each vertex value l (with predecessor l'), the number of critical
    i-cells whose maximum lies in (l', l] must equal
    rk H_i(C_l, C_l') over Z/2.  The critical inventory is derived from the
    pairs (a cell is critical iff unpaired), so corrupted pairings surface
    as level mismatches.  The basepoint sits at -inf and is never counted.
    """
    paired = {s for pair in matching.pairs for s in pair}
    crit = [
        (cc.f_max[c], cc.dim(c)) for c in cc.cells if c not in paired
    ]
    records = []
    prev = float("-inf")
    for level in cc.vertex_values:
        counts = [0] * (cc.n0 + 1)
        for value, dim in crit:
            if prev < value <= level:
                counts[dim] += 1
        expected = relative_ranks(cc, level, prev)
        records.append(
            LevelRecord(level, tuple(expected), tuple(counts), tuple(counts) == tuple(expected))
        )
        prev = level
    return PerfectnessReport(tuple(records), all(r.passed for r in records))


def morse_complex(cc: CompactifiedComplex, matching: Matching) -> ChainComplex:
    """Chain complex on the critical cells; boundary entries count V-paths
    from facets of a critical cell down to critical cells, mod 2."""
    ok, witness = is_acyclic(matching, cc)
    if not ok:
        raise CyclicMatchingError(
            "matching has a closed V-path through "
            + ", ".join(k if k == BASEPOINT else signs_to_str(k) for k in witness)
        )
    lower_of = matching.lower_to_upper()
    critical = matching.critical_set()
    memo = {}

    def flow(start):
        """Critical-cell path counts (mod 2) reachable from one facet.

        Depth-first over V-path steps with an explicit stack, so long paths
        cannot exhaust the interpreter's recursion limit.  A key is settled
        once every next step is, which the acyclic matching guarantees.
        """
        stack = [start]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            if key in critical:
                memo[key] = {key: 1}
            elif key in lower_of:
                steps = [f for f in cc.facets[lower_of[key]] if f != key]
                pending = [f for f in steps if f not in memo]
                if pending:
                    stack.extend(reversed(pending))
                    continue
                acc = {}
                for f in steps:
                    for target, count in memo[f].items():
                        acc[target] = (acc.get(target, 0) + count) % 2
                memo[key] = {t: c for t, c in acc.items() if c}
            else:
                memo[key] = {}  # upper member of a pair: a V-path cannot continue
            stack.pop()
        return memo[start]

    keys = sorted(critical, key=_key_order)
    dim_of = {k: cc.dim(k) for k in keys}
    incidence = {}
    for key in keys:
        if dim_of[key] == 0:
            continue
        acc = {}
        facet_list = cc.facets[key] if key != BASEPOINT else ()
        for f in facet_list:
            for target, count in flow(f).items():
                acc[target] = (acc.get(target, 0) + count) % 2
        incidence[key] = {t for t, c in acc.items() if c}

    return _assemble(
        keys,
        lambda k: dim_of[k],
        lambda k: sorted(incidence.get(k, ()), key=_key_order),
        cc.n0,
    )
