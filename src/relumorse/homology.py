"""Mod-2 cellular homology: the independent oracle for the vector field.

A chain complex keeps, for each cell, its facets inside the complex.  Betti
numbers come from one column reduction over Z/2: a boundary column is a
Python-int bitset over the (k-1)-cells, and columns are reduced by their
highest set bit as in the standard persistence algorithm (Edelsbrunner,
Letscher & Zomorodian 2002), so adding one column to another is one XOR.
Relative perfectness assigns every compactified cell to its level block
(l', l] in one pass and takes the Betti numbers of each block's quotient
complex.  The Morse complex counts V-paths between critical cells mod 2.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .dgvf import BASEPOINT, CompactifiedComplex, Matching, is_acyclic
from .errors import CyclicMatchingError
from .network import signs_to_str


@dataclass(frozen=True)
class ChainComplex:
    """Cells per dimension plus each cell's facets inside the complex.

    A facet listed twice cancels mod 2; a vertex has no facets.
    """

    cells_by_dim: tuple  # tuple of tuples of cell keys
    facets: dict  # cell key -> tuple of facet keys


def _key_order(key):
    return (0,) if key == BASEPOINT else (1, key)


def _assemble(keys, dim_of, facets_of, max_dim) -> ChainComplex:
    selected = set(keys)
    by_dim = [[] for _ in range(max_dim + 1)]
    for key in keys:
        by_dim[dim_of(key)].append(key)
    for bucket in by_dim:
        bucket.sort(key=_key_order)
    facets = {key: tuple(f for f in facets_of(key) if f in selected) for key in keys}
    return ChainComplex(tuple(tuple(b) for b in by_dim), facets)


def chain_complex(cc: CompactifiedComplex) -> ChainComplex:
    """Every cell of the compactified complex, the basepoint included."""
    return _assemble(cc.sorted_keys(), cc.dim, cc.facets.__getitem__, cc.n0)


def betti(chain: ChainComplex) -> tuple:
    """Mod-2 Betti numbers: beta_k = #k-cells - rank d_k - rank d_(k+1)."""
    ranks = [0]
    for lower, cells in zip(chain.cells_by_dim, chain.cells_by_dim[1:]):
        row = {key: i for i, key in enumerate(lower)}
        pivots = {}  # highest set bit -> reduced column
        for key in cells:
            column = 0
            for f in chain.facets[key]:
                column ^= 1 << row[f]
            while column:
                top = column.bit_length() - 1
                if top not in pivots:
                    pivots[top] = column
                    break
                column ^= pivots[top]
        ranks.append(len(pivots))
    ranks.append(0)
    return tuple(
        len(cells) - ranks[k] - ranks[k + 1] for k, cells in enumerate(chain.cells_by_dim)
    )


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
    levels = cc.vertex_values
    blocks = [[] for _ in levels]
    counts = [[0] * (cc.n0 + 1) for _ in levels]
    for key in cc.cells:
        # levels[i - 1] < f_max <= levels[i]; a cell above the top level
        # belongs to no block.
        i = bisect_left(levels, cc.f_max[key])
        if i < len(levels):
            blocks[i].append(key)
            if key not in paired:
                counts[i][cc.dim(key)] += 1
    records = []
    for level, block, count in zip(levels, blocks, counts):
        expected = betti(_assemble(block, cc.dim, cc.facets.__getitem__, cc.n0))
        records.append(LevelRecord(level, expected, tuple(count), tuple(count) == expected))
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
        incidence[key] = tuple(t for t, c in acc.items() if c)

    return _assemble(keys, dim_of.__getitem__, lambda k: incidence.get(k, ()), cc.n0)
