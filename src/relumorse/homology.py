"""Mod-2 cellular homology: the independent oracle for the vector field.

Every mod-2 vector here is a Python-int bitset, so adding two is one XOR.
Betti numbers come from one column reduction over Z/2: a boundary column is
a bitset over the (k-1)-cells, reduced by its highest set bit as in the
standard persistence algorithm (Edelsbrunner, Letscher & Zomorodian 2002).
A listed facet outside the complex is left out, so the Betti numbers of a
level block (l', l] are those of its quotient complex, relative homology.
The Morse complex counts V-paths to the critical cells as bitsets over them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import xor

from .dgvf import BASEPOINT, CompactifiedComplex, Matching, is_acyclic
from .errors import CyclicMatchingError
from .network import signs_to_str


@dataclass(frozen=True)
class ChainComplex:
    """Cells per dimension plus a facet map.  A cell's boundary is the mod-2
    sum of its listed facets that are cells of the complex: one listed twice
    cancels, and one outside is left out, so a set of cells gives the
    quotient by the cells outside it.  A vertex has no facets."""

    cells_by_dim: tuple  # tuple of tuples of cell keys
    facets: dict  # cell key -> tuple of facet keys, possibly outside the complex


def _key_order(key):
    return (0,) if key == BASEPOINT else (1, key)


def _assemble(keys, dim_of, facets, max_dim) -> ChainComplex:
    by_dim = [[] for _ in range(max_dim + 1)]
    for key in keys:
        by_dim[dim_of(key)].append(key)
    return ChainComplex(tuple(tuple(sorted(b, key=_key_order)) for b in by_dim), facets)


def chain_complex(cc: CompactifiedComplex) -> ChainComplex:
    """Every cell of the compactified complex, the basepoint included."""
    return _assemble(cc.sorted_keys(), cc.dim, cc.facets, cc.n0)


def betti(chain: ChainComplex) -> tuple:
    """Mod-2 Betti numbers: beta_k = #k-cells - rank d_k - rank d_(k+1);
    ValueError where a listed facet is a cell of the complex of another dimension."""
    every, ranks = set().union(*chain.cells_by_dim), [0]
    for k, (lower, cells) in enumerate(zip(chain.cells_by_dim, chain.cells_by_dim[1:]), 1):
        row, pivots = {key: 1 << i for i, key in enumerate(lower)}, {}  # pivots: top bit -> column
        for key in cells:
            column = 0
            for f in chain.facets[key]:
                bit = row.get(f, 0)
                if bit:
                    column ^= bit
                elif f in every:
                    raise ValueError(f"facet {f!r} of the {k}-cell {key!r} is not a {k - 1}-cell")
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
        expected = betti(_assemble(block, cc.dim, cc.facets, cc.n0))
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
    # Critical cell i is bit i.  A lower cell's flow, its V-path counts mod 2,
    # is the XOR of its pair's other facets' flows; an upper cell's is 0.  The
    # stack is explicit for long paths, and acyclicity lets every walk settle.
    lower_of, keys = matching.lower_to_upper(), sorted(matching.critical_set(), key=_key_order)
    flows = {key: 1 << i for i, key in enumerate(keys)}
    stack = [f for key in keys for f in cc.facets[key]]
    while stack:
        key = stack[-1]
        if key in flows or key not in lower_of:
            flows.setdefault(stack.pop(), 0)
            continue
        steps = [f for f in cc.facets[lower_of[key]] if f != key]
        pending = [f for f in steps if f not in flows]
        stack.extend(pending)
        if not pending:
            flows[stack.pop()] = reduce(xor, [flows[f] for f in steps], 0)
    incidence = {key: _decode(keys, reduce(xor, [flows[f] for f in cc.facets[key]], 0)) for key in keys}
    return _assemble(keys, cc.dim, incidence, cc.n0)


def _decode(keys, flow: int) -> tuple:
    """The keys at the set bits of ``flow``, lowest first, found bit by bit."""
    out = []
    while flow:
        low = flow & -flow
        out.append(keys[low.bit_length() - 1])
        flow ^= low
    return tuple(out)
