"""ReLU network weights, evaluation and node maps.

A network is the data of hidden affine layers ``A_1 .. A_m`` followed by a
final affine map ``G`` to the reals; the associated function is

    F(x) = G(ReLU(A_m(... ReLU(A_1(x)) ...))).

On a cell with a fixed activation pattern every node map (pre-activation of
one neuron, as a function of the input) is affine; :func:`node_maps` stacks
those affine forms in sign-word order, masking rows whose pattern entry is
not +1, and :meth:`NodeMaps.f_affine` gives F's restricted gradient and
offset on the cells of one table.  A cell's affine data is its parent
cell's table: no other copy is kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArchitectureError, DimensionError

# A sign sequence: one entry in {-1, 0, +1} per hidden neuron, ordered by
# (layer, neuron) ascending.  Plain tuples so they hash and sort naturally
# (numeric order -1 < 0 < +1 is the lexicographic order used everywhere).
Signs = tuple

# Gradient norm, relative to max(1, |offset|), at or below which a node map
# counts as constant on a cell.
_ZERO_ROW = 1e-12
# The least integer magnitude that float() overflows on (it rounds to 2^1024).
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _dot(a, x):
    """Dot products along the last axis of two stacks, each rounded as a @ x."""
    return (a[..., None, :] @ x[..., :, None])[..., 0, 0]


def signs_to_str(signs: Signs) -> str:
    return "".join("+" if s > 0 else "-" if s < 0 else "0" for s in signs)


def signs_from_str(text: str) -> Signs:
    table = {"+": 1, "-": -1, "0": 0}
    try:
        return tuple(table[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"invalid sign character in {text!r}") from exc


@dataclass(frozen=True)
class Architecture:
    """Hidden-layer widths (n0, n1, ..., nm); the output dimension is 1."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ArchitectureError("architecture needs at least one hidden layer")
        if any(d < 1 for d in dims):
            raise ArchitectureError(f"architecture entries must be >= 1, got {dims}")

    @classmethod
    def from_full(cls, dims) -> "Architecture":
        """Parse the (n0, ..., nm, 1) form used by weight files and --arch."""
        dims = tuple(int(d) for d in dims)
        if len(dims) < 3 or dims[-1] != 1:
            raise ArchitectureError(
                f"expected (n0, ..., nm, 1) with at least one hidden layer, got {dims}"
            )
        return cls(dims[:-1])

    @property
    def n0(self) -> int:
        return self.dims[0]

    @property
    def hidden(self) -> tuple:
        return self.dims[1:]

    def full(self) -> tuple:
        return self.dims + (1,)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AffineLayer:
    """One affine map x -> W x + b."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = _freeze(self.weights)
        b = _freeze(self.bias)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ArchitectureError(
                f"inconsistent layer shapes: weights {w.shape}, bias {b.shape}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.weights @ x + self.bias


@dataclass(frozen=True)
class ReluNetwork:
    """Hidden layers A_1..A_m plus the final affine map G to the reals.

    Immutable after construction; all operations are pure.
    """

    layers: tuple
    final: AffineLayer

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ArchitectureError("at least one hidden layer is required")
        for a, b in zip(layers, layers[1:]):
            if b.in_dim != a.out_dim:
                raise ArchitectureError(
                    f"layer shapes do not chain: {a.out_dim} -> {b.in_dim}"
                )
        if self.final.in_dim != layers[-1].out_dim or self.final.out_dim != 1:
            raise ArchitectureError("final map must send the last hidden layer to R")
        # (layer, neuron) pairs in lexicographic order; position p in a sign
        # sequence corresponds to _layout[p].
        layout = tuple(
            (i + 1, j + 1)
            for i, layer in enumerate(layers)
            for j in range(layer.out_dim)
        )
        object.__setattr__(self, "_layout", layout)

    @property
    def arch(self) -> Architecture:
        return Architecture((self.n0,) + tuple(l.out_dim for l in self.layers))

    @property
    def n0(self) -> int:
        return self.layers[0].in_dim

    @property
    def m(self) -> int:
        return len(self.layers)

    @property
    def total_neurons(self) -> int:
        return len(self._layout)

    def ij(self, pos: int) -> tuple:
        return self._layout[pos]

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n0,):
            raise DimensionError(f"expected a point in R^{self.n0}, got shape {x.shape}")
        return x

    def evaluate(self, x) -> float:
        """F(x) = G(ReLU(A_m(... ReLU(A_1(x)) ...)))."""
        x = self._check_input(x)
        h = x
        for layer in self.layers:
            h = np.maximum(layer(h), 0.0)
        return float(self.final(h)[0])


@dataclass(frozen=True)
class NodeMaps:
    """Node maps as affine forms on one cell, stacked in sign-word order:
    node map p is ``rows[p] @ x + offsets[p]`` there."""

    rows: np.ndarray
    offsets: np.ndarray

    @cached_property
    def norms(self) -> np.ndarray:
        """Gradient norm of each row, of one table or a stack: by :func:`_dot`,
        which rounds as ``row.dot(row)`` does and a batched sum does not."""
        return np.sqrt(_dot(self.rows, self.rows))

    @cached_property
    def const(self) -> np.ndarray:
        """Rows whose node map is constant on the cell."""
        return self.norms <= _ZERO_ROW * np.maximum(1.0, np.abs(self.offsets))

    @cached_property
    def unit(self) -> tuple:
        """(rows, -offsets) divided by the row norms, so slacks are distances;
        constant rows keep scale 1."""
        scale = np.where(self.const, 1.0, self.norms)
        return self.rows / scale[..., None], -self.offsets / scale

    def __getitem__(self, i) -> "NodeMaps":
        """Table i of a stack of tables."""
        return NodeMaps(self.rows[i], self.offsets[i])

    def f_affine(self, final: AffineLayer, last_signs) -> tuple:
        """(gradients, offsets) of F on cells of this table, one per row of
        last-layer signs: the ``final`` map, its weights masked by the signs,
        applied to the last layer's node maps."""
        masked, n_m = final.weights * (np.asarray(last_signs) > 0), final.in_dim
        return masked @ self.rows[-n_m:], masked @ self.offsets[-n_m:] + final.bias


def node_maps(net: ReluNetwork, signs) -> NodeMaps:
    """Node maps of layers 1..k on the cell ``signs`` of layers 1..k-1.

    ``signs`` must end on a layer boundary; the maps of the next layer are
    affine on its cell too, so the table covers one layer more than the
    word.  Each layer masks the composite by its signs: rows whose pattern
    entry is -1 or 0 are zeroed (row selection realizes the ReLU).  A 2-D
    array of P words gives their tables stacked, rows (P, R, n0), by the
    same products broadcast: a word's table is the stack of one.
    """
    words = np.asarray(signs, dtype=float)
    act = (words if words.ndim == 2 else words[None]) > 0
    jac, bias = np.eye(net.n0) + np.zeros((len(act), 1, 1)), np.zeros((len(act), net.n0, 1))
    rows, offsets, used = [], [], 0
    for layer in net.layers:
        rows.append(layer.weights @ jac)
        offsets.append(layer.weights @ bias + layer.bias[:, None])
        if used == act.shape[1]:
            break
        active = act[:, used : used + layer.out_dim, None]
        jac, bias = rows[-1] * active, offsets[-1] * active
        used += layer.out_dim
    rows, offsets = np.concatenate(rows, axis=1), np.concatenate(offsets, axis=1)[..., 0]
    return NodeMaps(rows, offsets) if words.ndim == 2 else NodeMaps(rows[0], offsets[0])


def random_network(arch: Architecture, seed: int, scale: float = 1.0) -> ReluNetwork:
    """Gaussian-weight network, deterministic per seed.

    Weights and biases are i.i.d. standard normal times ``scale``; any
    continuous distribution makes the genericity conditions hold with
    probability one.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not isinstance(arch, Architecture):
        arch = Architecture(tuple(arch))
    rng = np.random.default_rng(seed)
    layers = []
    dims = arch.dims
    for n_in, n_out in zip(dims, dims[1:]):
        w = rng.standard_normal((n_out, n_in)) * scale
        b = rng.standard_normal(n_out) * scale
        layers.append(AffineLayer(w, b))
    w = rng.standard_normal((1, dims[-1])) * scale
    b = rng.standard_normal(1) * scale
    return ReluNetwork(tuple(layers), AffineLayer(w, b))


def net_b() -> ReluNetwork:
    """The NET-B fixture: F = ReLU(x) + 2 ReLU(y) + 4 ReLU(1 - x - y)."""
    return ReluNetwork(
        (AffineLayer([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.0, 0.0, 1.0]),),
        AffineLayer([[1.0, 2.0, 4.0]], [0.0]),
    )


def to_weight_dict(net: ReluNetwork) -> dict:
    """Weight-file form of a network (see the file schema in the README)."""
    return {
        "dims": list(net.arch.full()),
        "layers": [
            {"weights": layer.weights.tolist(), "bias": layer.bias.tolist()}
            for layer in net.layers
        ],
        "final": {
            "weights": net.final.weights.tolist(),
            "bias": net.final.bias.tolist(),
        },
    }


def from_weight_dict(data: dict) -> ReluNetwork:
    """Parse the weight-file schema, validating names, shapes and finiteness;
    every fault is a ValueError naming its field."""
    if not isinstance(data, dict):
        raise ValueError("weight file must be a JSON object")
    for key in ("dims", "layers", "final"):
        if key not in data:
            raise ValueError(f"weight file missing field {key!r}")
    if not isinstance(dims := data["dims"], list) or any(type(d) is not int for d in dims):
        raise ValueError(f"dims: expected a list of integers, got {dims!r}")
    try:
        arch = Architecture.from_full(dims)
    except ArchitectureError as exc:
        raise ValueError(f"dims: {exc}") from None
    if not isinstance(raw_layers := data["layers"], list):
        raise ValueError(f"layers: expected a list of layers, got {raw_layers!r}")
    if len(raw_layers) != len(arch.hidden):
        raise ValueError(
            f"expected {len(arch.hidden)} hidden layers, got {len(raw_layers)}"
        )
    named = [*((f"layer {k}", e) for k, e in enumerate(raw_layers, 1)), ("final", data["final"])]
    layers = []
    # Map k sends R^dims[k] to R^dims[k + 1], the final one to R.
    for (name, entry), expect in zip(named, zip(arch.full()[1:], arch.dims)):
        for key in ("weights", "bias"):
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(f"{name} missing field {key!r}")
        # The entries are JSON numbers (no bools or strings) in float range, in one pass.
        w, b = entry["weights"], entry["bias"]
        if not isinstance(w, list) or any(not isinstance(r, list) or len(r) != len(w[0]) for r in w):
            raise ValueError(f"{name} weights: expected a list of equal-length rows, got {w!r}")
        for key, values in (("weights", itertools.chain(*w)), ("bias", b if isinstance(b, list) else [b])):
            for x in values:
                if type(x) not in (int, float):
                    raise ValueError(f"{name} {key}: expected JSON numbers, got {x!r}")
                if type(x) is int and abs(x) >= _FLOAT_OVERFLOW:
                    raise ValueError(f"{name} {key}: integer too large for a float")
        try:
            layer = AffineLayer(entry["weights"], entry["bias"])
        except ArchitectureError as exc:
            raise ValueError(f"{name}: {exc}") from None
        if layer.weights.shape != expect:
            raise ValueError(f"{name} weights have shape {layer.weights.shape}, expected {expect}")
        if not (np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()):
            raise ValueError(f"{name} has a non-finite weight or bias")
        layers.append(layer)
    return ReluNetwork(tuple(layers[:-1]), layers[-1])
