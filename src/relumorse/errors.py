"""Structured error types shared across the package.

Every domain failure that a caller might want to dispatch on carries a
machine-readable ``kind``.  The CLI maps any :class:`StructuredError` to
exit code 2 and prints ``{"error": kind, "message": ...}`` on stderr.
"""


class StructuredError(Exception):
    """Base class for domain errors (as opposed to usage/IO errors)."""

    kind = "error"

    def payload(self) -> dict:
        return {"error": self.kind, "message": str(self)}


class GenericityError(StructuredError):
    """Supertransversality/genericity violated: a sign pattern with more than
    n0 zeros is feasible, or the zero-set equations of a cell are dependent."""

    kind = "genericity"


class InjectivityError(StructuredError):
    """Two vertices of the complex share a function value within tolerance."""

    kind = "injectivity"


class FlatCellError(StructuredError):
    """The network is constant on a positive-dimensional cell; such networks
    are out of scope for the Morse machinery."""

    kind = "flat_cell"


class SingularSystemError(StructuredError):
    """A vertex/edge linear system is singular (signals a non-generic net)."""

    kind = "singular_system"


class MissingEdgeError(StructuredError):
    """An expected incident cell is absent from the complex (construction bug
    or non-generic input)."""

    kind = "missing_edge"


class IncompletePairingError(StructuredError):
    """A lower-star pairing left cells unpaired (classification bug)."""

    kind = "incomplete_pairing"


class CyclicMatchingError(StructuredError):
    """A discrete vector field contains a closed V-path."""

    kind = "cyclic_matching"


class UnboundedCellError(StructuredError):
    """The function is unbounded above on a cell that was expected to be
    bounded above."""

    kind = "unbounded_cell"


class ArchitectureError(StructuredError):
    """Invalid or unexpected network architecture."""

    kind = "architecture"


class DimensionError(StructuredError):
    """Input has the wrong dimension for the requested operation."""

    kind = "dimension"
