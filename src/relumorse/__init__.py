"""relumorse: canonical polyhedral complexes and discrete Morse data for
fully-connected feed-forward ReLU networks.

The pipeline: build the cell poset of the network's canonical polyhedral
complex, classify its vertices as PL regular/critical via edge orientations,
construct a relatively perfect discrete gradient vector field on the
compactified bounded-above subcomplex, and verify the construction against
a mod-2 homology oracle.
"""

from .complex import (
    CanonicalComplex,
    Cell,
    VertexRecord,
    build_complex,
    compose_signs,
    is_face,
)
from .dgvf import (
    BASEPOINT,
    CompactifiedComplex,
    Matching,
    PairAssignment,
    build_dgvf,
    compactify,
    is_acyclic,
    local_pair,
    pair_lower_star,
)
from .errors import (
    ArchitectureError,
    CyclicMatchingError,
    DimensionError,
    FlatCellError,
    GenericityError,
    IncompletePairingError,
    InjectivityError,
    MissingEdgeError,
    SingularSystemError,
    StructuredError,
    UnboundedCellError,
)
from .homology import (
    ChainComplex,
    betti,
    chain_complex,
    morse_complex,
    verify_relative_perfectness,
)
from .lp import LpProblem, LpResult, lp_solve
from .network import (
    AffineLayer,
    Architecture,
    ReluNetwork,
    from_weight_dict,
    net_b,
    random_network,
    signs_from_str,
    signs_to_str,
    to_weight_dict,
)
from .orientation import (
    EdgeOrientation,
    ShallowReport,
    VertexClassification,
    analyze_shallow,
    classify_vertex,
    orient_edge,
    orientation_field,
)
from .render import render_svg

__version__ = "0.1.0"
