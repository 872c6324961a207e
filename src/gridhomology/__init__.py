"""Exact homology toolkit for independence and matching complexes of
grid-family graphs.

Builds the graph families (grids, their line graphs, the delta family of an
e-spine with parallel f-rows), constructs independence and matching
complexes, computes reduced integral homology through sparse Smith normal
form, applies homotopy-preserving fold reductions, validates wedge-split
certificates, and checks everything against a symbolic wedge-of-spheres
recursion. See the ``gridhomology`` CLI for the verification front end.
"""

from .labels import E, F, EdgeOfGrid, GridNode, Raw, VertexLabel, parse_label
from .graphs import (
    Graph,
    NamedSubgraphKind,
    closed_neighborhood,
    delete_vertices,
    delta_graph,
    edge_label,
    find_isomorphism,
    grid_graph,
    is_isomorphic,
    line_graph,
    named_subgraph,
)
from .complexes import (
    DEFAULT_MAX_FACES,
    ComplexSizeError,
    SimplicialComplex,
    equals_complex,
    independence_complex,
    matching_complex,
)
from .homology import (
    DEFAULT_MAX_MATRIX,
    HomologyResult,
    MatrixSizeError,
    SnfResult,
    SparseIntMatrix,
    boundary_matrix,
    reduced_euler_characteristic,
    reduced_homology,
    smith_normal_form,
)
from .folds import (
    CONTRACTIBLE,
    CertificateError,
    FoldStep,
    IsolatedVertexHalt,
    PivotMissingError,
    ReductionTrace,
    SplitCertificate,
    StarConditionFailedError,
    VerifiedSplit,
    ZigzagMove,
    ZigzagMoveInvalidError,
    check_split,
    find_fold,
    fold_reduce,
    split_certificate_x,
    split_certificate_y,
)
from .spheres import (
    WedgeDescriptor,
    descriptor_betti,
    descriptor_euler,
    predict,
    suspend,
    wedge,
)

__version__ = "0.1.0"
