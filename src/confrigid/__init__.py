"""confrigid: decide and certify conformal rigidity of finite graphs.

A connected graph is conformally rigid when the uniform edge weights are
simultaneously a maximizer of the algebraic connectivity lambda_2 and a
minimizer of the largest Laplacian eigenvalue lambda_n over all nonnegative
edge weightings with the same total.  The library certifies rigidity through
edge-isometric spectral embeddings (symmetry orbits, a character-basis LP for
abelian Cayley graphs, and one equal-length Gram matrix per end, from which
the Eigenvector stage reads one eigenvector).  It refutes rigidity at an end
by a line search along the dual certificate of the equal-length decision; no
verdict depends on a seed.

Reference code, which no check runs: `walk_regularity` (exact walk counts),
`symmetry.group_closure`, `phi_psi`, `symmetrized_embedding`,
`sdp.build_sdp_instance`, `sdp.sdp_feasibility`, `sdp.rank_reduce`,
`random_weight_search` and `subgradient_ascent`.  These are the paper's
constructions and the older searches written out; the tests use them as
independent oracles.  The tests keep their other oracles in
`tests/oracles.py`: the per-element loop over an abelian group, `chi_gamma`
and `group_order`.
"""

from ._version import __version__
from .catalog import catalog, catalog_names
from .certify import (
    Certificate,
    CheckOptions,
    EndReport,
    RigidityReport,
    abelian_lp_certificate,
    check_conformal_rigidity,
    eigenvector_certificate,
    product_rigidity,
)
from .embeddings import (
    Embedding,
    canonical_embedding,
    edge_length_profile,
    make_embedding,
    phi_psi,
    product_embedding,
    symmetrized_embedding,
    unit_edge_normalized,
)
from .falsify import random_weight_search, subgradient_ascent
from .graphs import (
    CayleySpec,
    Graph,
    cartesian_product,
    cayley_abelian,
    circulant,
    laplacian,
    parse_edge_list,
    parse_graph6,
)
from .spectra import (
    character_spectrum,
    circulant_curve_extremes,
    eigendecompose,
    lambda_ends,
)
from .symmetry import find_automorphisms, orbits
from .walkreg import canonical_walk1_check, walk_regularity

__all__ = [
    "__version__",
    "Certificate",
    "CheckOptions",
    "EndReport",
    "RigidityReport",
    "Embedding",
    "CayleySpec",
    "Graph",
    "abelian_lp_certificate",
    "canonical_embedding",
    "canonical_walk1_check",
    "cartesian_product",
    "catalog",
    "catalog_names",
    "cayley_abelian",
    "character_spectrum",
    "check_conformal_rigidity",
    "circulant",
    "circulant_curve_extremes",
    "edge_length_profile",
    "eigendecompose",
    "eigenvector_certificate",
    "find_automorphisms",
    "lambda_ends",
    "laplacian",
    "make_embedding",
    "orbits",
    "parse_edge_list",
    "parse_graph6",
    "phi_psi",
    "product_embedding",
    "product_rigidity",
    "random_weight_search",
    "subgradient_ascent",
    "symmetrized_embedding",
    "unit_edge_normalized",
    "walk_regularity",
]
