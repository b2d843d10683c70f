"""Intersection graphs of cyclic subgroups of finite groups.

Build the graph whose vertices are the proper nontrivial cyclic subgroups of
a finite group (adjacent when they share more than the identity), compute its
exact invariants, and mechanically check the classification theorems that
describe these graphs over a generated group catalog.
"""

__version__ = "0.1.0"

from .errors import (
    CycgraphError,
    EmptyGraphError,
    GroupValidationError,
    InvalidPermutation,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    OrderCapExceeded,
    RepeatedTheoremId,
    SkippedSizeCap,
    SpecParseError,
    UnknownTheoremId,
    VertexCapExceeded,
)
from .groups import (
    FiniteGroup,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    element_order,
    from_cayley_table,
    from_permutation_generators,
    read_cayley_file,
    read_permutation_file,
    relabel,
    symmetric,
)
from .specs import GroupSpec, Zs, abelian_groups_of_order, parse_spec
from .subgroups import (
    CyclicSubgroup,
    cyclic_subgroups,
    maximal_cyclic_subgroups,
    prime_order_subgroup_count,
)
from .graphs import Graph, IntersectionGraph, build, zn_divisor_graph
from .invariants import (
    InvariantReport,
    clique_cover_number,
    component_structure,
    compute_report,
    domination_number,
    girth,
    graph_isomorphic,
    has_triangle,
    independence_number,
    is_acyclic,
    is_bipartite,
    is_complete,
    is_regular,
    shape_checks,
    simplicial_cover,
)
from .planarity import is_planar
from .theorems import (
    Catalog,
    THEOREM_IDS,
    VerificationResult,
    default_catalog,
    run_verifiers,
)
