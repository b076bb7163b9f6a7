"""Exact arithmetic for extended submodular functions, their polyhedra,
conforming preorders, and the associated coproducts and invariants."""

from .errors import CapExceeded, UnboundedDirection, ValidationError
from .ground import GroundSet
from .values import ExtValue, INF, fin
from .submod import (
    SubmodFn,
    corestrict,
    decompose,
    from_finite,
    is_modular,
    is_submodular,
    minor,
    product,
    restrict,
    unit_fn,
    zfn_equal,
)
from .preorders import (
    DownSetFamily,
    Preorder,
    bubble_masks,
    chain,
    coarse,
    component_masks,
    contractions,
    discrete,
    downsets,
    enumerate_preorders,
    enumerate_total_preorders,
    from_relations,
    galois_f,
    galois_g,
    is_contraction,
    is_subdivision,
    join,
    linear_extensions,
    meet,
    opposite,
    preo_of,
    preorder_of_sets,
    preorder_leq,
    subdivisions,
)
from .conform import (
    Face,
    FaceLattice,
    closure,
    cone_fn,
    conforming_preorders,
    cpre_of,
    enumerate_faces,
    face_fn,
    glue,
    is_compatible,
    is_conforming,
    low_of,
    min_faces,
    pre_of,
    z_of_convex,
)
from .geometry import (
    alin_point,
    cone_contains,
    contains,
    direction_to_face,
    equality_set,
)
from .hopf import (
    FormalSum,
    coproduct_delta,
    counit_eps,
    full_coproduct,
    internal_delta,
    phi,
    preorder_coproduct,
    preorder_delta,
    preorder_full_coproduct,
    psi,
)
from .invariants import (
    RationalPoly,
    bjr_count,
    chi,
    chi_character,
    ehr,
    ehr_star,
)
from .generators import (
    BuildingSet,
    Matroid,
    b_forests,
    basis_vertex_poset,
    graph_building_set,
    graphic_matroid,
    matroid_rank,
    minkowski,
    nestohedron,
    permutahedron,
    preorder_cone,
    uniform_matroid,
)

__version__ = "0.1.0"
