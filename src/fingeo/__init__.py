"""fingeo: exact finite incidence geometry over Galois fields.

Core surface: Galois field arithmetic (gf), closure geometries and their
morphisms (geometry), coordinatized projective spaces and semilinear maps
(projective), classification predicates (classify), the example gallery
(gallery), and the reconstruction engine recovering semilinear maps from
geometry morphisms (reconstruct).
"""

from .gf import (
    FieldElement,
    FieldHom,
    GF,
    field_arith,
    frobenius,
    gf,
    hom_from_power,
    identity_hom,
    list_homomorphisms,
    parse_field_name,
)
from .geometry import (
    CoordGeometry,
    CoordQuotient,
    FiniteGeometry,
    Flat,
    GeometryMorphism,
    PartialMorphism,
    QuotientGeometry,
    TableGeometry,
    basis_of,
    check_dim_bounds,
    check_geometry_axioms,
    closure,
    dim,
    factor_through_quotient,
    is_generated_by_lines,
    is_generated_by_lines_planes,
    join,
    meet,
    quotient,
    subgeometry,
)
from .projective import (
    LinearSubspace,
    ProjPoint,
    SemilinearMap,
    apply_semilinear,
    build_pg,
    check_projective_axioms,
    decompose_irreducible,
    induced_partial,
    proportional,
)
from . import classify, gallery, reconstruct, serialize
from .reconstruct import (
    MorphismInstance,
    ReconstructionResult,
    brute_force_oracle,
    certify_side_conditions,
    extend_affino,
    glue_fibred_product,
    induced_quotient_map,
    normalize_pair,
    reconstruct_affino_projective,
    reconstruct_ftpg,
    reconstruct_locally_affino,
    reconstruct_locally_projective,
)

__version__ = "0.1.0"
