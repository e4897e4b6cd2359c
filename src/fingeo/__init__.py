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

# the upper layers are in sys.modules and bound here from the start, but
# each is compiled and run only when first touched (importlib's
# LazyLoader), so that a command compiles only the modules it runs; gf stays
# eager because loading the submodule fingeo.gf binds the package attribute
# gf to the module


def _lazy(name):
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


classify = _lazy("classify")
gallery = _lazy("gallery")
reconstruct = _lazy("reconstruct")
serialize = _lazy("serialize")

# re-exported from reconstruct, looked up there on each use (PEP 562)
_RECONSTRUCT_NAMES = (
    "MorphismInstance",
    "ReconstructionResult",
    "brute_force_oracle",
    "certify_side_conditions",
    "extend_affino",
    "glue_fibred_product",
    "induced_quotient_map",
    "normalize_pair",
    "reconstruct_affino_projective",
    "reconstruct_ftpg",
    "reconstruct_locally_affino",
    "reconstruct_locally_projective",
)


def __getattr__(name):
    if name in _RECONSTRUCT_NAMES:
        return getattr(reconstruct, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_RECONSTRUCT_NAMES])


__version__ = "0.1.0"
