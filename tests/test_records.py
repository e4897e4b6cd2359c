"""The library's records as values: equality within a type, hashing and
read-only fields of the frozen ones, assignment on the mutable ones, and
every repr that a report or an error message prints."""

import pytest

from fingeo.classify import ClassificationReport, Verdict
from fingeo.errors import ReadOnlyField
from fingeo.geometry import (
    AxiomReport,
    GeneratedReport,
    GeometryMorphism,
    PartialMorphism,
    check_dim_bounds,
    quotient,
    subgeometry,
)
from fingeo.gf import FieldElement, gf, hom_from_power, identity_hom
from fingeo.projective import (
    LinearSubspace,
    ProjectiveReport,
    ProjPoint,
    SemilinearMap,
    build_pg,
    check_projective_axioms,
    quotient_coords,
)
from fingeo.reconstruct import MorphismInstance, PartialPointMap, ReconstructionResult

K = gf(4)
P = build_pg(2, 2)
X = subgeometry(P, range(1, P.n_points))
SIGMA = hom_from_power(K, K, 1)
M = ((1, 0, 0), (0, 2, 0), (0, 0, 3))
W = LinearSubspace.from_vectors(K, 3, [(1, 0, 0)])
IMAGES = tuple(P.vectors)
Q, PI = quotient(P, P.closure([0]))


def semilinear(matrix=M):
    return SemilinearMap(SIGMA, matrix)


def report(*extra):
    return AxiomReport(True, True, True, True, True, dict(extra))


# record name -> (two equal instances built apart, one that differs)
CASES = {
    "FieldElement": lambda: (FieldElement(K, 2), FieldElement(K, 2), FieldElement(K, 3)),
    "FieldHom": lambda: (SIGMA, hom_from_power(K, K, 1), identity_hom(K)),
    "ProjPoint": lambda: (ProjPoint.make(K, (0, 2, 2)), ProjPoint.make(K, (0, 1, 1)), ProjPoint.make(K, (0, 1, 2))),
    "LinearSubspace": lambda: (W, LinearSubspace.from_vectors(K, 3, [(2, 0, 0)]), LinearSubspace.zero(K, 3)),
    "SemilinearMap": lambda: (semilinear(), semilinear([list(r) for r in M]), semilinear(M[::-1])),
    "QuotientCoords": lambda: (quotient_coords(W), quotient_coords(W), quotient_coords(LinearSubspace.zero(K, 3))),
    "ProjectiveReport": lambda: (
        check_projective_axioms(P), check_projective_axioms(P), check_projective_axioms(X)
    ),
    "AxiomReport": lambda: (report(), report(), report(("g2", [0]))),
    "GeometryMorphism": lambda: (
        GeometryMorphism(P, P, tuple(range(7))),
        GeometryMorphism(P, P, tuple(range(7))),
        GeometryMorphism(P, P, tuple(range(6, -1, -1))),
    ),
    "PartialMorphism": lambda: (
        PI,
        PartialMorphism(P, Q, P.closure([0]), PI.map),
        PartialMorphism(P, Q, P.closure([0]), PI.map[:-1] + (0,)),
    ),
    "GeneratedReport": lambda: (
        GeneratedReport(True, "exhaustive", None, 7),
        GeneratedReport(True, "exhaustive", None, 7, None),
        GeneratedReport(False, "exhaustive", None, 7, {"flat_not_rule_closed": [0]}),
    ),
    "DimBoundsReport": lambda: (
        check_dim_bounds(GeometryMorphism(P, P, tuple(range(7)))),
        check_dim_bounds(GeometryMorphism(P, P, tuple(range(7)))),
        check_dim_bounds(GeometryMorphism(P, P, (0,) * 7)),
    ),
    "Verdict": lambda: (Verdict("ovoid", True), Verdict("ovoid", True, [], {}), Verdict("ovoid", False)),
    "ClassificationReport": lambda: (
        ClassificationReport("x", {"ovoid": Verdict("ovoid", True)}),
        ClassificationReport("x", {"ovoid": Verdict("ovoid", True)}),
        ClassificationReport("x", {"ovoid": Verdict("ovoid", False)}),
    ),
    "PartialPointMap": lambda: (
        PartialPointMap(P, K, 2, IMAGES),
        PartialPointMap(P, K, 2, IMAGES),
        PartialPointMap(P, K, 2, (None,) + IMAGES[1:]),
    ),
    "MorphismInstance": lambda: (
        MorphismInstance(P, K, 2, IMAGES),
        MorphismInstance(P, K, 2, IMAGES, "locally-projective"),
        MorphismInstance(P, K, 2, IMAGES, "affino-projective"),
    ),
    "ReconstructionResult": lambda: (
        ReconstructionResult(semilinear(), W, (0, 1)),
        ReconstructionResult(semilinear(), W, (0, 1), {}),
        ReconstructionResult(semilinear(), W, (0, 2)),
    ),
}
# frozen record name -> one of its fields
FROZEN = {
    "FieldElement": "val", "FieldHom": "table", "ProjPoint": "coords", "LinearSubspace": "rows",
    "SemilinearMap": "matrix", "QuotientCoords": "dim_q", "GeometryMorphism": "map",
    "PartialMorphism": "exceptional", "PartialPointMap": "images",
    "MorphismInstance": "declared_kind",
}


@pytest.mark.parametrize("name", CASES)
def test_record_equality_is_by_value(name):
    a, b, c = CASES[name]()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_record_hashes_by_value_and_refuses_assignment(name):
    a, b, c = CASES[name]()
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert len({a, b, c}) == 2
    with pytest.raises(AttributeError):
        setattr(a, FROZEN[name], None)
    assert getattr(a, FROZEN[name]) == getattr(b, FROZEN[name])


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_record_refuses_deletion(name):
    """A field deleted from a frozen record would leave one that no longer
    hashes; the records with their own __setattr__ raise ReadOnlyField."""
    a, b, _ = CASES[name]()
    error = ReadOnlyField if name in ("FieldElement", "PartialPointMap") else AttributeError
    with pytest.raises(error):
        delattr(a, FROZEN[name])
    assert getattr(a, FROZEN[name]) == getattr(b, FROZEN[name])
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(set(CASES) - set(FROZEN)))
def test_mutable_record_takes_assignment_and_is_unhashable(name):
    a, b, _ = CASES[name]()
    with pytest.raises(TypeError):
        hash(a)
    attr = next(iter(vars(a)))
    setattr(a, attr, "changed")
    assert getattr(a, attr) == "changed"
    assert a != b


def test_mutable_defaults_are_fresh_per_instance():
    a, b = Verdict("x", True), Verdict("x", True)
    a.witnesses.append(1)
    a.certificates["k"] = 1
    assert (b.witnesses, b.certificates) == ([], {})
    assert ReconstructionResult(semilinear(), W, ()).certificate is not ReconstructionResult(semilinear(), W, ()).certificate
    assert MorphismInstance(P, K, 2, IMAGES).declared_kind == "locally-projective"
    assert ProjectiveReport(True, True, True, True, True, {}).note == ""
    assert GeneratedReport(True, "sampled", 1, None).witness is None


def test_semilinear_map_normalises_its_matrix_to_tuples():
    phi = SemilinearMap(SIGMA, [[1, 0, 0], [0, 2, 0], (0, 0, 3)])
    assert phi.matrix == M
    assert type(phi.matrix) is tuple and all(type(r) is tuple for r in phi.matrix)
    assert phi == semilinear()


def test_dim_bounds_report_keys_in_field_order():
    rep = check_dim_bounds(GeometryMorphism(P, P, tuple(range(7))))
    assert list(rep.as_dict().items()) == [
        ("surjective", True), ("dim_source", 2), ("dim_target", 2), ("dim_ok", True),
        ("equal_dims", True), ("bijective", True), ("isomorphism", True),
    ]


def test_printed_reprs():
    assert repr(FieldElement(K, 2)) == "gf(4):2"
    assert repr(SIGMA) == "hom(gf(4)->gf(4), gen->3)"
    assert repr(identity_hom(gf(2))) == "hom(gf(2)->gf(2), gen->1)"
    assert repr(ProjPoint.make(K, (0, 2, 2))) == "P(0, 1, 1)"
    assert repr(W) == "subspace(rank 1 of K^3)"
    assert repr(semilinear()) == "semilinear(hom(gf(4)->gf(4), gen->3), 3x3)"
    assert str(semilinear()) == repr(semilinear())
    # a semilinear map reads its hom with str in its own repr
    assert f"{SIGMA}" == repr(SIGMA)


def test_field_element_operators_stay_field_operators():
    a = FieldElement(K, 2)
    assert a * 3 == FieldElement(K, K.mul(2, 3))
    assert a + a == FieldElement(K, 0)
    for bad in (lambda: 3 * a, lambda: 1 + a, lambda: (1,) + a, lambda: a < a, lambda: len(a)):
        with pytest.raises(TypeError):
            bad()
