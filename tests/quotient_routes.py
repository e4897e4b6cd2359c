"""The quotient routes of the local predicates, kept as test references.

The library reads X/x off the flats of X through x.  Each function here
builds the quotient geometry instead and asks the same question there, so
that the tests can compare the two routes.
"""

from fingeo.geometry import bits_of
from fingeo.projective import check_projective_axioms


def ref_quotient_projective(X, x):
    """X/x is a projective space: the projective axiom suite on the
    quotient geometry."""
    Q = X.point_quotient(x)
    return Q.n_points == 0 or check_projective_axioms(Q).is_projective


def ref_quotient_line_form(X):
    """Every line of every X/x has at least three points."""
    return all(
        line.bit_count() >= 3 for x in range(X.n_points) for line in X.point_quotient(x).lines()
    )


def ref_quotient_affino(view, local_x):
    """X/x affino-projective inside P/x: some hyperplane class-set of P/x
    covers the classes without an X representative."""
    P, amb_x = view.P, view.idx[local_x]
    Q = P.point_quotient(amb_x)
    missing = [c for c, cmask in enumerate(Q.classes) if not cmask & view.xmask]
    if not missing:
        return True
    for hm in P.hyperplanes():
        if not hm >> amb_x & 1:
            continue
        hclasses = {Q.class_of_parent_point(y) for y in bits_of(hm & ~(1 << amb_x))}
        if all(c in hclasses for c in missing):
            return True
    return False
