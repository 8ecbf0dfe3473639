"""Finite graded rings: invariant subrings, annihilators, quotient Betti data.

A cohomology ring has one form, a polynomial quotient: variables
``z_0..z_{r-1}`` and a list of homogeneous relations making every graded
piece finite dimensional.  All operations are per-degree exact linear
algebra over the rationals: no Groebner bases, just monomial spanning sets
and rank computations, which is all the finite-dimensional rings in scope
require.

The headline computation composes three steps: take the common kernel of
g - 1 over the Weyl generators g to present the invariant subring, intersect
with the annihilator of the root-and-unipotent Euler class, and read off
graded dimensions, doubling the ring grading into the cohomological one.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from . import _linalg
from .exactnum import TruncSeries, _integer
from .groupdata import GroupData, _check_factors_invariant, _spell, euler_class_nonreductive
from .polyring import MultiPoly, _trusted_poly, weyl_act

__all__ = [
    "GradedRingPresentation",
    "graded_dims",
    "invariant_basis",
    "annihilator_dims",
    "quotient_presentation_betti",
]


def _monomials(nvars, degree):
    """All exponent tuples of the given total degree, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        expo = [0] * nvars
        for i in combo:
            expo[i] += 1
        out.append(tuple(expo))
    return sorted(out)


class GradedRingPresentation:
    """A polynomial quotient ring with finite graded pieces up to ``top_degree``.

    Built by ``GradedRingPresentation.polynomial_quotient``: graded pieces
    are monomials modulo the degree slice of the relation ideal, and
    elements are reduced to coordinates on the non-pivot monomials.
    """

    def __init__(self):
        raise TypeError("use the polynomial_quotient constructor")

    @classmethod
    def polynomial_quotient(cls, nvars, relations, top_degree):
        self = object.__new__(cls)
        self.nvars = _integer(nvars, "variable count")
        self.top_degree = _integer(top_degree, "top degree")
        if self.top_degree < 0:
            raise ValueError("top degree must be nonnegative")
        rels = []
        for rel in relations:
            if not isinstance(rel, MultiPoly):
                raise TypeError("relations must be MultiPoly instances")
            if rel.nvars != nvars:
                raise ValueError("relation variable count does not match ring")
            if rel.is_zero():
                continue
            if not rel.is_homogeneous():
                raise ValueError("relations must be homogeneous")
            rels.append(rel)
        self.relations = tuple(rels)
        self._degree_cache = {}
        if self._degree_data(self.top_degree + 1)[0]:
            raise ValueError(
                "graded piece in degree %d does not vanish; top degree too small"
                % (self.top_degree + 1)
            )
        return self

    def _degree_data(self, degree):
        """The quotient basis of one degree and how to reduce onto it.

        Returns ``(free, free_index, pivot_rows)``: ``free`` lists the
        monomials left free by the echelon form of the relation multiples
        (the quotient basis), ``free_index`` maps each of them to its
        position, and ``pivot_rows`` maps each pivot monomial to the nonzero
        ``(position, coefficient)`` pairs of its echelon row off the pivot,
        so that the monomial is congruent to ``-sum(c * free[k])``.
        """
        if degree in self._degree_cache:
            return self._degree_cache[degree]
        mons = _monomials(self.nvars, degree)
        index = {m: i for i, m in enumerate(mons)}
        rows = []
        for rel in self.relations:
            shift = degree - rel.total_degree()
            if shift < 0:
                continue
            for m in _monomials(self.nvars, shift):
                rows.append({
                    index[tuple(a + b for a, b in zip(expo, m))]: coeff
                    for expo, coeff in rel.terms.items()
                })
        reduced, pivots = _linalg.rref(rows)
        pivot_set = set(pivots)
        free = [m for i, m in enumerate(mons) if i not in pivot_set]
        free_index = {m: k for k, m in enumerate(free)}
        # In reduced echelon form a row is zero on every other pivot column,
        # so its entries off its own pivot all sit on free columns.
        pivot_rows = {
            mons[p]: tuple((free_index[mons[j]], x) for j, x in row.items() if j != p)
            for row, p in zip(reduced, pivots)
        }
        data = (free, free_index, pivot_rows)
        self._degree_cache[degree] = data
        return data

    def dimension(self, degree):
        """Dimension of the graded piece (zero beyond the top degree)."""
        if degree > self.top_degree or degree < 0:
            return 0
        return len(self._degree_data(degree)[0])

    def reduce(self, poly, degree=None):
        """Quotient coordinates of a homogeneous polynomial.

        Reduces modulo the degree slice of the relation ideal and returns the
        coefficient vector on the non-pivot monomials of that degree.
        """
        if poly.is_zero():
            degree = 0 if degree is None else degree
            return [Fraction(0)] * self.dimension(degree)
        if not poly.is_homogeneous():
            raise ValueError("can only reduce homogeneous elements")
        degree = poly.total_degree() if degree is None else degree
        if degree > self.top_degree:
            return []
        free, free_index, pivot_rows = self._degree_data(degree)
        zero = Fraction(0)
        v = [zero] * len(free)
        for expo, coeff in poly.terms.items():
            k = free_index.get(expo)
            if k is not None:
                v[k] += coeff
                continue
            for k, y in pivot_rows[expo]:
                v[k] -= coeff * y
        return v

    def element(self, degree, vector):
        """Polynomial representative of quotient coordinates at a degree;
        ``vector`` holds Fractions, as :meth:`reduce` and
        :func:`invariant_basis` return them."""
        free = self._degree_data(degree)[0]
        return _trusted_poly(self.nvars, dict(zip(free, vector)))

    def basis_elements(self, degree):
        """Monomial representatives of the quotient basis at a degree."""
        one = Fraction(1)
        return [_trusted_poly(self.nvars, {mono: one}) for mono in self._degree_data(degree)[0]]


def graded_dims(ringp):
    """Dimension of each graded piece, degrees 0..top."""
    return tuple(ringp.dimension(d) for d in range(ringp.top_degree + 1))


def _weyl_group(ringp, weyl):
    """The Weyl group as a :class:`GroupData`, given as one or as
    ``(generators, order)``."""
    if not isinstance(weyl, GroupData):
        generators, order = weyl
        return GroupData(ringp.nvars, weyl_generators=generators, weyl_order=order)
    if weyl.rank != ringp.nvars:
        raise ValueError("Weyl data rank does not match the ring")
    return weyl


def invariant_basis(ringp, weyl):
    """Per-degree basis of the Weyl-invariant subring.

    In each degree the invariants are the common kernel of ``A_g - 1`` over
    the Weyl generators ``g``, where column ``b`` of ``A_g`` holds the quotient
    coordinates of ``g`` applied to basis monomial ``b``; for a finite group
    over Q this is the span of the Reynolds averages.  Returns a dict
    ``degree -> list of quotient-coordinate vectors``.
    """
    group = _weyl_group(ringp, weyl)
    elements = group.generator_elements
    for gen, element in zip(group.weyl_generators, elements):
        for rel in ringp.relations:
            if any(c != 0 for c in ringp.reduce(weyl_act(rel, element))):
                raise ValueError("Weyl generator %s does not preserve the relation ideal"
                                 % _spell(gen))
    out = {}
    for degree in range(ringp.top_degree + 1):
        basis = ringp.basis_elements(degree)
        n = len(basis)
        rows = []
        for element in elements:
            columns = [ringp.reduce(weyl_act(b, element), degree) for b in basis]
            rows += [[col[i] - (i == j) for j, col in enumerate(columns)] for i in range(n)]
        out[degree] = _linalg.kernel_basis(rows, n)
    return out


def annihilator_dims(ringp, e):
    """Per-degree dimensions of the annihilator of a homogeneous element.

    In each degree the annihilator piece is the kernel of multiplication by
    the element into the higher degree (zero beyond the top, where the ring
    itself vanishes).
    """
    if e.nvars != ringp.nvars:
        raise ValueError("element is not expressible in the ring variables")
    if e.is_zero():
        return graded_dims(ringp)
    if not e.is_homogeneous():
        raise ValueError("element must be homogeneous")
    shift = e.total_degree()
    return tuple(ringp.dimension(d) - _multiplication_rank(ringp, e, shift, d)
                 for d in range(ringp.top_degree + 1))


def _multiplication_rank(ringp, e, shift, degree, vectors=None):
    """Rank of multiplication by ``e``, homogeneous of degree ``shift``, from
    ``degree``: on the elements with quotient coordinates ``vectors``, or on
    the whole graded piece.  Zero, with no element built, when the target
    degree vanishes."""
    target = degree + shift
    if ringp.dimension(target) == 0:
        return 0
    elements = (ringp.basis_elements(degree) if vectors is None
                else [ringp.element(degree, v) for v in vectors])
    return _linalg.rank([ringp.reduce(b * e, target) for b in elements])


def quotient_presentation_betti(ringp, weyl, group):
    """Betti series of invariants modulo the annihilator of the Euler class.

    The Euler class is the product over the roots of the Levi and the
    adjoint weights on the unipotent radical, taken from ``group``; it must
    be Weyl-invariant and expressible in the ring variables.  In ring degree
    ``k`` the quotient dimension is the rank of multiplication by the Euler
    class restricted to the invariant subspace, and it contributes in
    cohomological degree ``2k``.
    """
    return _quotient_betti_with_invariants(ringp, weyl, group)[0]


def _quotient_betti_with_invariants(ringp, weyl, group):
    """:func:`quotient_presentation_betti`, the invariant basis and the Euler
    class it used, for callers that also report the invariant dimensions and
    the annihilator of the class.  A class of degree above the top degree is
    zero in the ring; it is returned as zero and never expanded."""
    forms = group.euler_forms
    if group.rank != ringp.nvars:
        raise ValueError("Euler class is not expressible in the ring variables")
    _check_factors_invariant(forms, group)
    inv = invariant_basis(ringp, weyl)
    bound = 2 * ringp.top_degree
    if len(forms) > ringp.top_degree:
        return TruncSeries.zero(bound), inv, MultiPoly.zero(ringp.nvars)
    e = euler_class_nonreductive(group)
    ranks = {2 * d: _multiplication_rank(ringp, e, len(forms), d, vectors)
             for d, vectors in inv.items()}
    return TruncSeries.from_dict(ranks, bound), inv, e
