"""Weight and root data for a group H = U x| R with graded unipotent radical.

The computational inputs are purely combinatorial: the rank of a maximal
torus, the positive roots of the Levi factor R, the torus weights of the
adjoint action on Lie(U), generators and order of the Weyl group, and the
derivative of the grading one-parameter subgroup.  The checks here
(positivity of the grading, the admissible character interval, cone
validity, Weyl invariance of a class or of a product of linear forms) are
the combinatorial shadows of the geometric hypotheses under which the
pairing and Betti formulas hold.
"""

import json
from collections import Counter

from . import _linalg
from .exactnum import _integer, _ReadOnly, as_fraction
from .polyring import MultiPoly, _as_form, weyl_act, weyl_element

__all__ = [
    "GroupData",
    "WeylInvarianceError",
    "ConeChoice",
    "InvalidConeError",
    "WellAdaptedReport",
    "check_grading",
    "check_well_adapted",
    "euler_class_nonreductive",
]


class InvalidConeError(ValueError):
    """A chamber vector annihilates one of the denominator forms."""


class _FieldError(ValueError):
    """A broken rule of one input field, at ``suffix`` below the path of what
    the caller passed: below ``$`` when it reaches the CLI from a run."""

    def __init__(self, suffix, message):
        super().__init__(message)
        self.suffix = suffix


def _spell(generator):
    """A Weyl generator as the JSON of a problem file."""
    return json.dumps(generator, default=lambda x: int(x) if x.denominator == 1 else str(x))


class WeylInvarianceError(ValueError):
    """The class fails Weyl invariance; carries a witness generator, spelled as JSON."""

    def __init__(self, generator_index, generator):
        self.generator_index = generator_index
        self.generator = generator
        super().__init__("class is not Weyl-invariant; witness generator #%d: %s"
                         % (generator_index, _spell(generator)))


def _compose(g, m):
    """The Weyl element of the matrix product ``g m``, in variable images."""
    out = []
    for row in g:
        acc = {}
        for l, a in row:
            for j, b in m[l]:
                acc[j] = acc.get(j, 0) + a * b
        out.append(tuple((j, c) for j, c in sorted(acc.items()) if c != 0))
    return tuple(out)


def _weyl_closure(generators, order, rank):
    """Every element of the group the generators generate; ValueError unless
    there are ``order``.  A generator the earlier ones generate is skipped.
    Their group is closed under them, so its elements are multiplied by a new
    generator alone, and each element found after it joins by all of them."""
    elements = [weyl_element(range(rank), rank)]
    seen, joined = set(elements), []
    for g in generators:
        if g in seen:
            continue
        old, joined = len(elements), joined + [g]
        for i, m in enumerate(elements):
            for h in (g,) if i < old else joined:
                prod = _compose(h, m)
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
            if len(elements) > 4 * order + 16:
                raise _FieldError(".weyl_order", "Weyl closure exceeds the declared order; "
                                  "data inconsistent")
    if len(elements) != order:
        raise _FieldError(".weyl_order", "Weyl generators produce a group of order %d, "
                          "declared %d" % (len(elements), order))
    return tuple(elements)


class GroupData(_ReadOnly):
    """Torus rank, roots, Lie(U) weights, Weyl data and the grading direction.

    ``grading`` is the derivative of the one-parameter subgroup that grades
    the unipotent radical, a vector of the Lie algebra of the torus; a
    Lie(U) weight pairs with it by evaluation, and every such pairing must
    be positive for the data to be admissible (see :func:`check_grading`).
    ``weyl_generators`` may be permutations of the variable indices or
    rational matrices of determinant 1 or -1; ``weyl_order`` is the order of
    the group they generate.  The constructor is the one place that checks
    these rules; it closes the group once to check the order.

    Two fields are derived when the group is built: ``generator_elements``,
    the generators in the form of :func:`weyl_element`, and ``euler_forms``,
    the factors of :func:`euler_class_nonreductive` in its order: each
    positive root, then its negative, then each Lie(U) weight.
    """

    def __init__(self, rank, positive_roots=(), unipotent_weights=(), weyl_generators=(),
                 weyl_order=1, grading=None):
        rank = _integer(rank, "torus rank")
        if rank < 1:
            raise ValueError("torus rank must be positive")
        roots = tuple(_as_form(f) for f in positive_roots)
        weights = tuple(_as_form(f) for f in unipotent_weights)
        for f in roots + weights:
            if f.nvars != rank:
                raise ValueError("root/weight length does not match rank")
            if f.is_zero():
                raise _FieldError("", "roots and unipotent weights must be nonzero")
        weyl_order = _integer(weyl_order, "Weyl order")
        gens = tuple(tuple(tuple(x) if isinstance(x, list) else x for x in g)
                     for g in weyl_generators)
        if grading is None:
            grading = [0] * rank
        grading = tuple(as_fraction(x) for x in grading)
        if len(grading) != rank:
            raise ValueError("grading vector length does not match rank")
        elements = []
        for index, g in enumerate(gens):
            try:
                elements.append(weyl_element(g, rank))
            except ValueError as exc:
                raise _FieldError(".weyl_generators", str(exc)) from None
            if not isinstance(g[0], tuple):
                continue
            # A rational matrix of finite order has determinant 1 or -1 and,
            # its eigenvalues being roots of unity, an integral trace of
            # absolute value at most the rank.
            matrix = _linalg.to_matrix(g)
            det, trace = _linalg.det(matrix), sum(row[i] for i, row in enumerate(matrix))
            if det not in (1, -1):
                broken = "determinant %s" % det
            elif trace.denominator != 1 or abs(trace) > rank:
                broken = "trace %s" % trace
            else:
                continue
            raise _FieldError(".weyl_generators", "Weyl generator #%d has %s, so it has "
                              "infinite order" % (index, broken))
        _weyl_closure(elements, weyl_order, rank)
        vars(self).update(
            rank=rank, positive_roots=roots, unipotent_weights=weights,
            weyl_generators=gens, weyl_order=weyl_order, grading=grading,
            generator_elements=tuple(elements),
            euler_forms=tuple(f for root in roots for f in (root, -root)) + weights,
        )


def _check_weyl_invariant(poly, group):
    """Raise :class:`WeylInvarianceError` at the first generator that moves ``poly``."""
    for index, element in enumerate(group.generator_elements):
        if weyl_act(poly, element) != poly:
            raise WeylInvarianceError(index, group.weyl_generators[index])


def _check_factors_invariant(factors, group):
    """:func:`_check_weyl_invariant` for the product of the linear forms
    ``factors``, without forming it.

    Linear forms are irreducible in the UFD Q[z], so a generator fixes the
    product exactly when it permutes the factors up to scalars whose product
    is 1.  Each factor is divided by the coefficient of its largest monomial
    (its first nonzero coefficient); the multisets of the quotients and the
    products of the coefficients must agree.
    """

    def split(vectors):
        scale, shapes = 1, Counter()
        for v in vectors:
            lead = next(c for c in v if c != 0)
            scale *= lead
            shapes[tuple(c / lead for c in v)] += 1
        return scale, shapes

    base = split(f.coeffs for f in factors)
    for index, element in enumerate(group.generator_elements):
        if split(f.act(element).coeffs for f in factors) != base:
            raise WeylInvarianceError(index, group.weyl_generators[index])


class ConeChoice(_ReadOnly):
    """A chamber vector for the iterated residue.

    Valid for a given problem when no denominator form vanishes on it.
    """

    def __init__(self, xi):
        vars(self)["xi"] = tuple(as_fraction(x) for x in xi)

    def validate(self, forms):
        """Raise :class:`InvalidConeError` if any form vanishes on ``xi``."""
        for form in forms:
            form = _as_form(form)
            if form(self.xi) == 0:
                raise InvalidConeError(
                    "cone vector (%s) lies on the wall of %s"
                    % (", ".join(str(x) for x in self.xi), form.render())
                )


class WellAdaptedReport(_ReadOnly):
    def __init__(self, in_interval, interval, margin):
        # interval: (omega_0, omega_1), open; margin: chi/c - omega_0, and
        # whether it is "sufficiently small" is the caller's call
        vars(self).update(in_interval=in_interval, interval=interval, margin=margin)

    def __bool__(self):
        return self.in_interval


def check_grading(group):
    """Raise :class:`_FieldError` at the first Lie(U) weight that does not
    pair strictly positively with the grading.  An empty weight list
    (reductive case) passes vacuously."""
    for w in group.unipotent_weights:
        value = w(group.grading)
        if value <= 0:
            raise _FieldError(".grading", "unipotent weight %s pairs to %s with the grading; "
                              "it must be positive" % (w.render(), value))


def check_well_adapted(fixed_weights, chi_over_c):
    """Admissible-interval check for the character shift.

    ``fixed_weights`` are the grading-circle weights on the fixed locus;
    after sorting and deduplication there must be at least two.  The shift
    ``chi_over_c`` is admissible when it lies in the open interval between
    the two smallest distinct weights.  How small the offset above the
    minimum must be cannot be decided from this data, so the report carries
    the margin and leaves that judgement to the caller.
    """
    weights = sorted({as_fraction(w) for w in fixed_weights})
    if len(weights) < 2:
        raise ValueError("need at least two distinct fixed-point weights")
    chi = as_fraction(chi_over_c)
    low, high = weights[0], weights[1]
    return WellAdaptedReport(low < chi < high, (low, high), chi - low)


def _product(factors, nvars):
    """The product of polynomials in ``nvars`` variables, left to right."""
    out = MultiPoly.one(nvars)
    for factor in factors:
        out = out * factor
    return out


def euler_class_nonreductive(group):
    """Product of every root (positive and negative) and every Lie(U) weight.

    This is the Euler class of the bundle associated to the Levi roots
    together with the adjoint torus weights on Lie(U); with no unipotent
    weights it degenerates to the product over the full root system, the
    correction factor of the reductive abelianisation.  Note the product
    over all roots equals the squared product of the positive roots only up
    to the sign (-1)^(number of positive roots).
    """
    return _product([f.to_poly() for f in group.euler_forms], group.rank)
