"""Intersection pairings on quotients from torus fixed-point data.

Every pairing route evaluates one localisation sum: over a list of
torus-fixed components, each carrying the restriction of the integrand
class and the weights of its normal bundle, take the Jeffrey-Kirwan residue
of (class * e(H)) / Euler(normal), add the exact scalars (so the summation
order never matters) and multiply by the problem constant, 1/|W| unless a
normalization is given.  The routes differ only as data:

* nonreductive (``H = U x| R``): e(H) is the product over the roots and the
  adjoint weights on Lie(U), and the class must be Weyl-invariant;
* reductive: the same with no Lie(U) weights;
* graded unipotent extension ``U x| C*``: rank one and no roots, the
  nonreductive route over the components where the grading circle takes its
  minimal moment value, with no cone (each residue is then at infinity);
* abelianised: the torus-quotient pairing of the lift with e(H).

Components selected by the chamber are the caller's data-preparation
responsibility.  When every denominator factor of a component is a multiple
of one coordinate, the residue reads a single coefficient of the numerator,
so the component computes only that coefficient of class * factor (see
:meth:`FixedPointComponent.term`).  The Grassmannian and flag wrappers run
the same sum over the origin alone, with normal weights ``z_i`` of order
``n``: the classical iterated residue at zero.  Flags are the Borel case of
the nonreductive route, with the roots ``z_i - z_j`` (``i < j``) as Lie(U)
weights.  The Grassmannian sums on its own and expands the one Vandermonde
product outside ``groupdata``: its ``z_i - z_j`` are the polynomial
additions that the traced Schubert benchmark requires.  Both calibrate the
sign conventions.

>>> z = [MultiPoly.variable(2, i) for i in range(2)]
>>> grassmannian_pairing(2, 4, (z[0] + z[1]) ** 4)
Fraction(2, 1)
"""

from fractions import Fraction
from math import factorial
from operator import sub

from .exactnum import _integer, _ReadOnly, as_fraction
from .groupdata import (GroupData, WeylInvarianceError, _check_weyl_invariant, _product,
                        euler_class_nonreductive)
from .polyring import LinearForm, MultiPoly, _as_form, _merge, _trusted_fn, _trusted_poly
from .residue import ResidueProblem, jk_residue

__all__ = [
    "FixedPointComponent",
    "PairingProblem",
    "integrate_reductive",
    "integrate_uhat",
    "integrate_nonreductive",
    "integrate_abelianized",
    "torus_pairing_fn",
    "flag_pairing",
    "grassmannian_pairing",
]


class FixedPointComponent(_ReadOnly):
    """One torus-fixed component with its localisation data.

    ``restriction`` is the restricted integrand class (a MultiPoly or a
    RationalFn, the latter for positive-dimensional components whose fibre
    integral has already been carried out); ``None`` means the component sits
    where the global class restricts to itself, as for the origin of a linear
    space, and the problem's class is used directly.  ``normal_weights`` is a
    sequence of (linear form, multiplicity) pairs whose product is the
    equivariant Euler class of the normal bundle.  ``lambda_weight`` is the
    moment value of the grading circle on the component and ``is_min`` flags
    membership in the minimal level.  A multiplicity must be a positive int
    (not a bool).
    """

    def __init__(self, name, normal_weights, restriction=None, lambda_weight=Fraction(0),
                 is_min=False):
        weights = []
        for form, mult in normal_weights:
            form = _as_form(form)
            if form.is_zero():
                raise ValueError(
                    "component %r has a zero normal weight" % (name,)
                )
            what = "component %r normal weight multiplicity" % (name,)
            mult = _integer(mult, what)
            if mult < 1:
                raise ValueError("%s must be positive, got %d" % (what, mult))
            weights.append((form, mult))
        vars(self).update(
            name=name, normal_weights=tuple(weights), restriction=restriction,
            lambda_weight=as_fraction(lambda_weight), is_min=is_min,
        )

    def term(self, default_class, extra_factor):
        """The component's contribution (class * factor) / Euler(normal).

        When every denominator factor (the restriction's and the normal
        weights) is ``a*z_i`` for a single ``i``, the numerator is the one
        monomial ``z^caps`` of class * factor, where ``caps[i]`` is the total
        multiplicity on ``z_i`` minus 1, and it is zero when some ``z_i`` has
        no pole.  The JK residue in standard coordinates (no basis, which
        :func:`_localization_sum` never passes) reads only that coefficient,
        so the term has the same residue; it is not the same rational
        function.
        """
        restriction = self.restriction
        if restriction is None:
            restriction = default_class
        if restriction is None:
            raise ValueError(
                "component %r has no restriction and no problem class given"
                % (self.name,)
            )
        if isinstance(restriction, MultiPoly):
            restriction = _trusted_fn(restriction, ())
        num = restriction.num
        for form, _ in self.normal_weights:
            if form.nvars != num.nvars:
                raise ValueError("component %r has a normal weight in %d variables, expected %d"
                                 % (self.name, form.nvars, num.nvars))
        den = _merge(restriction.den + self.normal_weights)
        caps = _pole_caps(den, num.nvars)
        if caps is None:
            return _trusted_fn(num * extra_factor, den)
        num._check_compatible(extra_factor)
        if -1 in caps:
            return _trusted_fn(_trusted_poly(num.nvars, {}), den)
        small, large = sorted((num.terms, extra_factor.terms), key=len)
        corner = sum(c * large.get(tuple(map(sub, caps, e)), 0) for e, c in small.items())
        return _trusted_fn(_trusted_poly(num.nvars, {caps: corner}), den)


def _pole_caps(den, nvars):
    """Per variable, the multiplicity of the pole at ``z_i = 0`` minus 1, when
    every factor of ``den`` is ``a*z_i`` for a single ``i``; otherwise None."""
    caps = [-1] * nvars
    for form, mult in den:
        support = [i for i, c in enumerate(form.coeffs) if c != 0]
        if len(support) != 1:
            return None
        caps[support[0]] += mult
    return tuple(caps)


class PairingProblem(_ReadOnly):
    """A pairing instance: group data, fixed components, class, chamber.

    ``normalization`` is the overall rational constant; when omitted it
    defaults to 1/|W|, which matches the 1/k! of the Grassmannian and is
    overridable for actions whose generic stabiliser is nontrivial.  |W| is
    the order of the group the Weyl generators generate: :meth:`constant`
    raises when the declared ``weyl_order`` disagrees.
    """

    def __init__(self, group, fixed_points, class_eta=None, cone=None, normalization=None):
        fixed_points = tuple(fixed_points)
        if normalization is not None:
            normalization = as_fraction(normalization)
        vars(self).update(
            group=group, fixed_points=fixed_points, class_eta=class_eta,
            cone=cone, normalization=normalization,
        )

    def constant(self):
        if self.normalization is not None:
            return self.normalization
        return Fraction(1, len(self.group.weyl_elements()))

    def minimal_components(self):
        return tuple(c for c in self.fixed_points if c.is_min)


def _minimality_mismatches(fixed_points):
    """Indices of the components whose ``is_min`` flag disagrees with whether
    their ``lambda_weight`` is the least moment value."""
    floor = min(c.lambda_weight for c in fixed_points)
    return [i for i, c in enumerate(fixed_points) if c.is_min != (c.lambda_weight == floor)]


def _localization_sum(fixed_points, cls, factor, cone):
    """Sum over the components of the JK residue of (class * factor) / Euler."""
    total = Fraction(0)
    for comp in fixed_points:
        term = comp.term(cls, factor)
        total += jk_residue(ResidueProblem(term, cone=cone))
    return total


def integrate_reductive(problem):
    """Pairing on a reductive quotient from maximal-torus fixed points.

    Evaluates the iterated residue of the fixed-point sum multiplied by the
    product over the full root system of the Levi, times the problem
    constant.  The product over all roots equals the squared product of the
    positive roots up to (-1)^(number of positive roots); using the full
    product is what makes the hyperplane-class calibration come out +1, and
    it keeps this evaluator consistent with the general one below on data
    with no unipotent directions.  The class must be Weyl-invariant (a
    failing generator is reported).
    """
    if problem.group.unipotent_weights:
        raise ValueError("reductive pairing requires no unipotent weights")
    return integrate_nonreductive(problem)


def integrate_uhat(problem):
    """Pairing on the quotient by a graded unipotent extension U x| C*.

    Rank-one torus, no roots: :func:`integrate_nonreductive` over the
    minimal fixed components, whose Euler class is the product of the
    unipotent weights, with no cone (each residue is then at infinity).
    """
    if problem.group.rank != 1:
        raise ValueError("graded-extension pairing requires a rank 1 torus")
    if problem.group.positive_roots:
        raise ValueError("graded-extension pairing requires no roots")
    minimal = problem.minimal_components()
    if not minimal:
        raise ValueError("no component is flagged as minimal")
    mislabeled = _minimality_mismatches(problem.fixed_points)
    if mislabeled:
        raise ValueError(
            "minimality flags disagree with the moment values on: %s"
            % ", ".join(problem.fixed_points[i].name for i in mislabeled)
        )
    return integrate_nonreductive(PairingProblem(problem.group, minimal, problem.class_eta,
                                                 normalization=problem.normalization))


def integrate_nonreductive(problem):
    """Pairing on the quotient by H = U x| R with graded unipotent radical.

    The numerator factor is the Euler class of the bundle built from every
    root of R and every adjoint weight on Lie(U); the class must be
    Weyl-invariant (a failing generator is reported).  The fixed components
    supplied by the caller are the ones selected by the chamber.
    """
    if not problem.fixed_points:
        raise ValueError("fixed-point list is empty")
    if problem.class_eta is not None:
        _check_weyl_invariant(problem.class_eta, problem.group)
    factor = euler_class_nonreductive(problem.group)
    return problem.constant() * _localization_sum(
        problem.fixed_points, problem.class_eta, factor, problem.cone
    )


def torus_pairing_fn(fixed_points, cone=None, normalization=1):
    """Pairing evaluator on the maximal-torus quotient itself.

    Returns the bilinear pairing ``(a, b)``: ``normalization`` times the
    localisation sum over all supplied fixed components of the JK residue of
    (a * b) / Euler(normal), with ``b`` the factor every component multiplies
    in, its own restriction included.  This is the abelian side of the
    abelianisation formula; :func:`integrate_abelianized` passes the lift and
    the Euler class as the two arguments, so their product is never formed.
    """
    fixed_points = tuple(fixed_points)
    scale = as_fraction(normalization)

    def pairing(a, b):
        return scale * _localization_sum(fixed_points, a, b, cone)

    return pairing


def integrate_abelianized(torus_pairing_value_fn, a_tilde, e, weyl_order):
    """Pairing through the torus quotient: pair the lift with the root-and-
    unipotent Euler class, then divide by the Weyl order.

    It is the caller's responsibility that ``a_tilde`` is a genuine lift of
    the class downstairs; that condition is not checkable from pairing data.
    """
    weyl_order = _integer(weyl_order, "Weyl order")
    if weyl_order < 1:
        raise ValueError("Weyl order must be positive")
    return torus_pairing_value_fn(a_tilde, e) / weyl_order


def _origin(k, n, phi):
    """The origin of C^(kn) as the one fixed component: weight z_i, order n;
    checks the arguments of the Grassmannian and flag wrappers first."""
    if k < 1 or n < k:
        raise ValueError("need 1 <= k <= n")
    if phi.nvars != k:
        raise ValueError("class must live in %d variables" % k)
    unit = [[1 if j == i else 0 for j in range(k)] for i in range(k)]
    return (FixedPointComponent("origin", [(LinearForm(u), n) for u in unit]),)


def flag_pairing(k, n, phi):
    """Iterated residue at zero for the tautological bundle on the flag
    manifold of k-planes flags in n-space: residue of
    phi * prod_{i<j}(z_i - z_j) / prod_i z_i^n, the Borel pairing (trivial
    Weyl group, constant 1).

    >>> flag_pairing(1, 3, MultiPoly.variable(1, 0) ** 2)
    Fraction(1, 1)
    """
    origin = _origin(k, n, phi)
    roots = [[(a == i) - (a == j) for a in range(k)] for i in range(k) for j in range(i + 1, k)]
    borel = GroupData(k, unipotent_weights=roots)
    return integrate_nonreductive(PairingProblem(borel, origin, phi))


def grassmannian_pairing(k, n, phi):
    """Intersection number of a symmetric class on the Grassmannian of
    k-planes in n-space: 1/k! times the iterated residue at zero of
    phi * prod_{i != j}(z_i - z_j) / prod_i z_i^n.
    """
    origin = _origin(k, n, phi)
    # S_k by adjacent swaps: generator i exchanges z_i and z_(i+1)
    swaps = [[*range(i), i + 1, i, *range(i + 2, k)] for i in range(k - 1)]
    try:
        _check_weyl_invariant(phi, GroupData(k, weyl_generators=swaps, weyl_order=factorial(k)))
    except WeylInvarianceError as exc:
        i = exc.generator_index
        raise ValueError(
            "class is not symmetric in the torus variables (swap %d,%d)" % (i, i + 1)
        ) from None
    z = [MultiPoly.variable(k, i) for i in range(k)]
    factor = _product([z[i] - z[j] for i in range(k) for j in range(k) if i != j], k)
    return _localization_sum(origin, phi, factor, None) / factorial(k)
