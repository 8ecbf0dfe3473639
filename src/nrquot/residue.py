"""One-variable and iterated residues of factored rational functions.

Everything here is exact.  A residue in the variable ``z_i`` is extracted by
formally expanding each denominator factor ``a*z_i + b(z')`` in powers of
``1/z_i`` around infinity, every factor by one binomial series (a pure pole,
``b = 0``, keeps only its order 0), truncated at the finite order that can
contribute to the ``z_i^{-1}`` coefficient; that order is bounded by the
numerator degree, so no division of polynomials is ever needed.  The sign of that
coefficient makes the degree of the hyperplane class on projective space
come out +1.  The iterated operator :func:`jk_residue` takes it variable by
variable in basis order and divides by the square of the basis determinant.
When every denominator factor is a power of one coordinate the origin is
the only pole, so the coefficient at infinity is also the classical residue
at zero.
"""

from fractions import Fraction
from math import comb

from . import _linalg
from .exactnum import _ReadOnly
from .groupdata import ConeChoice
from .polyring import (_as_form, _matrix_element, _merge, _power, _times, _trusted_fn,
                       _trusted_poly, weyl_act)

__all__ = [
    "ResidueProblem",
    "residue_at_infinity",
    "jk_residue",
]


def _var_slices(poly, var):
    """Split a polynomial by its degree in ``var``: ``{degree: {monomial:
    coefficient}}``, each monomial with its ``var`` exponent set to zero."""
    slices = {}
    for expo, coeff in poly.terms.items():
        slices.setdefault(expo[var], {})[expo[:var] + (0,) + expo[var + 1:]] = coeff
    return slices


def _series_mul(a, b, jmax):
    """Truncated product of two {order: {monomial: coefficient}} expansions."""
    out = {}
    for i, pi in a.items():
        for j, pj in b.items():
            if i + j <= jmax:
                acc = out.setdefault(i + j, {})
                for e, c in _times(pi, pj).items():
                    acc[e] = acc.get(e, 0) + c
    return out


def _split_factors(fn, var):
    """Split the denominator factors by whether they involve ``var``.

    Returns (poles, params): each factor ``a*z_var + b`` with ``a`` nonzero
    is a pole ``(a, b_terms, multiplicity)``, expanded like every other, with
    the ``{monomial: coefficient}`` terms of ``b`` (none for a pure pole);
    params are the ``(form, multiplicity)`` factors without ``z_var``.
    """
    poles = []
    params = []
    for form, mult in fn.den:
        a = form.coeffs[var]
        if a == 0:
            params.append((form, mult))
        else:
            b_terms = {e: c for e, c in form.to_poly().terms.items() if not e[var]}
            poles.append((a, b_terms, mult))
    return poles, tuple(params)


def residue_at_infinity(fn, var):
    """Coefficient of ``z_var^{-1}`` in the expansion around ``z_var = infinity``.

    Note this is the bare Laurent coefficient, which equals the sum of the
    residues at all finite poles in ``z_var``; the classical residue at
    infinity is its negative.
    """
    n = fn.nvars
    poles, params = _split_factors(fn, var)
    base_mult = sum(m for _, _, m in poles)
    num_slices = _var_slices(fn.num, var)
    jmax = max(num_slices, default=-1) - base_mult + 1
    if jmax < 0:
        return _trusted_fn(_trusted_poly(n, {}), ())
    # 1/(a z + b)^m expands at infinity as
    # sum_j (-1)^j C(m+j-1, j) b^j a^(-m-j) z^(-m-j).  a**(m+j) is taken only
    # past the jmax check: a multiplicity that makes jmax negative may make it
    # too large to hold.
    unit = (0,) * n
    series = {0: {unit: 1}}
    for a, b, mult in poles:
        expansion = {0: {unit: 1 / a**mult}}
        for j in range(1, jmax + 1 if b else 1):
            coeff = (-1) ** j * comb(mult + j - 1, j) / a ** (mult + j)
            expansion[j] = {e: c * coeff for e, c in _power(b, j).items()}
        series = _series_mul(series, expansion, jmax)
    terms = {}
    for k, slice_terms in num_slices.items():
        j = k - base_mult + 1
        if j >= 0 and j in series:
            for e, c in _times(slice_terms, series[j]).items():
                terms[e] = terms.get(e, 0) + c
    total = _trusted_poly(n, terms)
    return _trusted_fn(total, () if total.is_zero() else params)


class ResidueProblem(_ReadOnly):
    """An iterated-residue instance, checked when it is built.

    ``basis`` is an ordered tuple of linear forms giving the coordinates in
    which the residues are iterated (defaults to the standard coordinates);
    the first basis form is the distinguished chamber direction; ``det`` is
    its determinant (1 without one).  The basis must be invertible, the
    :class:`~nrquot.groupdata.ConeChoice` ``cone`` must have one entry per
    variable and avoid every denominator wall, and a basis must be
    normalised against a cone.
    """

    def __init__(self, integrand, cone=None, basis=None):
        n = integrand.nvars
        det = Fraction(1)
        if basis is not None:
            basis = tuple(map(_as_form, basis))
            if len(basis) != n:
                raise ValueError("basis must contain one form per variable")
            for i, form in enumerate(basis):
                if form.nvars != n:
                    raise ValueError("basis form #%d has %d coefficients, expected %d"
                                     % (i, form.nvars, n))
            det = _linalg.det([b.coeffs for b in basis])
            if det == 0:
                raise ValueError("residue basis is not invertible")
        if cone is not None:
            cone = cone if isinstance(cone, ConeChoice) else ConeChoice(tuple(cone))
            if len(cone.xi) != n:
                raise ValueError("cone vector has %d entries, expected %d" % (len(cone.xi), n))
            cone.validate(form for form, _ in integrand.den)
            if basis is not None:
                image = [b(cone.xi) for b in basis]
                if image[0] != 1 or any(image[1:]):
                    raise ValueError("basis is not normalised against the cone vector: expected "
                                     "values (1, 0, ..., 0), got (%s)" % ", ".join(map(str, image)))
        vars(self).update(integrand=integrand, cone=cone, basis=basis, det=det)


def jk_residue(problem):
    """Iterated residue in basis order, over the squared basis determinant.

    The integrand is rewritten in the basis coordinates,
    :func:`residue_at_infinity` is applied variable by variable in basis
    order, and the resulting scalar is divided by ``det(B)**2``, the square
    of the determinant of the basis matrix.  The scalar is exact; a nonzero
    answer requires the integrand's homogeneity degree to be minus the
    number of variables, otherwise the degree bookkeeping forces zero.
    """
    fn = problem.integrand
    n = fn.nvars
    if problem.basis is not None:
        element = _matrix_element(_linalg.inverse([b.coeffs for b in problem.basis]))
        fn = _trusted_fn(weyl_act(fn.num, element), _merge((f.act(element), m) for f, m in fn.den))
    for var in range(n):
        fn = residue_at_infinity(fn, var)
    if not fn.is_constant():
        raise ArithmeticError("iterated residue left a non-scalar remainder")
    return fn.constant_value() / problem.det**2
