"""Poincare series of quotients, Morse assembly and perfection checking.

Dimensions entering this module are complex dimensions; the doubling into
exponents of ``t`` happens here and nowhere else.  Every formula is a shift,
a sum and at most one ``geom_div``, so each costs O(bound).  A quotient
series is ``P * (1 - t^{2d}) / (1 - t^2)``, with ``d`` the codimension of the
swept minimal stratum.  Morse assembly sums ``t^{2 codim} * P(stratum)``, and
the perfection check divides the defect by ``1 + t`` as
``(1 - t) / (1 - t^2)``, reporting whether the quotient series vanishes and
whether it is coefficientwise nonnegative.
"""

from .exactnum import TruncSeries, _integer, _ReadOnly

__all__ = [
    "StratumDatum",
    "QuotientDims",
    "PerfectionReport",
    "poincare_uhat",
    "morse_assemble",
    "check_perfect",
    "weighted_projective_poincare",
]


class StratumDatum(_ReadOnly):
    """A stratum: complex codimension and its (equivariant) Poincare series."""

    def __init__(self, codim, series):
        codim = _integer(codim, "codimension")
        if codim < 0:
            raise ValueError("codimension must be nonnegative")
        vars(self).update(codim=codim, series=series)


class QuotientDims(_ReadOnly):
    """Complex dimensions of the ambient space, the unipotent group and the
    minimal fixed locus; the quotient fibre codimension is their difference."""

    def __init__(self, dim_x, dim_u, dim_zmin):
        dim_x, dim_u, dim_zmin = (_integer(d, "dimension") for d in (dim_x, dim_u, dim_zmin))
        if min(dim_x, dim_u, dim_zmin) < 0:
            raise ValueError("dimensions must be nonnegative")
        if dim_x < dim_u + dim_zmin:
            raise ValueError(
                "ambient dimension must be at least dim U + dim of the minimal locus"
            )
        vars(self).update(dim_x=dim_x, dim_u=dim_u, dim_zmin=dim_zmin)

    @property
    def codim(self):
        return self.dim_x - self.dim_u - self.dim_zmin


def _require_nonnegative(series, what):
    """Betti data is a dimension count; a negative coefficient is bad input."""
    if any(c < 0 for c in series.coeffs):
        raise ValueError("%s produced a negative coefficient; input inconsistent" % what)
    return series


def poincare_uhat(p_zmin, dims):
    """Series of the quotient by the graded extension U x| C*.

    Multiplies the series of the minimal fixed locus by
    ``(1 - t^{2d}) / (1 - t^2)``, ``d = dim X - dim U - dim Z_min >= 1``.
    The quotient by H = U x| R is the same formula: pass the series of the
    residual-group quotient of the minimal locus, or, when the residual
    group has no stable locus there (a minimal fixed point, say), the
    effective dimensions of the fibration.

    >>> print(poincare_uhat(TruncSeries.one(12), QuotientDims(6, 3, 0)))
    1 + t^2 + t^4
    """
    d = dims.codim
    if d < 1:
        raise ValueError("quotient codimension must be at least 1")
    quotient = (p_zmin - p_zmin.shift(2 * d)).geom_div(2)
    return _require_nonnegative(quotient, "quotient series")


def morse_assemble(strata):
    """Sum of ``t^(2 codim) * series`` over the strata (empty sum is zero)."""
    strata = list(strata)
    if not strata:
        return TruncSeries.zero(0)
    bound = min(s.series.bound for s in strata)
    total = TruncSeries.zero(bound)
    for s in strata:
        total = total + s.series.shift(2 * s.codim)
    return _require_nonnegative(total, "Morse assembly")


class PerfectionReport(_ReadOnly):
    def __init__(self, perfect, remainder, nonnegative):
        # remainder is R with strata_sum - total = (1 + t) R
        vars(self).update(perfect=perfect, remainder=remainder, nonnegative=nonnegative)

    def __bool__(self):
        return self.perfect


def check_perfect(total, strata_sum):
    """Divide the Morse defect by ``(1 + t)`` and report on the quotient.

    The defect ``strata_sum - total`` must be divisible by ``1 + t`` as a
    polynomial over the stored range; a nonzero remainder signals
    inconsistent input data.  The stratification is perfect when the
    quotient vanishes identically; the quotient having a negative
    coefficient violates the Morse inequality direction and is reported.
    """
    diff = strata_sum - total
    bound = diff.bound
    quotient = (diff - diff.shift(1)).geom_div(2).coeffs
    residue = quotient[bound]
    if bound == 0 and residue != 0:
        raise ValueError("Morse defect is a nonzero constant")
    if residue != 0:
        raise ValueError(
            "Morse defect is not divisible by (1 + t); residue %d" % residue
        )
    remainder = TruncSeries(quotient[:bound] or [0], max(bound - 1, 0))
    return PerfectionReport(
        perfect=remainder.is_zero(),
        remainder=remainder,
        nonnegative=all(c >= 0 for c in remainder.coeffs),
    )


def weighted_projective_poincare(weights, bound=None):
    """Rational cohomology series of a weighted projective space.

    Only the number of weights matters rationally: ``m`` weights give
    ``1 + t^2 + ... + t^{2(m-1)}``.
    """
    weights = list(weights)
    if not weights:
        raise ValueError("weight list must be nonempty")
    if any(_integer(w, "weight") <= 0 for w in weights):
        raise ValueError("weights must be positive integers")
    m = len(weights)
    if bound is None:
        bound = 2 * (m - 1)
    one = TruncSeries.one(bound)
    return (one - one.shift(2 * m)).geom_div(2)
