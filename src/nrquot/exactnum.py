"""Exact scalar arithmetic and truncated integer power series.

Every scalar that enters a symbolic computation in this package is an
arbitrary-precision rational (``fractions.Fraction``), and every Betti
generating function is a :class:`TruncSeries`: an integer-coefficient
polynomial in ``t`` known up to a truncation bound.  Floats are rejected
at construction time so that no rounding can leak into a symbolic path;
numerical diagnostics live in :mod:`nrquot.momentdiag` and nowhere else.
"""

from fractions import Fraction
from operator import index

__all__ = [
    "as_fraction",
    "TruncSeries",
]


def as_fraction(value):
    """Coerce ``value`` to Fraction, refusing floats and other inexact types."""
    cls = type(value)
    if cls is Fraction:
        return value
    if cls is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(
        "expected int, Fraction or 'p/q' string, got %r" % type(value).__name__
    )


def _integer(value, what="exponent"):
    """``value`` as an int: an exponent, a multiplicity or any other count the
    library takes (a variable count, a rank, a weight, a dimension, an order,
    a bound).  A bool or a value without ``__index__`` (a float, a Fraction,
    a string) is a TypeError."""
    if type(value) is not bool:
        try:
            return index(value)
        except TypeError:
            pass
    raise TypeError("%s must be an integer, got %r" % (what, value))


def _as_int_coeff(value):
    """Coerce a series coefficient to int; non-integers are a hard error."""
    if isinstance(value, bool):
        raise TypeError("booleans are not series coefficients")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        raise ValueError("non-integer series coefficient %s" % value)
    raise TypeError("series coefficients must be integers, got %r" % (value,))


class _ReadOnly:
    """Base of the package's value records.

    A subclass's ``__init__`` validates its arguments and stores the fields
    through ``vars(self)``; after that no field can be assigned or deleted.
    """

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


def _series_text(coeffs, lead_minus="- ", times="*", power="t^%d"):
    """Render series coefficients as a sum of terms in ``t``: ``lead_minus``
    signs a negative first term, ``times`` joins a coefficient to its power
    of ``t`` and ``power`` spells ``t^e`` for ``e >= 2``.  The defaults give
    the text form; the CLI passes its LaTeX spellings."""
    parts = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        body = str(abs(c)) if e == 0 else "t" if e == 1 else power % e
        if e and abs(c) != 1:
            body = "%d%s%s" % (abs(c), times, body)
        sign = ("- " if c < 0 else "+ ") if parts else (lead_minus if c < 0 else "")
        parts.append(sign + body)
    return " ".join(parts) if parts else "0"


class TruncSeries:
    """Integer power series in ``t`` truncated above a fixed bound.

    Coefficients are stored for exponents ``0..bound`` inclusive; anything
    beyond the bound is unknown and never read.  A sum or difference is
    known up to the smaller operand bound; ``shift`` and ``geom_div`` keep
    the bound and drop the terms they push past it.

    >>> a = TruncSeries([1, 0, 1], 4)   # 1 + t^2, known up to t^4
    >>> print(a.shift(2))
    t^2 + t^4
    >>> print((a - a.shift(4)).geom_div(2))
    1 + 2*t^2 + t^4
    """

    __slots__ = ("coeffs", "bound")

    def __init__(self, coeffs, bound):
        bound = _integer(bound, "truncation bound")
        if bound < 0:
            raise ValueError("truncation bound must be nonnegative")
        coeffs = [_as_int_coeff(c) for c in coeffs]
        if len(coeffs) > bound + 1:
            raise ValueError("more coefficients than the bound allows")
        coeffs.extend([0] * (bound + 1 - len(coeffs)))
        self.coeffs = tuple(coeffs)
        self.bound = bound

    @classmethod
    def zero(cls, bound):
        return cls([], bound)

    @classmethod
    def one(cls, bound):
        return cls([1], bound)

    @classmethod
    def from_dict(cls, terms, bound):
        c = [0] * (bound + 1)
        for e, v in terms.items():
            if 0 <= e <= bound:
                c[e] = v
            elif v != 0 and e < 0:
                raise ValueError("negative exponent in series")
        return cls(c, bound)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.bound == other.bound and self.coeffs == other.coeffs

    def coefficient(self, exponent):
        if not 0 <= exponent <= self.bound:
            raise IndexError("exponent %d beyond truncation bound" % exponent)
        return self.coeffs[exponent]

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def degree(self):
        """Largest exponent with nonzero coefficient, or -1 for zero."""
        for e in range(self.bound, -1, -1):
            if self.coeffs[e] != 0:
                return e
        return -1

    def __add__(self, other):
        b = min(self.bound, other.bound)
        return TruncSeries([x + y for x, y in zip(self.coeffs, other.coeffs)], b)

    def __sub__(self, other):
        b = min(self.bound, other.bound)
        return TruncSeries([x - y for x, y in zip(self.coeffs, other.coeffs)], b)

    def shift(self, k):
        """Multiply by ``t^k``; the terms pushed past the bound are dropped."""
        k = _integer(k, "shift")
        if k < 0:
            raise ValueError("shift must be nonnegative")
        kept = max(self.bound + 1 - k, 0)
        return TruncSeries([0] * (self.bound + 1 - kept) + list(self.coeffs[:kept]), self.bound)

    def geom_div(self, k):
        """Multiply by the geometric series ``1 + t^k + t^{2k} + ...``.

        This is exact division by ``1 - t^k`` in the truncated ring.
        """
        if not isinstance(k, int) or k < 2 or k % 2 != 0:
            raise ValueError("geometric divisor stride must be an even integer >= 2")
        out = list(self.coeffs)
        for i in range(k, self.bound + 1):
            out[i] += out[i - k]
        return TruncSeries(out, self.bound)

    def __str__(self):
        return _series_text(self.coeffs)

    def __repr__(self):
        return "TruncSeries(%r, bound=%d)" % (list(self.coeffs), self.bound)

