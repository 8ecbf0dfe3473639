"""Sparse exact multivariate polynomials, linear forms and factored ratios.

Polynomials live in a fixed number of variables ``z_0 .. z_{r-1}`` (names are
positional; pretty names belong to the I/O layer).  A monomial is a plain
tuple of nonnegative integer exponents, a :class:`MultiPoly` maps monomials to
nonzero Fractions, a :class:`LinearForm` is a degree-one functional given by
its coefficient vector, and a :class:`RationalFn` keeps its denominator as a
multiset of linear-form factors, never expanded.  All the residue machinery
consumes exactly these shapes: equivariant Euler classes and Weyl factors are
products of linear forms, so the factored representation is the natural one.
Products, powers and the Weyl action share one private kernel on
``{monomial: coefficient}`` dicts, so int coefficients stay ints through it.

The public constructors (``MultiPoly(...)`` and its classmethods,
``LinearForm``, ``RationalFn``) validate their input; a result computed
from already-valid polynomials is stored by the private trusted
constructor :func:`_trusted_poly`, which only drops zero coefficients, and
one over an already-valid denominator by :func:`_trusted_fn`, whose factors
:func:`_merge` puts in order.

>>> p = MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1)   # z0 + z1
>>> q = MultiPoly.variable(2, 0) - MultiPoly.variable(2, 1)   # z0 - z1
>>> (p * q).terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
True
"""

from fractions import Fraction
from operator import add

from .exactnum import _integer, as_fraction
from . import _linalg

__all__ = [
    "MultiPoly",
    "LinearForm",
    "RationalFn",
    "weyl_element",
    "weyl_act",
]


def _times(a, b):
    """Product of two ``{monomial: coefficient}`` dicts, int or Fraction; a
    sum that cancels stays as a zero until :func:`_trusted_poly` prunes it."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _power(a, k):
    """``a ** k`` for a dict as in :func:`_times` and ``k >= 1``, by squaring."""
    result = None
    while True:
        if k & 1:
            result = a if result is None else _times(result, a)
        k >>= 1
        if not k:
            return result
        a = _times(a, a)


class MultiPoly:
    """Sparse polynomial with exact rational coefficients.

    Invariant: every stored coefficient is a nonzero Fraction, and every
    exponent tuple holds ``nvars`` nonnegative ints.  ``MultiPoly(...)``
    checks its input against it (an exponent must be an int and not a bool,
    a coefficient an int, a Fraction or a ``'p/q'`` string) and prunes zero
    coefficients; kernel results are built by :func:`_trusted_poly`, which
    keeps it without re-checking.  Instances are immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        nvars = _integer(nvars, "variable count")
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(map(_integer, expo))
            if len(expo) != nvars:
                raise ValueError(
                    "exponent vector %r has length %d, expected %d"
                    % (expo, len(expo), nvars)
                )
            if expo and min(expo) < 0:
                raise ValueError("negative exponent in polynomial monomial")
            coeff = as_fraction(coeff)
            if coeff:
                clean[expo] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars):
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars, index, power=1):
        nvars = _integer(nvars, "variable count")
        index = _integer(index, "variable index")
        if index not in range(nvars):
            raise ValueError("variable index must be in 0..%d, got %d" % (nvars - 1, index))
        return cls(nvars, {tuple(power if i == index else 0 for i in range(nvars)): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or set(self.terms) == {(0,) * self.nvars}

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def coefficient(self, monomial):
        monomial = tuple(map(_integer, monomial))
        if len(monomial) != self.nvars:
            raise ValueError("monomial length does not match variable count")
        return self.terms.get(monomial, Fraction(0))

    def total_degree(self):
        """Max total degree of the support, or -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other):
        if self.nvars != other.nvars:
            raise ValueError(
                "variable count mismatch: %d vs %d" % (self.nvars, other.nvars)
            )

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return _trusted_poly(self.nvars, out)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _trusted_poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check_compatible(other)
            return _trusted_poly(self.nvars, _times(self.terms, other.terms))
        coeff = as_fraction(other)
        return _trusted_poly(self.nvars, {e: c * coeff for e, c in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        n = _integer(n)
        if n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if not n:
            return _trusted_poly(self.nvars, {(0,) * self.nvars: Fraction(1)})
        return _trusted_poly(self.nvars, _power(self.terms, n))

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    # -- display -----------------------------------------------------------

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = self.terms[expo]
            factors = []
            for i, e in enumerate(expo):
                if e == 1:
                    factors.append("z%d" % i)
                elif e > 1:
                    factors.append("z%d^%d" % (i, e))
            mag = "*".join(factors)
            c = abs(coeff)
            if not mag:
                body = str(c)
            elif c == 1:
                body = mag
            else:
                body = "%s*%s" % (c, mag)
            if not parts:
                parts.append(("-" if coeff < 0 else "") + body)
            else:
                parts.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "MultiPoly(%d, %r)" % (self.nvars, self.terms)

    def __str__(self):
        return self.render()


def _trusted_poly(nvars, terms):
    """The trusted constructor: a :class:`MultiPoly` of ``terms`` with its
    zero coefficients dropped, and nothing else checked.  Only for results
    computed from valid polynomials, whose exponent tuples already hold
    ``nvars`` nonnegative ints and whose coefficients are Fractions."""
    poly = object.__new__(MultiPoly)
    object.__setattr__(poly, "nvars", nvars)
    object.__setattr__(poly, "terms", {e: c for e, c in terms.items() if c})
    return poly


class LinearForm:
    """A linear functional sum(c_i * z_i) given by its coefficient vector.

    Forms key every denominator merge, so the hash is computed once."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs):
        coeffs = tuple(map(as_fraction, coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", hash(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("LinearForm is immutable")

    @property
    def nvars(self):
        return len(self.coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __call__(self, vector):
        if len(vector) != len(self.coeffs):
            raise ValueError("vector length does not match form")
        return sum(
            (c * as_fraction(v) for c, v in zip(self.coeffs, vector)), Fraction(0)
        )

    def to_poly(self):
        n = len(self.coeffs)
        unit = (0,) * n
        return _trusted_poly(n, {unit[:i] + (1,) + unit[i + 1:]: c
                                 for i, c in enumerate(self.coeffs)})

    def __neg__(self):
        return LinearForm([-c for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def act(self, element):
        """This form with each ``z_i`` replaced by its image under
        ``element``, in the form :func:`weyl_element` returns: the row vector
        of coefficients times the element's matrix."""
        out = [0] * len(element)
        for c, row in zip(self.coeffs, element):
            for j, a in row:
                out[j] += c * a
        return LinearForm(out)

    def render(self):
        return self.to_poly().render()

    def __repr__(self):
        return "LinearForm(%r)" % (list(self.coeffs),)


def _as_form(value):
    """``value`` as a :class:`LinearForm`, validated unless it is one."""
    return value if isinstance(value, LinearForm) else LinearForm(value)


class RationalFn:
    """Ratio of a polynomial by a product of linear-form factors.

    The denominator is stored factored as ``((form, multiplicity), ...)``;
    equal forms are merged.  No cancellation against the numerator is
    attempted: residue extraction never needs it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        factors = []
        for form, mult in den:
            form = _as_form(form)
            if form.is_zero():
                raise ValueError("zero linear form in denominator")
            if form.nvars != num.nvars:
                raise ValueError("denominator form length does not match ring")
            mult = _integer(mult, "denominator multiplicity")
            if mult <= 0:
                raise ValueError("denominator multiplicities must be positive")
            factors.append((form, mult))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", _merge(factors))

    def __setattr__(self, *args):
        raise AttributeError("RationalFn is immutable")

    @property
    def nvars(self):
        return self.num.nvars

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and not self.den

    def constant_value(self):
        if self.den and not self.num.is_zero():
            raise ValueError("rational function has a nontrivial denominator")
        return self.num.constant_value()

    def __mul__(self, other):
        if isinstance(other, RationalFn):
            return _trusted_fn(self.num * other.num, _merge(self.den + other.den))
        # a polynomial or a scalar: the denominator is already validated
        return _trusted_fn(self.num * other, self.den)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        mine = dict(self.den)
        theirs = dict(other.den)
        common = {f: max(mine.get(f, 0), theirs.get(f, 0)) for f in {*mine, *theirs}}

        def lift(num, den):
            for f, m in common.items():
                if m > den.get(f, 0):
                    num = num * f.to_poly() ** (m - den.get(f, 0))
            return num

        return _trusted_fn(lift(self.num, mine) + lift(other.num, theirs), _merge(common.items()))

    def render(self):
        num = self.num.render()
        if not self.den:
            return num
        factors = []
        for form, mult in self.den:
            base = "(%s)" % form.render()
            factors.append(base if mult == 1 else "%s^%d" % (base, mult))
        return "(%s) / (%s)" % (num, "*".join(factors))

    def __repr__(self):
        return "RationalFn(%r, %r)" % (self.num, list(self.den))


def _merge(factors):
    """Valid ``(form, multiplicity)`` factors as :attr:`RationalFn.den` holds
    them: equal forms merged, multiplicities summed, sorted by coefficients."""
    merged = {}
    for form, mult in factors:
        merged[form] = merged.get(form, 0) + mult
    return tuple(sorted(merged.items(), key=lambda fm: fm[0].coeffs))


def _trusted_fn(num, den):
    """The trusted constructor of :class:`RationalFn`: ``num`` over ``den``,
    stored as given; ``den`` holds sorted, merged factors of valid ones, as
    :func:`_merge` returns them."""
    fn = object.__new__(RationalFn)
    object.__setattr__(fn, "num", num)
    object.__setattr__(fn, "den", den)
    return fn


def weyl_element(gen, nvars):
    """Validate a Weyl element and normalise it to its variable images.

    ``gen`` is a permutation of ``0..nvars-1`` (``z_i -> z_{gen[i]}``) or an
    invertible rational matrix (``z_i -> sum_j gen[i][j] z_j``).  The result
    holds, per ``z_i``, the nonzero ``(j, c)`` pairs of its image by ``j``.
    An integral ``c`` is an ``int``, so permutations and signed permutations
    compose and act in int arithmetic.

    >>> swap = weyl_element((1, 0), 2)
    >>> swap
    (((1, 1),), ((0, 1),))
    >>> swap == weyl_element([[0, 1], [1, 0]], 2)
    True
    >>> weyl_element([[-1, 0], ["1/2", 1]], 2)
    (((0, -1),), ((0, Fraction(1, 2)), (1, 1)))
    >>> z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    >>> weyl_act(z0 ** 2 * z1, swap) == z0 * z1 ** 2
    True
    """
    if gen and not isinstance(gen[0], (list, tuple)):
        perm = [_integer(x, "permutation entry") for x in gen]
        if sorted(perm) != list(range(nvars)):
            raise ValueError("generator is not a permutation of 0..%d" % (nvars - 1))
        return tuple(((j, 1),) for j in perm)
    matrix = _linalg.to_matrix(gen)
    if len(matrix) != nvars or any(len(row) != nvars for row in matrix):
        raise ValueError("generator matrix size does not match rank")
    if _linalg.det(matrix) == 0:
        raise ValueError("Weyl generator is not invertible")
    return _matrix_element(matrix)


def _matrix_element(matrix):
    """The :func:`weyl_element` form of a square Fraction matrix already
    known to be invertible."""
    return tuple(
        tuple((j, int(c) if c.denominator == 1 else c) for j, c in enumerate(row) if c != 0)
        for row in matrix
    )


def weyl_act(poly, element):
    """Apply a Weyl element, in the form :func:`weyl_element` returns, to a
    polynomial: substitute each ``z_i`` by its image.  A term is the product
    of the image powers it needs, each taken once, times its coefficient."""
    n = poly.nvars
    unit = (0,) * n
    images = [{unit[:j] + (1,) + unit[j + 1:]: c for j, c in row} for row in element]
    powers = [{} for _ in range(n)]
    out = {}
    for expo, coeff in poly.terms.items():
        term = {unit: 1}
        for i, e in enumerate(expo):
            if e:
                if e not in powers[i]:
                    powers[i][e] = _power(images[i], e)
                term = _times(term, powers[i][e])
        for mono, c in term.items():
            if mono in out:
                out[mono] += c * coeff
            else:
                out[mono] = c * coeff
    return _trusted_poly(n, out)
