"""JSON value readers: rationals, integers, vectors, polynomials, series,
groups, fixed-point components, rings, moment checks and the extras of a
result document, each validated with the path of its field.

Rationals are strings ``"p/q"`` (or JSON integers); polynomials are arrays of
``{"coeff": "p/q", "exp": [e_0, ..., e_{r-1}]}``; linear forms are arrays of
rationals; Weyl generators are either flat permutation arrays or nested
row-major rational matrices; series are Poincare series, arrays of
nonnegative integer coefficients indexed by the exponent of ``t``.  A reader
raises :class:`ProblemFileError`, whose message starts with the path of the
offending field.
"""

import math
from fractions import Fraction

from .exactnum import TruncSeries, _ReadOnly
from .groupdata import GroupData, _FieldError
from .polyring import LinearForm, MultiPoly

# Largest accepted series truncation bound: a series holds one Python int per
# coefficient, so the bound is a memory budget.
MAX_TRUNCATION_BOUND = 10**6

# Largest accepted Weyl group order, |S_7|: parsing closes the group to check
# the declared order, so the order is a time and memory budget.
MAX_WEYL_ORDER = 5040

# Largest accepted number of monomials of degree at most top_degree + 1 in a
# ring's variables: ring mode builds every graded piece up to that degree, so
# the count is a time and memory budget.
MAX_RING_MONOMIALS = 5000

# Largest accepted number of monomials of degree at most d in a polynomial's
# variables, for each term of total degree d: the residue routes expand
# series in those monomials, so the count is a time budget.  A fixed degree
# would not do, as the cost of one degree grows with the number of variables.
MAX_POLY_MONOMIALS = 20000

# Largest accepted torus rank, of a group or a residue: every polynomial,
# linear form and residue loop has one entry or variable per torus
# coordinate, so the rank is a time and memory budget.
MAX_RANK = 64

# Largest accepted number of series coefficients a morse document stores: each
# stratum and the total series is held out to the truncation bound, so
# (strata + 1) * (bound + 1) is a time and memory budget.
MAX_MORSE_COEFFICIENTS = 10**7

# Largest accepted k of the grassmannian and flag modes: the Borel Euler class
# of a flag (k(k-1)/2 root forms) and the Grassmannian's Vandermonde product
# (k(k-1)) are expanded in full, so k is a time and memory budget.
MAX_SCHUBERT_K = 6


class ProblemFileError(ValueError):
    """Schema violation; the message names the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__("%s: %s" % (path, message))


def _expect(condition, path, message):
    if not condition:
        raise ProblemFileError(path, message)


def _rational(value, path):
    if isinstance(value, bool):
        raise ProblemFileError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ProblemFileError(path, "cannot parse %r as p/q" % value) from None
    raise ProblemFileError(path, "expected an integer or 'p/q' string")


def _int(value, path, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ProblemFileError(path, "must be at least %d" % minimum)
    if maximum is not None and value > maximum:
        raise ProblemFileError(path, "must be at most %d" % maximum)
    return value


def _float(value, path):
    """A JSON number or a rational string, as a finite float."""
    if isinstance(value, float):
        _expect(math.isfinite(value), path, "expected a finite number")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ProblemFileError(path, "expected a number or 'p/q' string")
    try:
        return float(_rational(value, path))
    except OverflowError:
        raise ProblemFileError(path, "number out of floating-point range") from None


def _length(value, length, path):
    """Check that an array has ``length`` entries; ``None`` allows any."""
    if length is not None:
        _expect(len(value) == length, path, "expected length %d, got %d" % (length, len(value)))


def _array(value, key, path, read):
    """The optional array ``value[key]`` (empty when absent), each entry read
    by ``read(entry, entry_path)``."""
    items = value.get(key, [])
    _expect(isinstance(items, list), "%s.%s" % (path, key), "expected an array")
    return [read(item, "%s.%s[%d]" % (path, key, i)) for i, item in enumerate(items)]


def _complex_vector(value, length, path):
    """A nonempty array of ``[re, im]`` number pairs, as a tuple of complex."""
    _expect(
        isinstance(value, list) and value, path, "expected a nonempty array of [re, im] pairs"
    )
    _length(value, length, path)
    out = []
    for i, pair in enumerate(value):
        ppath = "%s[%d]" % (path, i)
        _expect(
            isinstance(pair, list)
            and len(pair) == 2
            and not any(isinstance(x, str) for x in pair),
            ppath,
            "expected an [re, im] pair of numbers",
        )
        out.append(complex(*(_float(x, "%s[%d]" % (ppath, j)) for j, x in enumerate(pair))))
    return tuple(out)


def _vector(value, length, path):
    _expect(isinstance(value, list), path, "expected an array of rationals")
    _length(value, length, path)
    return [_rational(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)]


def _poly(value, nvars, path):
    _expect(isinstance(value, list), path, "expected an array of terms")
    terms = {}
    for i, term in enumerate(value):
        tpath = "%s[%d]" % (path, i)
        _expect(isinstance(term, dict), tpath, "expected a term object")
        _expect("coeff" in term, tpath, "missing 'coeff'")
        _expect("exp" in term, tpath, "missing 'exp'")
        coeff = _rational(term["coeff"], tpath + ".coeff")
        exp = term["exp"]
        _expect(isinstance(exp, list), tpath + ".exp", "expected an array")
        _length(exp, nvars, tpath + ".exp")
        expo = tuple(_int(e, "%s.exp[%d]" % (tpath, j), minimum=0) for j, e in enumerate(exp))
        degree = sum(expo)
        _expect(
            not _more_monomials(nvars, degree, MAX_POLY_MONOMIALS),
            tpath + ".exp",
            "more than %d monomials in degrees 0..%d" % (MAX_POLY_MONOMIALS, degree),
        )
        terms[expo] = terms.get(expo, Fraction(0)) + coeff
    return MultiPoly(nvars, terms)


def _series(value, bound, path):
    """A Poincare series: nonnegative integer coefficients, held to ``bound``
    or, when it is ``None``, to the last given coefficient."""
    _expect(isinstance(value, list), path, "expected an array of integers")
    coeffs = [_int(c, "%s[%d]" % (path, i), minimum=0) for i, c in enumerate(value)]
    if bound is None:
        bound = max(len(coeffs) - 1, 0)
    _expect(len(coeffs) <= bound + 1, path, "more coefficients than the bound allows")
    return TruncSeries(coeffs, bound)


def _tables(value, path):
    """The ``tables`` of a result document: an object of graded dimensions,
    each read as a series, named by one of the ring tables."""
    names = ("graded_dims", "invariant_dims", "annihilator_dims")
    _expect(isinstance(value, dict), path, "expected an object")
    for name, values in value.items():
        _expect(name in names, "%s.%s" % (path, name), "expected one of %s" % ", ".join(names))
        _series(values, None, "%s.%s" % (path, name))
    return value


def _perfection(value, path):
    """The ``perfection`` report of a result document: exactly a boolean
    ``perfect``, a string ``remainder`` and a boolean ``nonnegative``."""
    fields = {"perfect": bool, "remainder": str, "nonnegative": bool}
    _expect(isinstance(value, dict) and set(value) == set(fields), path,
            "expected an object with keys %s" % ", ".join(fields))
    for key, kind in fields.items():
        _expect(isinstance(value[key], kind), "%s.%s" % (path, key),
                "expected a %s" % ("string" if kind is str else "boolean"))
    return value


def _generator(value, path):
    _expect(isinstance(value, list) and value, path, "expected a nonempty array")
    if isinstance(value[0], list):
        return [_vector(row, None, "%s[%d]" % (path, i)) for i, row in enumerate(value)]
    return [_int(x, "%s[%d]" % (path, i)) for i, x in enumerate(value)]


def _group(value, path):
    _expect(isinstance(value, dict), path, "expected a group object")
    rank = _int(value.get("rank"), path + ".rank", minimum=1, maximum=MAX_RANK)
    roots, weights = (
        _array(value, key, path, lambda item, ipath: LinearForm(_vector(item, rank, ipath)))
        for key in ("positive_roots", "unipotent_weights")
    )
    gens = _array(value, "weyl_generators", path, _generator)
    order = _int(value.get("weyl_order", 1), path + ".weyl_order",
                 minimum=1, maximum=MAX_WEYL_ORDER)
    grading = value.get("grading")
    if grading is not None:
        grading = _vector(grading, rank, path + ".grading")
    _expect(
        "inner_product" not in value,
        path + ".inner_product",
        "unsupported: a weight pairs with the grading by evaluation, which needs no metric",
    )
    # GroupData checks the group's rules; its error names the field.
    try:
        return GroupData(rank, roots, weights, gens, order, grading)
    except _FieldError as exc:
        raise ProblemFileError(path + exc.suffix, str(exc)) from None


def _weights(value, rank, path):
    """An array of ``[form, multiplicity]`` pairs, as (LinearForm, int) pairs."""
    _expect(isinstance(value, list), path, "expected an array")
    out = []
    for i, pair in enumerate(value):
        ppath = "%s[%d]" % (path, i)
        _expect(
            isinstance(pair, list) and len(pair) == 2,
            ppath,
            "expected [form, multiplicity]",
        )
        form = LinearForm(_vector(pair[0], rank, ppath + "[0]"))
        out.append((form, _int(pair[1], ppath + "[1]", minimum=1)))
    return tuple(out)


def _fixed_points(value, rank, path):
    from .localize import FixedPointComponent

    _expect(isinstance(value, list) and value, path, "expected a nonempty array")
    out = []
    for i, item in enumerate(value):
        ipath = "%s[%d]" % (path, i)
        _expect(isinstance(item, dict), ipath, "expected a component object")
        _expect("normal_weights" in item, ipath, "missing 'normal_weights'")
        nw = item["normal_weights"]
        _expect(isinstance(nw, list) and nw, ipath + ".normal_weights", "expected a nonempty array")
        weights = _weights(nw, rank, ipath + ".normal_weights")
        restriction = item.get("restriction")
        if restriction is not None:
            restriction = _poly(restriction, rank, ipath + ".restriction")
        lam = _rational(item.get("lambda_weight", 0), ipath + ".lambda_weight")
        try:
            out.append(
                FixedPointComponent(
                    name=str(item.get("name", "F%d" % i)),
                    normal_weights=weights,
                    restriction=restriction,
                    lambda_weight=lam,
                    is_min=item.get("is_min", False),
                )
            )
        except ValueError as exc:
            raise ProblemFileError(ipath + getattr(exc, "suffix", ""), str(exc)) from None
    return tuple(out)


def _more_monomials(nvars, degree, budget):
    """Whether C(nvars + degree, nvars), the number of monomials of degree at
    most ``degree`` in ``nvars`` variables, exceeds ``budget``.  It is built
    as C(m + i, i) for i = 1..min(nvars, degree), with m the larger of the
    two; those values grow with i, so the loop stops once one passes."""
    k = min(nvars, degree)
    count = 1
    for i in range(1, k + 1):
        count = count * (nvars + degree - k + i) // i
        if count > budget:
            return True
    return False


def _ring(value, path):
    from .cohring import GradedRingPresentation

    _expect(isinstance(value, dict), path, "expected a ring object")
    _expect(
        "dims" not in value, path + ".dims", "ring mode needs nvars, relations and top_degree"
    )
    nvars = _int(value.get("nvars"), path + ".nvars", minimum=1)
    top = _int(value.get("top_degree"), path + ".top_degree", minimum=0)
    _expect(
        not _more_monomials(nvars, top + 1, MAX_RING_MONOMIALS),
        path + ".top_degree",
        "more than %d monomials in degrees 0..%d" % (MAX_RING_MONOMIALS, top + 1),
    )
    relations = _array(value, "relations", path, lambda item, ipath: _poly(item, nvars, ipath))
    try:
        return GradedRingPresentation.polynomial_quotient(nvars, relations, top)
    except ValueError as exc:
        raise ProblemFileError(path, str(exc)) from None


class MomentCheck(_ReadOnly):
    """One ``moment_checks`` item: the sample, and the declared weight and
    tangent vector to check it against, each ``None`` when absent."""

    def __init__(self, sample, weight, tangent):
        vars(self).update(sample=sample, weight=weight, tangent=tangent)


def _moment_check(item, path):
    from .momentdiag import LinearActionSample

    _expect(isinstance(item, dict), path, "expected an object")
    _expect("point" in item, path + ".point", "missing")
    _expect("matrix" in item, path + ".matrix", "missing")
    point = _complex_vector(item["point"], None, path + ".point")
    _expect(any(point), path + ".point", "must be a nonzero vector")
    n = len(point)
    matrix = item["matrix"]
    _expect(
        isinstance(matrix, list) and len(matrix) == n,
        path + ".matrix",
        "expected a square matrix with %d rows, one per point coordinate" % n,
    )
    matrix = tuple(
        _complex_vector(row, n, "%s.matrix[%d]" % (path, i)) for i, row in enumerate(matrix)
    )
    shift = complex(_float(item.get("shift", 0), path + ".shift"))
    weight = tangent = None
    if "weight" in item:
        weight = _float(item["weight"], path + ".weight")
    if "tangent" in item:
        tangent = _complex_vector(item["tangent"], n, path + ".tangent")
    return MomentCheck(LinearActionSample(point, matrix, shift), weight, tangent)
