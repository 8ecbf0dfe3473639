"""JSON problem files: schema, validation with field paths, construction,
and the mode table.

Rationals are strings ``"p/q"`` (or JSON integers); polynomials are arrays of
``{"coeff": "p/q", "exp": [e_0, ..., e_{r-1}]}``; linear forms are arrays of
rationals; Weyl generators are either flat permutation arrays or nested
row-major rational matrices; series are integer coefficient arrays indexed
by the exponent of ``t``.  Validation failures carry the path of the
offending field.

``MODES`` is the one list of modes: it maps each mode to the parser of its
sections, which :class:`ProblemFile` calls, and to its handler, which the
CLI dispatches through.
"""

import math
from fractions import Fraction

from .betti import (
    QuotientDims, StratumDatum, check_perfect, morse_assemble, poincare_H, poincare_uhat,
)
from .exactnum import TruncSeries, _ReadOnly
from .cohring import (
    GradedRingPresentation, _quotient_betti_with_invariants, annihilator_dims, graded_dims,
)
from .groupdata import ConeChoice, GroupData, check_grading, euler_class_nonreductive
from .localize import (
    FixedPointComponent, PairingProblem, _minimality_mismatches, flag_pairing,
    grassmannian_pairing, integrate_abelianized, integrate_nonreductive, integrate_reductive,
    integrate_uhat, torus_pairing_fn,
)
from .momentdiag import LinearActionSample
from .polyring import LinearForm, MultiPoly, RationalFn
from .residue import ResidueProblem, jk_residue

__all__ = ["ProblemFileError", "ProblemFile", "parse"]

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
        terms[expo] = terms.get(expo, Fraction(0)) + coeff
    return MultiPoly(nvars, terms)


def _series(value, bound, path):
    _expect(isinstance(value, list), path, "expected an array of integers")
    coeffs = [_int(c, "%s[%d]" % (path, i)) for i, c in enumerate(value)]
    if bound is None:
        bound = max(len(coeffs) - 1, 0)
    _expect(len(coeffs) <= bound + 1, path, "more coefficients than the bound allows")
    return TruncSeries(coeffs, bound)


def _generator(value, path):
    _expect(isinstance(value, list) and value, path, "expected a nonempty array")
    if isinstance(value[0], list):
        return tuple(
            tuple(_vector(row, None, "%s[%d]" % (path, i))) for i, row in enumerate(value)
        )
    return tuple(_int(x, "%s[%d]" % (path, i)) for i, x in enumerate(value))


def _group(value, path):
    _expect(isinstance(value, dict), path, "expected a group object")
    rank = _int(value.get("rank"), path + ".rank", minimum=1)
    roots = value.get("positive_roots", [])
    _expect(isinstance(roots, list), path + ".positive_roots", "expected an array")
    roots = [
        LinearForm(_vector(r, rank, "%s.positive_roots[%d]" % (path, i)))
        for i, r in enumerate(roots)
    ]
    weights = value.get("unipotent_weights", [])
    _expect(isinstance(weights, list), path + ".unipotent_weights", "expected an array")
    weights = [
        LinearForm(_vector(w, rank, "%s.unipotent_weights[%d]" % (path, i)))
        for i, w in enumerate(weights)
    ]
    gens = value.get("weyl_generators", [])
    _expect(isinstance(gens, list), path + ".weyl_generators", "expected an array")
    gens = [
        _generator(g, "%s.weyl_generators[%d]" % (path, i)) for i, g in enumerate(gens)
    ]
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
    try:
        group = GroupData(
            rank=rank,
            positive_roots=tuple(roots),
            unipotent_weights=tuple(weights),
            weyl_generators=tuple(gens),
            weyl_order=order,
            grading=tuple(grading) if grading is not None else None,
        )
    except ValueError as exc:
        raise ProblemFileError(path, str(exc)) from None
    # Pairings divide by the Weyl order, so generators that do not generate a
    # group of that order change answers.
    try:
        group.generator_elements()
    except ValueError as exc:
        raise ProblemFileError(path + ".weyl_generators", str(exc)) from None
    try:
        group.weyl_elements()
    except ValueError as exc:
        raise ProblemFileError(path + ".weyl_order", str(exc)) from None
    return group


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
        is_min = item.get("is_min", False)
        _expect(isinstance(is_min, bool), ipath + ".is_min", "expected a boolean")
        try:
            out.append(
                FixedPointComponent(
                    name=str(item.get("name", "F%d" % i)),
                    normal_weights=weights,
                    restriction=restriction,
                    lambda_weight=lam,
                    is_min=is_min,
                )
            )
        except ValueError as exc:
            raise ProblemFileError(ipath, str(exc)) from None
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
    _expect(isinstance(value, dict), path, "expected a ring object")
    _expect(
        "dims" not in value, path + ".dims", "ring mode needs nvars, relations and top_degree"
    )
    nvars = _int(value.get("nvars"), path + ".nvars", minimum=1)
    rels = value.get("relations", [])
    _expect(isinstance(rels, list), path + ".relations", "expected an array")
    relations = [
        _poly(r, nvars, "%s.relations[%d]" % (path, i)) for i, r in enumerate(rels)
    ]
    top = _int(value.get("top_degree"), path + ".top_degree", minimum=0)
    _expect(
        not _more_monomials(nvars, top + 1, MAX_RING_MONOMIALS),
        path + ".top_degree",
        "more than %d monomials in degrees 0..%d" % (MAX_RING_MONOMIALS, top + 1),
    )
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


def _pairing_sections(p, doc, graded=False):
    """``fixed_points``, then ``class``; ``graded`` (pair_uhat) also checks
    the rank and the ``is_min`` flags in between."""
    _expect(p.group is not None, "$.group", "pairing modes need a group section")
    _expect("fixed_points" in doc, "$.fixed_points", "pairing modes need fixed points")
    p.fixed_points = _fixed_points(doc["fixed_points"], p.group.rank, "$.fixed_points")
    if graded:
        _expect(p.group.rank == 1, "$.group.rank",
                "expected 1: the graded-extension pairing needs a rank 1 torus")
        for i in _minimality_mismatches(p.fixed_points):
            want, lam = not p.fixed_points[i].is_min, p.fixed_points[i].lambda_weight
            raise ProblemFileError(
                "$.fixed_points[%d].is_min" % i,
                "expected %s: lambda_weight %s is %sthe least moment value"
                % (str(want).lower(), lam, "" if want else "not "),
            )
    if "class" in doc:
        p.class_eta = _poly(doc["class"], p.group.rank, "$.class")


def _betti_sections(p, doc):
    _expect("dims" in doc, "$.dims", "Betti modes need a dims section")
    dims = doc["dims"]
    _expect(isinstance(dims, dict), "$.dims", "expected an object")
    try:
        p.dims = QuotientDims(
            _int(dims.get("dim_x"), "$.dims.dim_x", minimum=0),
            _int(dims.get("dim_u"), "$.dims.dim_u", minimum=0),
            _int(dims.get("dim_zmin"), "$.dims.dim_zmin", minimum=0),
        )
    except ValueError as exc:
        raise ProblemFileError("$.dims", str(exc)) from None
    if p.group is not None:
        # The Betti formulas assume one Lie(U) weight per dimension of U,
        # each pairing positively with the grading.
        weights = p.group.unipotent_weights
        _expect(
            p.dims.dim_u == len(weights),
            "$.dims.dim_u",
            "expected %d, the number of group.unipotent_weights" % len(weights),
        )
        failures = check_grading(p.group).failures
        if failures:
            weight, value = failures[0]
            raise ProblemFileError(
                "$.group.grading",
                "unipotent weight %s pairs to %s with the grading; "
                "it must be positive" % (weight.render(), value),
            )
    bound = p.truncation_bound
    if bound is None:
        bound = 2 * p.dims.dim_x
        _expect(
            bound <= MAX_TRUNCATION_BOUND,
            "$.dims.dim_x",
            "the default truncation bound 2 * dim_x exceeds %d; "
            "set options.truncation_bound" % MAX_TRUNCATION_BOUND,
        )
    p.zmin_series = _series(doc.get("zmin_series", [1]), bound, "$.zmin_series")


def _morse_sections(p, doc):
    _expect("strata" in doc, "$.strata", "morse mode needs strata")
    strata = doc["strata"]
    _expect(isinstance(strata, list), "$.strata", "expected an array")
    bound = p.truncation_bound
    p.strata = []
    for i, item in enumerate(strata):
        ipath = "$.strata[%d]" % i
        _expect(isinstance(item, dict), ipath, "expected a stratum object")
        codim = _int(item.get("codim"), ipath + ".codim", minimum=0)
        series = _series(item.get("series", [1]), bound, ipath + ".series")
        p.strata.append(StratumDatum(codim, series))
    p.total_series = None
    if "total_series" in doc:
        p.total_series = _series(doc["total_series"], bound, "$.total_series")


def _ring_sections(p, doc):
    _expect("ring" in doc, "$.ring", "ring mode needs a ring section")
    _expect(p.group is not None, "$.group", "ring mode needs a group section")
    p.ring = _ring(doc["ring"], "$.ring")
    _expect(
        p.ring.nvars == p.group.rank,
        "$.ring.nvars",
        "expected %d, the group rank" % p.group.rank,
    )


def _residue_sections(p, doc):
    _expect("integrand" in doc, "$.integrand", "residue mode needs an integrand")
    section = doc["integrand"]
    _expect(isinstance(section, dict), "$.integrand", "expected an object")
    rank = p.group.rank if p.group else _int(doc.get("rank"), "$.rank", minimum=1)
    if p.cone is not None:
        _length(p.cone.xi, rank, "$.cone")
    num = _poly(section.get("numerator", []), rank, "$.integrand.numerator")
    den = _weights(section.get("denominator", []), rank, "$.integrand.denominator")
    try:
        p.integrand = RationalFn(num, den)
    except ValueError as exc:
        raise ProblemFileError("$.integrand", str(exc)) from None
    p.basis = None
    if "basis" in doc:
        basis = doc["basis"]
        _expect(isinstance(basis, list), "$.basis", "expected an array of forms")
        _length(basis, rank, "$.basis")
        p.basis = tuple(
            LinearForm(_vector(b, rank, "$.basis[%d]" % i)) for i, b in enumerate(basis)
        )
    p.epsilon = None
    if "epsilon" in doc:
        p.epsilon = tuple(_vector(doc["epsilon"], rank, "$.epsilon"))


def _schubert_sections(p, doc):
    p.k = _int(doc.get("k"), "$.k", minimum=1)
    p.n = _int(doc.get("n"), "$.n", minimum=p.k)
    _expect("phi" in doc, "$.phi", "missing the class to integrate")
    p.phi = _poly(doc["phi"], p.k, "$.phi")


def _result(value, **extras):
    """A result document without its mode: a series or an exact scalar."""
    kind = "series" if isinstance(value, TruncSeries) else "rational"
    return {"kind": kind, "value": value, **extras}


def _oriented(value, problem, rank):
    """The value in the orientation the problem asks for: ``options.sign_flip``
    (or ``--sign-flip``) takes each of the ``rank`` residues at infinity with
    the opposite sign, which multiplies the value by (-1)^rank."""
    return value * (-1) ** rank if problem.sign_flip else value


def _pair_abelianized(p):
    euler = euler_class_nonreductive(p.group)
    order = p.group.weyl_order
    # the route divides by the Weyl order itself, so only an override of the
    # default constant 1/|W| leaves a scale on the torus pairing
    pairing = torus_pairing_fn(
        p.fixed_points, cone=p.cone, normalization=order * p.pairing_problem().constant()
    )
    return _result(integrate_abelianized(pairing, p.class_eta, euler, order))


def _morse(p):
    assembled = morse_assemble(p.strata)
    if p.total_series is None:
        return _result(assembled)
    report = check_perfect(p.total_series, assembled)
    return _result(assembled, perfection={
        "perfect": report.perfect,
        "remainder": str(report.remainder),
        "nonnegative": report.nonnegative,
    })


def _ring_betti(p):
    ring, group = p.ring, p.group
    series, inv, euler = _quotient_betti_with_invariants(ring, group, group)
    return _result(series, tables={
        "graded_dims": list(graded_dims(ring)),
        "invariant_dims": [len(inv.get(d, [])) for d in range(ring.top_degree + 1)],
        "annihilator_dims": list(annihilator_dims(ring, euler)),
    })


def _residue(p):
    residue = ResidueProblem(p.integrand, p.cone, p.basis)
    if p.epsilon is not None and min(p.epsilon) < 0:
        residue.validate()  # a bad cone or basis still fails
        return _result(Fraction(0))
    return _result(_oriented(jk_residue(residue), p, p.integrand.nvars))


# The one mode table, in the order the $.mode error lists it: mode ->
# (sections, run).  ``sections(problem, doc)`` parses the mode's own sections
# after options, group and cone; ``run(problem)`` computes the result
# document without its mode, and the CLI dispatches through it.  Handlers
# name the computation functions in their bodies, so they call whatever the
# module binds at call time.  Only pair_uhat and residue read the orientation.
MODES = {
    "pair_reductive": (
        _pairing_sections, lambda p: _result(integrate_reductive(p.pairing_problem()))),
    "pair_uhat": (
        lambda p, doc: _pairing_sections(p, doc, graded=True),
        lambda p: _result(_oriented(integrate_uhat(p.pairing_problem()), p, 1))),
    "pair_nonreductive": (
        _pairing_sections, lambda p: _result(integrate_nonreductive(p.pairing_problem()))),
    "pair_abelianized": (_pairing_sections, _pair_abelianized),
    "betti_uhat": (_betti_sections, lambda p: _result(poincare_uhat(p.zmin_series, p.dims))),
    "betti_H": (_betti_sections, lambda p: _result(poincare_H(p.zmin_series, p.dims))),
    "morse": (_morse_sections, _morse),
    "ring": (_ring_sections, _ring_betti),
    "residue": (_residue_sections, _residue),
    "grassmannian": (
        _schubert_sections, lambda p: _result(grassmannian_pairing(p.k, p.n, p.phi))),
    "flag": (_schubert_sections, lambda p: _result(flag_pairing(p.k, p.n, p.phi))),
}


class ProblemFile:
    """A parsed problem: mode, typed sections, and rendering options."""

    def __init__(self, doc):
        _expect(isinstance(doc, dict), "$", "problem file must be a JSON object")
        mode = doc.get("mode")
        _expect(
            isinstance(mode, str) and mode in MODES,
            "$.mode",
            "expected one of %s, got %r" % (", ".join(MODES), mode),
        )
        self.mode = mode
        self.doc = doc
        options = doc.get("options", {})
        _expect(isinstance(options, dict), "$.options", "expected an object")
        self.truncation_bound = None
        if "truncation_bound" in options:
            self.truncation_bound = _int(
                options["truncation_bound"],
                "$.options.truncation_bound",
                minimum=0,
                maximum=MAX_TRUNCATION_BOUND,
            )
        self.normalization = None
        if "normalization" in options:
            self.normalization = _rational(
                options["normalization"], "$.options.normalization"
            )
        self.sign_flip = options.get("sign_flip", False)
        _expect(
            isinstance(self.sign_flip, bool), "$.options.sign_flip", "expected a boolean"
        )

        self.group = None
        if "group" in doc:
            self.group = _group(doc["group"], "$.group")

        self.cone = None
        if "cone" in doc:
            rank = self.group.rank if self.group else None
            self.cone = ConeChoice(tuple(_vector(doc["cone"], rank, "$.cone")))

        self.class_eta = None
        MODES[mode][0](self, doc)

        self.moment_checks = []
        if "moment_checks" in doc:
            checks = doc["moment_checks"]
            _expect(isinstance(checks, list), "$.moment_checks", "expected an array")
            self.moment_checks = [
                _moment_check(item, "$.moment_checks[%d]" % i)
                for i, item in enumerate(checks)
            ]

    def pairing_problem(self):
        return PairingProblem(
            group=self.group,
            fixed_points=self.fixed_points,
            class_eta=self.class_eta,
            cone=self.cone,
            normalization=self.normalization,
        )


def parse(doc):
    return ProblemFile(doc)
