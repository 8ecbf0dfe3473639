"""Problem files: the sections each mode reads, the handler that runs it,
and the mode table.

``MODES`` is the one list of modes: it maps each mode to the parser of its
sections, which :class:`ProblemFile` calls, to its handler, which the CLI
dispatches through, and to the kind and extra keys of its result.  The
sections are read with the JSON value readers of :mod:`nrquot.schema`, so a
validation failure carries the path of the offending field.
"""

from collections import namedtuple
from fractions import Fraction

from .exactnum import TruncSeries
from .groupdata import (ConeChoice, InvalidConeError, _FieldError, check_grading,
                        euler_class_nonreductive)
from .polyring import RationalFn
from .schema import (
    MAX_MORSE_COEFFICIENTS, MAX_RANK, MAX_SCHUBERT_K, MAX_TRUNCATION_BOUND, ProblemFileError,
    _array, _expect, _fixed_points, _group, _int, _length, _moment_check, _perfection, _poly,
    _rational, _ring, _series, _tables, _vector, _weights,
)

__all__ = ["ProblemFileError", "ProblemFile", "parse"]


def _pairing_sections(p, doc):
    """``fixed_points``, then ``class``, into the document's one
    ``PairingProblem`` ``p.pairing``; each route checks its rules when it runs."""
    from .localize import PairingProblem

    _expect(p.group is not None, "$.group", "pairing modes need a group section")
    _expect("fixed_points" in doc, "$.fixed_points", "pairing modes need fixed points")
    components = _fixed_points(doc["fixed_points"], p.group.rank, "$.fixed_points")
    class_eta = _poly(doc["class"], p.group.rank, "$.class") if "class" in doc else None
    p.pairing = PairingProblem(p.group, components, class_eta, p.cone, p.normalization)


def _betti_sections(p, doc):
    from .betti import QuotientDims

    _expect("dims" in doc, "$.dims", "Betti modes need a dims section")
    dims = doc["dims"]
    _expect(isinstance(dims, dict), "$.dims", "expected an object")
    sizes = [_int(dims.get(key), "$.dims." + key, minimum=0)
             for key in ("dim_x", "dim_u", "dim_zmin")]
    try:
        p.dims = QuotientDims(*sizes)
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
        try:
            check_grading(p.group)
        except _FieldError as exc:
            raise ProblemFileError("$.group" + exc.suffix, str(exc)) from None
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


def _morse_budget(strata, bound):
    _expect(
        (strata + 1) * (bound + 1) <= MAX_MORSE_COEFFICIENTS,
        "$.strata",
        "%d strata and the total series at truncation bound %d exceed %d coefficients"
        % (strata, bound, MAX_MORSE_COEFFICIENTS),
    )


def _morse_sections(p, doc):
    from .betti import StratumDatum

    _expect("strata" in doc, "$.strata", "morse mode needs strata")
    strata = doc["strata"]
    _expect(isinstance(strata, list), "$.strata", "expected an array")
    bound = p.truncation_bound
    if bound is not None:
        _morse_budget(len(strata), bound)
    read = []
    for i, item in enumerate(strata):
        ipath = "$.strata[%d]" % i
        _expect(isinstance(item, dict), ipath, "expected a stratum object")
        codim = _int(item.get("codim"), ipath + ".codim", minimum=0)
        read.append((codim, _series(item.get("series", [1]), bound, ipath + ".series")))
    total = None
    if "total_series" in doc:
        total = _series(doc["total_series"], bound, "$.total_series")
    if bound is None:
        # One bound for every series: the last exponent of the total and of
        # each stratum series shifted by 2 * codim, so that the sum keeps
        # every term of every stratum.
        ends = [s.bound + 2 * codim for codim, s in read]
        if total is not None:
            ends.append(total.bound)
        bound = max(ends, default=0)
        _expect(
            bound <= MAX_TRUNCATION_BOUND,
            "$.strata",
            "the default truncation bound %d exceeds %d; set options.truncation_bound"
            % (bound, MAX_TRUNCATION_BOUND),
        )
        _morse_budget(len(strata), bound)
        read = [(codim, TruncSeries(s.coeffs, bound)) for codim, s in read]
        if total is not None:
            total = TruncSeries(total.coeffs, bound)
    p.strata = [StratumDatum(codim, s) for codim, s in read]
    p.total_series = total


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
    from .residue import ResidueProblem

    _expect("integrand" in doc, "$.integrand", "residue mode needs an integrand")
    section = doc["integrand"]
    _expect(isinstance(section, dict), "$.integrand", "expected an object")
    rank = p.group.rank if p.group else _int(doc.get("rank"), "$.rank",
                                             minimum=1, maximum=MAX_RANK)
    if p.cone is not None:
        _length(p.cone.xi, rank, "$.cone")
    num = _poly(section.get("numerator", []), rank, "$.integrand.numerator")
    den = _weights(section.get("denominator", []), rank, "$.integrand.denominator")
    try:
        integrand = RationalFn(num, den)
    except ValueError as exc:
        raise ProblemFileError("$.integrand", str(exc)) from None
    basis = None
    if "basis" in doc:
        basis = doc["basis"]
        _expect(isinstance(basis, list), "$.basis", "expected an array of forms")
        _length(basis, rank, "$.basis")
        basis = [_vector(b, rank, "$.basis[%d]" % i) for i, b in enumerate(basis)]
    p.epsilon = tuple(_vector(doc["epsilon"], rank, "$.epsilon")) if "epsilon" in doc else None
    try:
        p.residue = ResidueProblem(integrand, p.cone, basis)
    except InvalidConeError as exc:
        raise ProblemFileError("$.cone", str(exc)) from None
    except ValueError as exc:
        raise ProblemFileError("$.basis", str(exc)) from None


def _grassmannian(p):
    from .localize import grassmannian_pairing

    return {"value": grassmannian_pairing(p.k, p.n, p.phi)}


def _flag(p):
    from .localize import flag_pairing

    return {"value": flag_pairing(p.k, p.n, p.phi)}


def _schubert_sections(p, doc):
    p.k = _int(doc.get("k"), "$.k", minimum=1, maximum=MAX_SCHUBERT_K)
    p.n = _int(doc.get("n"), "$.n", minimum=p.k)
    _expect("phi" in doc, "$.phi", "missing the class to integrate")
    p.phi = _poly(doc["phi"], p.k, "$.phi")


def _oriented(value, problem, rank):
    """The value in the orientation the problem asks for: ``options.sign_flip``
    (or ``--sign-flip``) takes each of the ``rank`` residues at infinity with
    the opposite sign, which multiplies the value by (-1)^rank."""
    return value * (-1) ** rank if problem.sign_flip else value


def _pair_reductive(p):
    from .localize import integrate_reductive

    return {"value": integrate_reductive(p.pairing)}


def _pair_uhat(p):
    from .localize import integrate_uhat

    return {"value": _oriented(integrate_uhat(p.pairing), p, 1)}


def _pair_nonreductive(p):
    from .localize import integrate_nonreductive

    return {"value": integrate_nonreductive(p.pairing)}


def _pair_abelianized(p):
    from .localize import torus_pairing_fn

    # the torus pairing of the lift with the Euler class, times 1/|W| by default
    problem = p.pairing
    pairing = torus_pairing_fn(problem.fixed_points, problem.cone, problem.constant())
    return {"value": pairing(problem.class_eta, euler_class_nonreductive(problem.group))}


def _morse(p):
    from .betti import check_perfect, morse_assemble

    assembled = morse_assemble(p.strata)
    if p.total_series is None:
        return {"value": assembled}
    try:
        report = check_perfect(p.total_series, assembled)
    except ValueError as exc:  # the strata do not add up to the total
        raise ProblemFileError("$.total_series", str(exc)) from None
    return {"value": assembled, "perfection": {
        "perfect": report.perfect,
        "remainder": str(report.remainder),
        "nonnegative": report.nonnegative,
    }}


def _betti(p):
    # The H quotient has the U x| C* series formula; see poincare_uhat.
    from .betti import poincare_uhat

    return {"value": poincare_uhat(p.zmin_series, p.dims)}


def _ring_betti(p):
    from .cohring import _quotient_betti_with_invariants, annihilator_dims, graded_dims

    ring, group = p.ring, p.group
    series, inv, euler = _quotient_betti_with_invariants(ring, group, group)
    return {"value": series, "tables": {
        "graded_dims": list(graded_dims(ring)),
        "invariant_dims": [len(inv.get(d, [])) for d in range(ring.top_degree + 1)],
        "annihilator_dims": list(annihilator_dims(ring, euler)),
    }}


def _residue(p):
    from .residue import jk_residue

    if p.epsilon is not None and min(p.epsilon) < 0:
        return {"value": Fraction(0)}
    return {"value": _oriented(jk_residue(p.residue), p, p.residue.integrand.nvars)}


# The one mode table, in the order the $.mode error lists it.  ``sections``
# parses a mode's own sections after options, group and cone; ``run`` returns
# the result's ``value`` and extras, to which the CLI adds ``kind`` and mode;
# ``extras`` maps each key a result may hold beside its value to the
# ``schema`` reader of ``--reemit``.  Parsers and handlers import the
# computation modules they call in their bodies, so a run loads only its
# mode's modules, and each call takes whatever the module binds at call time.
# Only pair_uhat and residue read the orientation.
_Mode = namedtuple("_Mode", "sections run kind extras")
MODES = {
    "pair_reductive": _Mode(_pairing_sections, _pair_reductive, "rational", {}),
    "pair_uhat": _Mode(_pairing_sections, _pair_uhat, "rational", {}),
    "pair_nonreductive": _Mode(_pairing_sections, _pair_nonreductive, "rational", {}),
    "pair_abelianized": _Mode(_pairing_sections, _pair_abelianized, "rational", {}),
    "betti_uhat": _Mode(_betti_sections, _betti, "series", {}),
    "betti_H": _Mode(_betti_sections, _betti, "series", {}),
    "morse": _Mode(_morse_sections, _morse, "series", {"perfection": _perfection}),
    "ring": _Mode(_ring_sections, _ring_betti, "series", {"tables": _tables}),
    "residue": _Mode(_residue_sections, _residue, "rational", {}),
    "grassmannian": _Mode(_schubert_sections, _grassmannian, "rational", {}),
    "flag": _Mode(_schubert_sections, _flag, "rational", {}),
}


def _mode(doc):
    """The ``mode`` of a problem or result document, a key of ``MODES``."""
    mode = doc.get("mode")
    _expect(isinstance(mode, str) and mode in MODES, "$.mode",
            "expected one of %s, got %r" % (", ".join(MODES), mode))
    return mode


class ProblemFile:
    """A parsed problem: mode, typed sections, and rendering options."""

    def __init__(self, doc):
        _expect(isinstance(doc, dict), "$", "problem file must be a JSON object")
        self.mode = mode = _mode(doc)
        self.doc = doc
        options = doc.get("options", {})
        _expect(isinstance(options, dict), "$.options", "expected an object")
        for key in options:
            _expect(key in ("truncation_bound", "normalization", "sign_flip"), "$.options." + key,
                    "unknown option; expected truncation_bound, normalization or sign_flip")
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

        self.pairing = None
        MODES[mode].sections(self, doc)

        self.moment_checks = _array(doc, "moment_checks", "$", _moment_check)


def parse(doc):
    return ProblemFile(doc)
