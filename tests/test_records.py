"""The package's value records: constructors, defaults, immutability and the
messages of their validation."""

from fractions import Fraction

import pytest

from nrquot import betti, cohring, groupdata, localize, momentdiag, residue, schema
from nrquot.exactnum import TruncSeries
from nrquot.polyring import LinearForm, MultiPoly, RationalFn, weyl_element

SERIES = TruncSeries([1, 0, 1], 2)
GROUP = groupdata.GroupData(1)
COMPONENT = localize.FixedPointComponent("min", [([1], 1)], is_min=True)
SAMPLE = momentdiag.LinearActionSample((1, 0), ((0, 0), (0, 0)))
INTEGRAND = RationalFn(MultiPoly.one(1), [([1], 1)])

# Per record: the class, positional arguments leaving every default out, and
# every field in parameter order with the value the constructor stores (a
# field the constructor derives, such as ResidueProblem.det, comes last).
RECORDS = [
    (betti.StratumDatum, (1, SERIES), {"codim": 1, "series": SERIES}),
    (betti.QuotientDims, (6, 3, 0), {"dim_x": 6, "dim_u": 3, "dim_zmin": 0}),
    (
        betti.PerfectionReport,
        (True, SERIES, True),
        {"perfect": True, "remainder": SERIES, "nonnegative": True},
    ),
    (
        groupdata.GroupData,
        (1,),
        {
            "rank": 1,
            "positive_roots": (),
            "unipotent_weights": (),
            "weyl_generators": (),
            "weyl_order": 1,
            "grading": (0,),
            "generator_elements": (),
            "euler_forms": (),
        },
    ),
    (groupdata.ConeChoice, (("1/2", 2),), {"xi": (Fraction(1, 2), 2)}),
    (
        groupdata.WellAdaptedReport,
        (True, (0, 1), Fraction(1, 2)),
        {"in_interval": True, "interval": (0, 1), "margin": Fraction(1, 2)},
    ),
    (
        localize.FixedPointComponent,
        ("max", [([-1], 2)]),
        {
            "name": "max",
            "normal_weights": ((LinearForm([-1]), 2),),
            "restriction": None,
            "lambda_weight": 0,
            "is_min": False,
            "_nvars": 1,
            "_den": ((LinearForm([-1]), 2),),
            "_caps": (1,),
        },
    ),
    (
        localize.PairingProblem,
        (GROUP, [COMPONENT]),
        {
            "group": GROUP,
            "fixed_points": (COMPONENT,),
            "class_eta": None,
            "cone": None,
            "normalization": None,
        },
    ),
    (
        momentdiag.LinearActionSample,
        ((1, 0), ((0, 0), (0, 0))),
        {"point": (1, 0), "lie_element": ((0, 0), (0, 0)), "shift": 0.0},
    ),
    (
        schema.MomentCheck,
        (SAMPLE, 1.0, None),
        {"sample": SAMPLE, "weight": 1.0, "tangent": None},
    ),
    (
        residue.ResidueProblem,
        (INTEGRAND,),
        {
            "integrand": INTEGRAND,
            "cone": None,
            "basis": None,
            "det": 1,
        },
    ),
]


@pytest.mark.parametrize(
    "cls, args, fields", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_records_build_both_ways_and_stay_read_only(cls, args, fields):
    by_keyword = dict(zip(fields, args))
    for record in (cls(*args), cls(**by_keyword)):
        assert vars(record) == fields
        for name in fields:
            with pytest.raises(AttributeError, match="cannot assign to field %r" % name):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match="cannot delete field %r" % name):
                delattr(record, name)
        assert vars(record) == fields


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: groupdata.GroupData(rank=0), "torus rank must be positive"),
        (lambda: betti.QuotientDims(6, -1, 0), "dimensions must be nonnegative"),
        (lambda: betti.StratumDatum(-1, SERIES), "codimension must be nonnegative"),
        (
            lambda: localize.FixedPointComponent("p", [([0], 1)]),
            "component 'p' has a zero normal weight",
        ),
        (
            # it would fix no variable count
            lambda: localize.FixedPointComponent("p", []),
            "component 'p' has no normal weight and no restriction",
        ),
        (
            lambda: residue.ResidueProblem(RationalFn(MultiPoly.one(2)), basis=[[1, 0]]),
            "basis must contain one form per variable",
        ),
        (
            # reached jk_residue, which called the basis not invertible
            lambda: residue.ResidueProblem(RationalFn(MultiPoly.one(2)),
                                           basis=[[1, 0, 0], [0, 1, 0]]),
            "basis form #0 has 3 coefficients, expected 2",
        ),
        (
            # named before any wall is evaluated on the cone
            lambda: residue.ResidueProblem(
                RationalFn(MultiPoly.one(2), [([1, 0], 1), ([0, 1], 1)]), cone=(1, 2, 3)),
            "cone vector has 3 entries, expected 2",
        ),
        (
            # was blamed on a normal weight when the sum ran
            lambda: localize.PairingProblem(GROUP, [COMPONENT], MultiPoly.one(2)),
            "class is in 2 variables, expected 1, the group rank",
        ),
    ],
    ids=["GroupData", "QuotientDims", "StratumDatum", "FixedPointComponent",
         "FixedPointComponent-empty", "ResidueProblem",
         "ResidueProblem-form", "ResidueProblem-cone", "PairingProblem"],
)
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


Z = MultiPoly.variable(1, 0)
RING = cohring.GradedRingPresentation.polynomial_quotient(
    2, [MultiPoly.variable(2, 0) ** 2, MultiPoly.variable(2, 1) ** 2], 2)

# Each count a library constructor or function takes, as (what its message
# names, a call that passes the value in its place).  Before they were read
# as ints, 1.5 and True were stored, truncated or read as 1.
COUNTS = {
    "GroupData.weyl_order": ("Weyl order", lambda v: groupdata.GroupData(1, weyl_order=v)),
    "StratumDatum.codim": ("codimension", lambda v: betti.StratumDatum(v, SERIES)),
    "QuotientDims.dim_x": ("dimension", lambda v: betti.QuotientDims(v, 1, 0)),
    "QuotientDims.dim_u": ("dimension", lambda v: betti.QuotientDims(4, v, 0)),
    "QuotientDims.dim_zmin": ("dimension", lambda v: betti.QuotientDims(4, 1, v)),
    "TruncSeries.bound": ("truncation bound", lambda v: TruncSeries([1], v)),
    "TruncSeries.shift": ("shift", lambda v: SERIES.shift(v)),
    "MultiPoly.variable.index": ("variable index", lambda v: MultiPoly.variable(2, v)),
    "weighted_projective_poincare.bound": (
        "truncation bound", lambda v: betti.weighted_projective_poincare([1, 1], v)),
    "integrate_abelianized.weyl_order": (
        "Weyl order", lambda v: localize.integrate_abelianized(lambda a, e: 3, Z, Z, v)),
    "weyl_element.permutation": ("permutation entry", lambda v: weyl_element([v, 0], 2)),
    "polynomial_quotient.nvars": (
        "variable count",
        lambda v: cohring.GradedRingPresentation.polynomial_quotient(v, [Z ** 3], 2)),
    "polynomial_quotient.top_degree": (
        "top degree",
        lambda v: cohring.GradedRingPresentation.polynomial_quotient(1, [Z ** 3], v)),
    "invariant_basis.weyl_order": ("Weyl order", lambda v: cohring.invariant_basis(RING, ([[1, 0]], v))),
}


@pytest.mark.parametrize("bad", [1.5, True, "3"])
@pytest.mark.parametrize("what, call", COUNTS.values(), ids=COUNTS)
def test_library_counts_must_be_integers(what, call, bad):
    with pytest.raises(TypeError) as info:
        call(bad)
    assert str(info.value) == "%s must be an integer, got %r" % (what, bad)
