from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nrquot.groupdata import ConeChoice, InvalidConeError
from nrquot.polyring import LinearForm, MultiPoly, RationalFn
from nrquot.residue import ResidueProblem, jk_residue, residue_at_infinity
from oracles import laurent_derivative, residue_at_infinity_by_division


def zvar(i=0, n=1):
    return MultiPoly.variable(n, i)


def laurent(coeffs, n=1):
    """One-variable Laurent polynomial {exponent: coeff} as a RationalFn."""
    shift = max(0, -min(coeffs, default=0))
    num = MultiPoly(n, {(e + shift,) + (0,) * (n - 1): c for e, c in coeffs.items()})
    den = [(LinearForm([1] + [0] * (n - 1)), shift)] if shift else []
    return RationalFn(num, den)


# -- one-variable residues -------------------------------------------------------
# With the origin as the only pole, the z^-1 coefficient at infinity is the
# residue at zero.


def test_residue_at_zero_simple_pole():
    f = RationalFn(MultiPoly.one(1), [(LinearForm([1]), 1)])
    assert residue_at_infinity(f, 0).constant_value() == 1


def test_residue_at_zero_order_two():
    f = RationalFn(zvar() + MultiPoly.constant(1, 2), [(LinearForm([1]), 2)])
    assert residue_at_infinity(f, 0).constant_value() == 1


def test_residue_at_zero_no_pole():
    f = RationalFn(zvar() ** 2)
    assert residue_at_infinity(f, 0).is_zero()


def test_residue_at_infinity_calibration():
    # 1/z has coefficient +1; 1/(2 z0 + 3 z1) has its one pole in z0 at
    # -3 z1 / 2, with residue 1/2
    f = RationalFn(MultiPoly.one(1), [(LinearForm([1]), 1)])
    assert residue_at_infinity(f, 0).constant_value() == 1
    g = RationalFn(MultiPoly.one(2), [(LinearForm([2, 3]), 1)])
    assert residue_at_infinity(g, 0).constant_value() == Fraction(1, 2)


def test_residue_at_infinity_no_inverse_term():
    # no pole in z0: the factor 1/z1 is a parameter
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    f = RationalFn((z0 + z1) ** 3, [(LinearForm([0, 1]), 1)])
    assert residue_at_infinity(f, 0).is_zero()


def test_residue_at_infinity_commutes_with_negation():
    """Negating each one-variable residue multiplies the iterated value by
    (-1)^rank, which is how the command line applies --sign-flip."""
    z = [MultiPoly.variable(3, i) for i in range(3)]
    f = RationalFn(
        z[0] + 2 * z[2],
        [(LinearForm(form), 1) for form in ([1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1])],
    )
    negated = residue_at_infinity(RationalFn(-f.num, f.den), 0)
    plain = residue_at_infinity(f, 0)
    assert negated.num == -plain.num and negated.den == plain.den
    flipped = f
    for var in range(3):
        res = residue_at_infinity(flipped, var)
        flipped = RationalFn(-res.num, res.den)
    assert jk_residue(ResidueProblem(f)) == 1
    assert flipped.constant_value() == -1


def test_residue_at_infinity_sums_finite_residues():
    # 1/(z0 (z0 + z1)): residues 1/z1 at 0 and -1/z1 at -z1 cancel
    f = RationalFn(MultiPoly.one(2), [(LinearForm([1, 0]), 1), (LinearForm([1, 1]), 1)])
    assert residue_at_infinity(f, 0).is_zero()
    # z1/(z0 (z0 + z1)): same poles, numerator kills the cancellation at 0
    g = RationalFn(MultiPoly.variable(2, 1), [(LinearForm([1, 0]), 1), (LinearForm([1, 1]), 1)])
    out = residue_at_infinity(g, 0)
    assert out.is_zero()  # residues are 1 and -1 times 1, still cancel
    h = RationalFn(MultiPoly.variable(2, 0), [(LinearForm([1, 0]), 1), (LinearForm([1, 1]), 1)])
    # z0/(z0(z0+z1)) = 1/(z0+z1): single residue 1
    assert residue_at_infinity(h, 0).constant_value() == 1


# -- the iterated operator -------------------------------------------------------


def projective_space_problem(n):
    f = RationalFn(zvar() ** (n - 1), [(LinearForm([1]), n)])
    return ResidueProblem(integrand=f)


def grassmann_integrand(phi):
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    num = phi * (z0 - z1) * (z1 - z0)
    return RationalFn(num, [(LinearForm([1, 0]), 4), (LinearForm([0, 1]), 4)])


def test_jk_rank_one_hyperplane_powers():
    for n in range(1, 9):
        assert jk_residue(projective_space_problem(n)) == 1


def test_jk_grassmannian_value():
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    value = jk_residue(ResidueProblem(integrand=grassmann_integrand((z0 + z1) ** 4)))
    assert value / 2 == 2


def test_jk_degree_mismatch_is_zero():
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    f = RationalFn((z0 + z1) ** 3, [(LinearForm([1, 0]), 4), (LinearForm([0, 1]), 4)])
    assert jk_residue(ResidueProblem(integrand=f)) == 0


def test_jk_invalid_cone_rejected():
    f = RationalFn(MultiPoly.one(2), [(LinearForm([1, 0]), 1), (LinearForm([0, 1]), 1)])
    with pytest.raises(InvalidConeError):
        jk_residue(ResidueProblem(integrand=f, cone=ConeChoice((1, 0))))


def test_jk_basis_must_be_normalised_against_cone():
    f = RationalFn(MultiPoly.one(2), [(LinearForm([1, 0]), 1), (LinearForm([2, 1]), 1)])
    basis = (LinearForm([1, 0]), LinearForm([0, 1]))
    with pytest.raises(ValueError):
        jk_residue(ResidueProblem(integrand=f, cone=ConeChoice((1, 1)), basis=basis))


@pytest.mark.parametrize(
    "den, cone, basis, error, message",
    [
        ([([1, 0], 1), ([0, 1], 1)], None, [[1, 0], [2, 0]], ValueError,
         "residue basis is not invertible"),
        ([([1, 0], 1), ([0, 1], 1)], (1, 0), None, InvalidConeError,
         "cone vector (1, 0) lies on the wall of z1"),
        ([([1, 0], 1), ([2, 1], 1)], (1, 1), [[1, 0], [0, 1]], ValueError,
         "basis is not normalised against the cone vector: expected values (1, 0, ..., 0), "
         "got (1, 1)"),
    ],
    ids=["singular-basis", "cone-on-wall", "basis-not-normalised"],
)
def test_residue_problem_checks_its_hypotheses_when_built(den, cone, basis, error, message):
    with pytest.raises(error) as info:
        ResidueProblem(RationalFn(MultiPoly.one(2), den), cone=cone, basis=basis)
    assert str(info.value) == message


def test_iterated_residue_at_zero_matches_coefficient_extraction():
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    num = (z0 + z1) ** 4 * (z0 - z1) * (z1 - z0)
    f = RationalFn(num, [(LinearForm([1, 0]), 4), (LinearForm([0, 1]), 4)])
    assert jk_residue(ResidueProblem(f)) == num.coefficient((3, 3))


# -- property suites (100 examples each) ---------------------------------------


def _integrand(nden, den_forms, coeffs):
    """sum_k coeffs[k] z0^k z1^(deg-k) / prod(den_forms), deg = nden - 2."""
    deg = nden - 2
    num = MultiPoly(2, {(k, deg - k): Fraction(c) for k, c in enumerate(coeffs)})
    if num.is_zero():
        num = MultiPoly(2, {(deg, 0): 1})
    return RationalFn(num, [(LinearForm(form), 1) for form in den_forms])


@st.composite
def rank2_integrands(draw, nden=None, off_wall=False):
    """Homogeneous integrands of total degree -2 in two variables.

    With ``off_wall`` every denominator form involves the first variable
    (so any cone along the first axis is valid); otherwise pure second-axis
    forms may occur, which is what makes nonzero values possible for the
    plain at-infinity semantics.
    """
    nden = nden or draw(st.integers(2, 4))
    firsts = [1, 2, 3] if off_wall else [0, 1, 2]
    forms = draw(st.lists(
        st.tuples(st.sampled_from(firsts), st.integers(-3, 3)), min_size=nden, max_size=nden
    ))
    forms = [(a, 1 if (a, b) == (0, 0) else b) for a, b in forms]
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=nden - 1, max_size=nden - 1))
    return _integrand(nden, forms, coeffs)


@st.composite
def same_shape_pairs(draw):
    """Two integrands with the same number of denominator factors."""
    nden = draw(st.integers(2, 4))
    return draw(rank2_integrands(nden)), draw(rank2_integrands(nden))


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# 1/(z0 z1) and z0/(z0 z1 (z0 + z1)) both have the value 1
NONZERO_PAIR = (
    _integrand(2, [(1, 0), (0, 1)], [1]),
    _integrand(3, [(1, 0), (0, 1), (1, 1)], [0, 1]),
)


@settings(max_examples=100, deadline=None)
@given(same_shape_pairs(), small_fractions, small_fractions)
@example(NONZERO_PAIR, Fraction(2, 3), Fraction(-5, 2))
def test_jk_linearity_100(pair, a, b):
    f, g = pair
    lhs = jk_residue(ResidueProblem(integrand=(a * f) + (b * g)))
    fv = jk_residue(ResidueProblem(integrand=f))
    gv = jk_residue(ResidueProblem(integrand=g))
    assert lhs == a * fv + b * gv


def test_linearity_example_is_not_vacuous():
    assert [jk_residue(ResidueProblem(integrand=f)) for f in NONZERO_PAIR] == [1, 1]


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), min_size=1, max_size=6))
def test_residue_of_derivative_vanishes_100(coeffs):
    f = laurent(laurent_derivative({e: Fraction(c) for e, c in coeffs.items()}))
    assert residue_at_infinity(f, 0).is_zero()


@st.composite
def off_degree_integrands(draw):
    """Integrands whose numerator degree is off by -1, 1 or 2 from the one
    a nonzero residue needs."""
    nden = draw(st.integers(2, 4))
    forms = draw(st.lists(
        st.tuples(st.sampled_from([1, 2]), st.integers(-2, 2)), min_size=nden, max_size=nden
    ))
    deg = nden - 2 + draw(st.sampled_from([-1, 1, 2]).filter(lambda d: nden - 2 + d >= 0))
    coeffs = draw(st.lists(st.integers(1, 5), min_size=deg + 1, max_size=deg + 1))
    num = MultiPoly(2, {(k, deg - k): Fraction(c) for k, c in enumerate(coeffs)})
    return RationalFn(num, [(LinearForm(form), 1) for form in forms])


@settings(max_examples=100, deadline=None)
@given(off_degree_integrands())
def test_jk_degree_selection_100(f):
    assert jk_residue(ResidueProblem(integrand=f)) == 0


@st.composite
def sheared_problems(draw):
    """(integrand, cone, standard basis, sheared basis) for a first-form shear.

    Half are the wall-adapted family (a symmetric-type class over the pole
    z^a, no cone); half are the chamber family (a valid cone along the first
    axis, bases normalised against it).
    """
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    m = draw(st.fractions(min_value=-6, max_value=6, max_denominator=4))
    if draw(st.booleans()):
        a = draw(st.integers(2, 4))
        u = draw(st.integers(0, 1)) if a >= 3 else 0
        phi = (z0 * z1) ** u * (z0 + z1) ** (2 * a - 4 - 2 * u)
        f = RationalFn(
            phi * (z0 - z1) * (z1 - z0),
            [(LinearForm([1, 0]), a), (LinearForm([0, 1]), a)],
        )
        return f, None, None, (LinearForm([1, m]), LinearForm([0, 1]))
    f = draw(rank2_integrands(off_wall=True))
    b0 = (LinearForm([1, 0]), LinearForm([0, 1]))
    return f, ConeChoice((1, 0)), b0, (LinearForm([1, m]), b0[1])


# the Gr(2,4) integrand of sigma_1^4, whose value is 4
GR24_SHEAR = (
    grassmann_integrand((MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1)) ** 4),
    None,
    None,
    (LinearForm([1, Fraction(-3, 2)]), LinearForm([0, 1])),
)


@settings(max_examples=100, deadline=None)
@given(sheared_problems())
@example(GR24_SHEAR)
def test_jk_basis_covariance_100(case):
    """Admissible first-form shears never move the normalised value."""
    f, cone, base, sheared = case
    standard = jk_residue(ResidueProblem(integrand=f, cone=cone, basis=base))
    assert jk_residue(ResidueProblem(integrand=f, cone=cone, basis=sheared)) == standard


def test_normalisation_divides_by_the_squared_basis_determinant():
    # the iterated residue of 1/(z0 z1) in the coordinates of B is det(B),
    # so the value is det(B) / det(B)^2
    f = RationalFn(
        MultiPoly.one(2), [(LinearForm([1, 0]), 1), (LinearForm([0, 1]), 1)]
    )
    shear = ResidueProblem(integrand=f, basis=((2, 1), (0, 1)))
    stretch = ResidueProblem(integrand=f, basis=((1, 0), (0, 3)))
    assert shear.det == 2 and jk_residue(shear) == Fraction(1, 2)
    assert stretch.det == 3 and jk_residue(stretch) == Fraction(1, 3)
    assert ResidueProblem(integrand=f).det == 1


def test_non_scalar_leftover_guard():
    # a parameter factor that never involves any variable cannot exist, so
    # drive the guard through a numerator that survives with a denominator
    f = RationalFn(MultiPoly.one(2), [(LinearForm([0, 1]), 1)])
    value = jk_residue(ResidueProblem(integrand=f))
    assert value == 0


def test_jk_rank_three_basis_covariance():
    z = [MultiPoly.variable(3, i) for i in range(3)]
    num = (z[0] + z[1] + z[2]) ** 9
    for i in range(3):
        for j in range(3):
            if i != j:
                num = num * (z[i] - z[j])
    f = RationalFn(
        num,
        [
            (LinearForm([1, 0, 0]), 6),
            (LinearForm([0, 1, 0]), 6),
            (LinearForm([0, 0, 1]), 6),
        ],
    )
    standard = jk_residue(ResidueProblem(integrand=f))
    assert standard == 252  # 3! times the tableaux count of the 3x3 box
    shears = [
        (LinearForm([1, Fraction(1, 2), -2]), LinearForm([0, 1, Fraction(1, 2)]), LinearForm([0, 0, 1])),
        (LinearForm([1, 3, Fraction(1, 3)]), LinearForm([0, 1, 3]), LinearForm([0, 0, 1])),
        (LinearForm([0, 1, 0]), LinearForm([0, 0, 1]), LinearForm([1, 0, 0])),
    ]
    for basis in shears:
        assert jk_residue(ResidueProblem(integrand=f, basis=basis)) == standard


# -- one expansion for every pole ------------------------------------------------


@st.composite
def split_integrands(draw):
    """(fn, var, point, numerator terms, denominator forms) for a rational
    function in one to three variables whose denominator mixes pure poles
    ``a*z_var``, mixed factors ``a*z_var + b`` and params without ``z_var``,
    each of multiplicity 1 to 3, and a point of small rationals at which no
    param vanishes."""
    n = draw(st.integers(1, 3))
    var = draw(st.integers(0, n - 1))
    others = [i for i in range(n) if i != var]
    nonzero = st.integers(-3, 3).filter(bool)
    den = []
    for kind in draw(st.lists(st.sampled_from(["pure", "mixed", "param"] if others else
                                              ["pure"]), min_size=1, max_size=4)):
        coeffs = [0] * n
        if kind != "pure":
            for i in draw(st.lists(st.sampled_from(others), min_size=1, unique=True)):
                coeffs[i] = draw(nonzero)
        if kind != "param":
            coeffs[var] = draw(nonzero)
        den.append((coeffs, draw(st.integers(1, 3))))
    poles = sum(m for coeffs, m in den if coeffs[var])
    # a z_var degree below poles - 1 never reaches the z_var^-1 coefficient
    expo = [st.integers(max(poles - 2, 0), poles + 3) if i == var else st.integers(0, 2)
            for i in range(n)]
    num = draw(st.dictionaries(st.tuples(*expo), st.integers(-5, 5).filter(bool),
                               min_size=1, max_size=5))
    point = draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n, max_size=n))
    assume(all(sum(c * x for c, x in zip(coeffs, point)) for coeffs, _ in den
               if not coeffs[var]))
    fn = RationalFn(MultiPoly(n, num), [(LinearForm(coeffs), m) for coeffs, m in den])
    return fn, var, point, num, den


def value_at(fn, point):
    """A rational function without poles at ``point``, evaluated there."""
    num = sum(c * prod(Fraction(x) ** e for x, e in zip(point, expo))
              for expo, c in fn.num.terms.items())
    den = prod(sum(c * x for c, x in zip(form.coeffs, point)) ** m for form, m in fn.den)
    return num / den


# z0^4 / (z0^3 (z0 + z1)^2 (2 z0 - z1) z1) at z1 = 1/2: a pure pole, a mixed
# factor of multiplicity 2, another mixed factor and a param
MIXED_CASE = (
    RationalFn(MultiPoly(2, {(6, 0): 1}),
               [(LinearForm([1, 0]), 3), (LinearForm([1, 1]), 2), (LinearForm([2, -1]), 1),
                (LinearForm([0, 1]), 1)]),
    0, [0, Fraction(1, 2)], {(6, 0): 1},
    [([1, 0], 3), ([1, 1], 2), ([2, -1], 1), ([0, 1], 1)],
)


@settings(max_examples=100, deadline=None)
@given(split_integrands())
@example(MIXED_CASE)
def test_residue_at_infinity_matches_long_division_100(case):
    fn, var, point, num, den = case
    res = residue_at_infinity(fn, var)
    assert all(form.coeffs[var] == 0 for form, _ in res.den)
    assert all(expo[var] == 0 for expo in res.num.terms)
    assert value_at(res, point) == residue_at_infinity_by_division(num, den, var, point)


def test_the_long_division_example_is_not_vacuous():
    # z0^3 / ((z0 + z1)^2 (2 z0 - z1)) = 1/2 - (3 z1 / 4) / z0 + ..., over z1
    fn, var, point, num, den = MIXED_CASE
    assert residue_at_infinity_by_division(num, den, var, point) == Fraction(-3, 4)
    assert value_at(residue_at_infinity(fn, var), point) == Fraction(-3, 4)


# (z0 + z1 + z2)^5 z1 / (z0^2 (z0 + z1) (2 z0 - z1 + z2)^2 z1 (z1 + 3 z2) z2^2):
# pure poles and mixed factors in z0 and z1, and params in both
RANK3_MIXED = RationalFn(
    (MultiPoly.variable(3, 0) + MultiPoly.variable(3, 1) + MultiPoly.variable(3, 2)) ** 5
    * MultiPoly.variable(3, 1),
    [(LinearForm(form), m) for form, m in
     [([1, 0, 0], 2), ([1, 1, 0], 1), ([2, -1, 1], 2), ([0, 1, 0], 1), ([0, 1, 3], 1),
      ([0, 0, 1], 2)]],
)


def test_jk_residue_validates_no_form_or_function_past_the_problem(monkeypatch):
    # Every residue step works on the problem's valid data, so it builds its
    # results with the trusted constructors.  Only a basis rewrite, whose
    # forms change, checks its new forms; it stores its ratio trusted.
    plain = ResidueProblem(RANK3_MIXED)
    sheared = ResidueProblem(RANK3_MIXED, basis=[[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    calls = []
    for cls in (LinearForm, RationalFn):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            calls.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    value = jk_residue(plain)
    assert calls == []
    assert value != 0
    assert jk_residue(sheared) == value
    assert set(calls) == {"LinearForm"}

