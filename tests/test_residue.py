import random
from fractions import Fraction

import pytest

from nrquot.groupdata import ConeChoice, InvalidConeError
from nrquot.polyring import LinearForm, MultiPoly, RationalFn
from nrquot.residue import ResidueProblem, jk_residue, res_plus, residue_at_infinity
from oracles import laurent_derivative


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


def test_res_plus_calibration():
    f = RationalFn(MultiPoly.one(1), [(LinearForm([1]), 1)])
    assert res_plus(f, 0, 0).constant_value() == 1
    assert res_plus(f, 0, Fraction(3, 2)).constant_value() == 1


def test_res_plus_negative_direction_is_zero():
    f = RationalFn(MultiPoly.one(1), [(LinearForm([1]), 1)])
    assert res_plus(f, 0, -1).is_zero()


def test_res_plus_no_inverse_term():
    f = RationalFn(zvar())
    assert res_plus(f, 0, 0).is_zero()


def test_res_plus_sign_flip():
    f = RationalFn(MultiPoly.one(1), [(LinearForm([1]), 1)])
    assert res_plus(f, 0, 0, sign_flip=True).constant_value() == -1


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


def test_iterated_residue_at_zero_matches_coefficient_extraction():
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    num = (z0 + z1) ** 4 * (z0 - z1) * (z1 - z0)
    f = RationalFn(num, [(LinearForm([1, 0]), 4), (LinearForm([0, 1]), 4)])
    assert jk_residue(ResidueProblem(f)) == num.coefficient((3, 3))


# -- randomized property suites (100 instances each) ------------------------------


def random_rank2_integrand(rng, nden=None, off_wall=False):
    """Random homogeneous integrand of total degree -2 in two variables.

    With ``off_wall`` every denominator form involves the first variable
    (so any cone along the first axis is valid); otherwise pure second-axis
    forms may occur, which is what makes nonzero values possible for the
    plain at-infinity semantics.
    """
    nden = nden or rng.randint(2, 4)
    den = []
    for _ in range(nden):
        a = rng.choice([1, 2, 3]) if off_wall else rng.choice([0, 1, 2])
        b = rng.randint(-3, 3)
        if a == 0 and b == 0:
            b = 1
        den.append((LinearForm([a, b]), 1))
    deg = nden - 2
    terms = {}
    for k in range(deg + 1):
        terms[(k, deg - k)] = Fraction(rng.randint(-6, 6))
    num = MultiPoly(2, terms)
    if num.is_zero():
        num = MultiPoly(2, {(deg, 0): 1}) if deg >= 0 else MultiPoly.one(2)
    return RationalFn(num, den)


def test_jk_linearity_100():
    rng = random.Random(515)
    nonzero = 0
    for _ in range(100):
        f = random_rank2_integrand(rng)
        g = random_rank2_integrand(rng, nden=len(f.den))
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        lhs = jk_residue(ResidueProblem(integrand=(a * f) + (b * g)))
        fv = jk_residue(ResidueProblem(integrand=f))
        gv = jk_residue(ResidueProblem(integrand=g))
        assert lhs == a * fv + b * gv
        if fv != 0 or gv != 0:
            nonzero += 1
    assert nonzero >= 30


def test_residue_of_derivative_vanishes_100():
    rng = random.Random(516)
    for _ in range(100):
        coeffs = {
            rng.randint(-5, 5): Fraction(rng.randint(-9, 9))
            for _ in range(rng.randint(1, 6))
        }
        deriv = laurent_derivative(coeffs)
        f = laurent(deriv)
        assert residue_at_infinity(f, 0).is_zero()


def test_jk_degree_selection_100():
    rng = random.Random(517)
    for _ in range(100):
        nden = rng.randint(2, 4)
        den = [
            (LinearForm([rng.choice([1, 2]), rng.randint(-2, 2)]), 1)
            for _ in range(nden)
        ]
        deg = nden - 2 + rng.choice([-1, 1, 2])
        if deg < 0:
            continue
        terms = {(k, deg - k): Fraction(rng.randint(1, 5)) for k in range(deg + 1)}
        f = RationalFn(MultiPoly(2, terms), den)
        assert jk_residue(ResidueProblem(integrand=f)) == 0


def test_jk_basis_covariance_100():
    """Unimodular admissible basis changes never move the normalised value."""
    rng = random.Random(518)
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    checked_nonzero = 0
    for trial in range(100):
        if trial % 2 == 0:
            # wall-adapted family: random symmetric-type class over z^a pole,
            # standard basis against sheared bases (1, m; 0, 1)
            a = rng.randint(2, 4)
            u = rng.randint(0, 1) if a >= 3 else 0
            phi = (z0 * z1) ** u * (z0 + z1) ** (2 * a - 4 - 2 * u)
            f = RationalFn(
                phi * (z0 - z1) * (z1 - z0),
                [(LinearForm([1, 0]), a), (LinearForm([0, 1]), a)],
            )
            base = jk_residue(ResidueProblem(integrand=f))
            m = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            basis = (LinearForm([1, m]), LinearForm([0, 1]))
            moved = jk_residue(ResidueProblem(integrand=f, basis=basis))
            assert moved == base
            if base != 0:
                checked_nonzero += 1
        else:
            # chamber family: valid cone, bases normalised against it
            f = random_rank2_integrand(rng, off_wall=True)
            xi = (1, 0)
            try:
                ConeChoice(xi).validate(form for form, _ in f.den)
            except InvalidConeError:
                continue
            b0 = (LinearForm([1, 0]), LinearForm([0, 1]))
            base = jk_residue(
                ResidueProblem(integrand=f, cone=ConeChoice(xi), basis=b0)
            )
            m = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            basis = (b0[0] + m * b0[1], b0[1])
            moved = jk_residue(
                ResidueProblem(integrand=f, cone=ConeChoice(xi), basis=basis)
            )
            assert moved == base
    assert checked_nonzero >= 20


def test_normalisation_divides_by_the_squared_basis_determinant():
    # the iterated residue of 1/(z0 z1) in the coordinates of B is det(B),
    # so the value is det(B) / det(B)^2
    f = RationalFn(
        MultiPoly.one(2), [(LinearForm([1, 0]), 1), (LinearForm([0, 1]), 1)]
    )
    shear = ResidueProblem(integrand=f, basis=((2, 1), (0, 1)))
    stretch = ResidueProblem(integrand=f, basis=((1, 0), (0, 3)))
    assert shear.validate() == 2 and jk_residue(shear) == Fraction(1, 2)
    assert stretch.validate() == 3 and jk_residue(stretch) == Fraction(1, 3)
    assert ResidueProblem(integrand=f).validate() == 1


def test_non_scalar_leftover_guard():
    # a parameter factor that never involves any variable cannot exist, so
    # drive the guard through a numerator that survives with a denominator
    f = RationalFn(MultiPoly.one(2), [(LinearForm([0, 1]), 1)])
    value = jk_residue(ResidueProblem(integrand=f))
    assert value == 0


def test_jk_negative_epsilon_component_kills_the_value():
    f = RationalFn(MultiPoly.one(2), [(LinearForm([1, 0]), 1), (LinearForm([0, 1]), 1)])
    assert jk_residue(ResidueProblem(integrand=f)) == 1
    assert jk_residue(ResidueProblem(integrand=f, epsilon=(-1, 0))) == 0
    assert jk_residue(ResidueProblem(integrand=f, epsilon=(0, -1))) == 0
    assert jk_residue(ResidueProblem(integrand=f, epsilon=(1, 2))) == 1


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
