from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrquot import cli
from nrquot.groupdata import (
    ConeChoice,
    GroupData,
    WeylInvarianceError,
    _check_factors_invariant,
    _check_weyl_invariant,
    _euler_forms,
    euler_class_nonreductive,
)
from nrquot.localize import (
    FixedPointComponent,
    _localization_sum,
    PairingProblem,
    flag_pairing,
    grassmannian_pairing,
    integrate_abelianized,
    integrate_nonreductive,
    integrate_reductive,
    integrate_uhat,
    torus_pairing_fn,
)
from nrquot.polyring import LinearForm, MultiPoly, RationalFn, weyl_act, weyl_element
from nrquot.residue import ResidueProblem, jk_residue
from oracles import dense_mul, flag_alternant, grassmannian_alternant, pieri_power


def zz(n=2):
    return [MultiPoly.variable(n, i) for i in range(n)]


def gr24_group():
    return GroupData(
        rank=2,
        positive_roots=[LinearForm([1, -1])],
        weyl_generators=[(1, 0)],
        weyl_order=2,
    )


def gr24_origin():
    return FixedPointComponent(
        name="origin",
        normal_weights=[(LinearForm([1, 0]), 4), (LinearForm([0, 1]), 4)],
        is_min=True,
    )


def gr24_problem(eta, normalization=None):
    return PairingProblem(
        group=gr24_group(),
        fixed_points=[gr24_origin()],
        class_eta=eta,
        cone=ConeChoice((1, 1)),
        normalization=normalization,
    )


# -- reductive -------------------------------------------------------------------


def test_reductive_grassmannian_sigma1_fourth():
    z0, z1 = zz()
    assert integrate_reductive(gr24_problem((z0 + z1) ** 4)) == 2
    # Pieri oracle: paths from the empty partition to the full 2x2 box
    assert pieri_power(2, 4, (0, 0), 4)[(2, 2)] == 2


def test_reductive_grassmannian_mixed_class():
    z0, z1 = zz()
    assert integrate_reductive(gr24_problem((z0 + z1) ** 2 * z0 * z1)) == 1
    assert pieri_power(2, 4, (1, 1), 2)[(2, 2)] == 1


def test_reductive_low_degree_class_vanishes():
    z0, z1 = zz()
    assert integrate_reductive(gr24_problem((z0 + z1) ** 2)) == 0


def test_the_constant_is_one_over_the_order_the_generators_generate():
    # A library GroupData that omits weyl_order declares 1 against the swap's
    # group of order 2; dividing by the declared order gave 4 for sigma_1^4.
    z0, z1 = zz()

    def problem(**declared):
        group = GroupData(2, positive_roots=[[1, -1]], weyl_generators=[[1, 0]], **declared)
        return PairingProblem(group, [gr24_origin()], (z0 + z1) ** 4)

    for route in (integrate_reductive, integrate_nonreductive):
        with pytest.raises(ValueError) as info:
            route(problem())
        assert str(info.value) == "Weyl generators produce a group of order 2, declared 1"
        assert route(problem(weyl_order=2)) == 2


def test_reductive_rejects_unipotent_data():
    g = GroupData(rank=1, unipotent_weights=[LinearForm([2])], grading=(1,))
    p = PairingProblem(group=g, fixed_points=[gr24_origin()], class_eta=MultiPoly.one(1))
    with pytest.raises(ValueError):
        integrate_reductive(p)


def test_reductive_rejects_empty_fixed_points():
    with pytest.raises(ValueError):
        integrate_reductive(
            PairingProblem(group=gr24_group(), fixed_points=[], class_eta=MultiPoly.one(2))
        )


def test_pairing_invariant_under_component_relabelling():
    z0, z1 = zz()
    eta = (z0 + z1) ** 4
    comp = gr24_origin()
    split = [
        FixedPointComponent("a", comp.normal_weights, restriction=eta * Fraction(1, 3)),
        FixedPointComponent("b", comp.normal_weights, restriction=eta * Fraction(2, 3)),
    ]
    for order in ([0, 1], [1, 0]):
        p = PairingProblem(
            group=gr24_group(),
            fixed_points=[split[i] for i in order],
            class_eta=eta,
        )
        assert integrate_reductive(p) == 2


@settings(max_examples=10, deadline=None)
@given(st.integers(-8, 8), st.integers(1, 5))
def test_pairing_scales_linearly_in_class(num, den):
    z0, z1 = zz()
    c = Fraction(num, den)
    assert integrate_reductive(gr24_problem((z0 + z1) ** 4 * c)) == 2 * c


# -- graded unipotent extension ----------------------------------------------------


def p1_uhat_problem(eta=None):
    group = GroupData(rank=1, grading=(1,), weyl_order=1)
    comps = [
        FixedPointComponent(
            "min", [(LinearForm([1]), 1)], lambda_weight=0, is_min=True
        ),
        FixedPointComponent(
            "max", [(LinearForm([-1]), 1)], lambda_weight=1, is_min=False
        ),
    ]
    return PairingProblem(
        group=group,
        fixed_points=comps,
        class_eta=MultiPoly.one(1) if eta is None else eta,
    )


def test_uhat_projective_line_point_quotient():
    assert integrate_uhat(p1_uhat_problem()) == 1


def test_uhat_zero_class():
    assert integrate_uhat(p1_uhat_problem(MultiPoly.zero(1))) == 0


def test_uhat_requires_rank_one():
    p = gr24_problem(MultiPoly.one(2))
    with pytest.raises(ValueError, match="^graded-extension pairing requires a rank 1 torus$"):
        integrate_uhat(p)


def test_uhat_requires_no_roots():
    # its Euler class is the product of the unipotent weights alone, so a
    # root has no place in it
    group = GroupData(1, positive_roots=[[2]], unipotent_weights=[[2]], grading=(1,))
    p = PairingProblem(group=group, fixed_points=p3_uhat_problem().fixed_points, normalization=2)
    with pytest.raises(ValueError, match="^graded-extension pairing requires no roots$"):
        integrate_uhat(p)


def test_uhat_requires_minimal_component():
    group = GroupData(rank=1, grading=(1,))
    comp = FixedPointComponent("f", [(LinearForm([1]), 1)], is_min=False)
    p = PairingProblem(group=group, fixed_points=[comp], class_eta=MultiPoly.one(1))
    with pytest.raises(ValueError):
        integrate_uhat(p)


def p3_uhat_problem():
    """Quartic-weight circle with a one-dimensional unipotent of weight 2z.

    Ambient space P^3 with circle weights 3, 1, -1, -3; the minimal fixed
    point carries tangent weights 6z, 4z, 2z and the restricted hyperplane
    class 3z.  The scalar matrix -1 acts trivially, so the generic
    stabiliser has order 2.
    """
    group = GroupData(rank=1, unipotent_weights=[LinearForm([2])], grading=(1,))
    z = MultiPoly.variable(1, 0)
    comps = [
        FixedPointComponent(
            "w=-3",
            [(LinearForm([6]), 1), (LinearForm([4]), 1), (LinearForm([2]), 1)],
            restriction=3 * z,
            lambda_weight=-3,
            is_min=True,
        ),
    ]
    return PairingProblem(group=group, fixed_points=comps, normalization=2)


def test_uhat_p3_matches_nonreductive_route():
    p = p3_uhat_problem()
    a = integrate_uhat(p)
    b = integrate_nonreductive(p)
    assert a == b
    assert a == Fraction(1, 4)


# Values from the rank-one residue-at-infinity loop that the shared
# localisation sum replaced.  The orientation is applied by the command line
# to the final scalar, so the flipped values are read through cli.run on a
# stand-in for a parsed pair_uhat file; the flip negates each of them.
@pytest.mark.parametrize(
    "problem, value",
    [
        (p1_uhat_problem(), 1),
        (p1_uhat_problem(3 * MultiPoly.one(1)), 3),
        (p1_uhat_problem(MultiPoly.variable(1, 0)), 0),
        (p3_uhat_problem(), Fraction(1, 4)),
    ],
    ids=["p1-one", "p1-three", "p1-degree-mismatch", "p3-hyperplane"],
)
@pytest.mark.parametrize("sign_flip", [False, True], ids=["plain", "flipped"])
def test_uhat_pinned_values_in_both_orientations(problem, value, sign_flip):
    assert integrate_uhat(problem) == value
    parsed = SimpleNamespace(mode="pair_uhat", sign_flip=sign_flip, pairing=problem)
    assert cli.run(parsed)["value"] == (-value if sign_flip else value)


# -- general graded group -----------------------------------------------------------


def borel_sl2_p1xp1_components():
    up, down = LinearForm([2]), LinearForm([-2])
    return [
        FixedPointComponent("--", [(up, 1), (up, 1)], lambda_weight=-2, is_min=True),
        FixedPointComponent("-+", [(up, 1), (down, 1)], lambda_weight=0),
        FixedPointComponent("+-", [(down, 1), (up, 1)], lambda_weight=0),
        FixedPointComponent("++", [(down, 1), (down, 1)], lambda_weight=2),
    ]


def borel_sl2_group():
    return GroupData(rank=1, unipotent_weights=[LinearForm([2])], grading=(1,))


def test_nonreductive_borel_sl2_point_quotient():
    # chamber selection keeps the minimal component; -1 in SL(2) acts
    # trivially on P1 x P1, so the constant is 2
    comps = [c for c in borel_sl2_p1xp1_components() if c.is_min]
    p = PairingProblem(
        group=borel_sl2_group(),
        fixed_points=comps,
        class_eta=MultiPoly.one(1),
        normalization=2,
    )
    assert integrate_nonreductive(p) == 1


def test_nonreductive_unfiltered_sum_cancels():
    # without the chamber filtering the four residue contributions cancel
    p = PairingProblem(
        group=borel_sl2_group(),
        fixed_points=borel_sl2_p1xp1_components(),
        class_eta=MultiPoly.one(1),
        normalization=2,
    )
    assert integrate_nonreductive(p) == 0


def test_nonreductive_agrees_with_reductive_on_reductive_data():
    z0, z1 = zz()
    for eta, expected in (((z0 + z1) ** 4, 2), ((z0 + z1) ** 2 * z0 * z1, 1)):
        p = gr24_problem(eta)
        assert integrate_nonreductive(p) == integrate_reductive(p) == expected


def test_nonreductive_degree_mismatch_vanishes():
    z0, z1 = zz()
    assert integrate_nonreductive(gr24_problem((z0 * z1) ** 3)) == 0


def test_nonreductive_rejects_asymmetric_class():
    z0, z1 = zz()
    p = gr24_problem(z0 ** 2)
    with pytest.raises(WeylInvarianceError) as err:
        integrate_nonreductive(p)
    assert err.value.generator_index == 0


# -- the localisation sum ----------------------------------------------------------

# Normal weights of one rank-2 component: pure powers of single coordinates
# (the term keeps only the coefficient at the pole orders), the same with no
# pole on z1 (the term is zero) and a set with the mixed weight z0 + z1 (the
# numerator is multiplied out in full).
LOCALIZATION_WEIGHTS = {
    "pure": [((2, 0), 2), ((0, -1), 3)],
    "one-sided": [((3, 0), 4)],
    "mixed": [((1, 0), 2), ((1, 1), 1), ((0, 1), 2)],
}


def _homogeneous(degree):
    return [(a, degree - a) for a in range(degree + 1)]


@st.composite
def localization_cases(draw):
    """(weights, restriction pole, class, factor): a class mostly
    in the degree where the residue can be nonzero, optionally restricted as
    a ratio with one more pole at z0."""
    weights = LOCALIZATION_WEIGHTS[draw(st.sampled_from(sorted(LOCALIZATION_WEIGHTS)))]
    pole = draw(st.booleans())
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    fdeg = draw(st.integers(0, 2))
    factor = draw(st.dictionaries(st.sampled_from(_homogeneous(fdeg)), coeff, min_size=1, max_size=3))
    degree = sum(m for _, m in weights) + pole - 2 - fdeg
    cls = draw(st.dictionaries(st.sampled_from(_homogeneous(degree)), coeff, min_size=1, max_size=4))
    cls.update(draw(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), coeff, max_size=2)))
    return weights, pole, MultiPoly(2, cls), MultiPoly(2, factor)


@settings(max_examples=80, deadline=None)
@given(localization_cases())
def test_localization_sum_matches_residue_of_the_expanded_term(case):
    weights, pole, cls, factor = case
    restriction_den = [((1, 0), 1)] if pole else []
    comp = FixedPointComponent(
        "c", weights, restriction=RationalFn(cls, restriction_den) if pole else None
    )
    expanded = RationalFn(cls * factor, restriction_den + weights)
    expected = jk_residue(ResidueProblem(expanded))
    assert _localization_sum([comp], cls, factor, None) == expected


def test_localization_sum_checks_the_factor_variable_count():
    comp = FixedPointComponent("c", LOCALIZATION_WEIGHTS["pure"])
    with pytest.raises(ValueError, match="variable count"):
        _localization_sum([comp], MultiPoly.one(2), MultiPoly.one(3), None)


def test_term_names_a_component_of_the_wrong_variable_count():
    # the weights are checked one by one at construction; their length
    # against the class only where class and component meet
    comp = FixedPointComponent("p", [(LinearForm([1, 0]), 1), (LinearForm([1]), 1)])
    with pytest.raises(ValueError, match="^component 'p' has a normal weight in 1 variables, "
                                         "expected 2$"):
        comp.term(MultiPoly.one(2), MultiPoly.one(2))


@pytest.mark.parametrize("weights", [[([1, 0], 2), ([1, 1], 1)], [([0, 1], 1), ([1, 0], 2)]],
                         ids=["mixed", "corner"])
def test_term_merges_the_restriction_poles_with_the_normal_weights(weights):
    # the trusted term keeps the denominator RationalFn(...) would build
    restriction = RationalFn(MultiPoly.variable(2, 0), [([1, 0], 1), ([0, 1], 1)])
    term = FixedPointComponent("p", weights, restriction=restriction).term(None, MultiPoly.one(2))
    assert term.den == RationalFn(term.num, list(restriction.den) + weights).den


# -- abelianisation -----------------------------------------------------------------


def test_abelianized_grassmannian_route():
    z0, z1 = zz()
    pairing = torus_pairing_fn([gr24_origin()], cone=ConeChoice((1, 1)))
    e = euler_class_nonreductive(gr24_group())
    assert integrate_abelianized(pairing, (z0 + z1) ** 4, e, 2) == 2
    assert integrate_abelianized(pairing, (z0 + z1) ** 2 * z0 * z1, e, 2) == 1


def test_abelianized_trivial_weyl_is_plain_torus_pairing():
    z0, z1 = zz()
    pairing = torus_pairing_fn([gr24_origin()])
    cls = (z0 * z1) ** 3 + (z0 ** 2 * z1) * z1 ** 3
    assert integrate_abelianized(pairing, cls, MultiPoly.one(2), 1) == pairing(
        cls, MultiPoly.one(2)
    )


def test_abelianized_pairs_the_lift_with_the_euler_class(monkeypatch):
    # the product lift * e is never formed: each component reads only the
    # coefficient of it that its residue takes
    z0, z1 = zz()
    lift, e = (z0 + z1) ** 4, euler_class_nonreductive(gr24_group())
    product = MultiPoly.__mul__

    def guarded(a, b):
        if {id(a), id(b)} == {id(lift), id(e)}:
            raise AssertionError("formed the lift times the Euler class")
        return product(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", guarded)
    pairing = torus_pairing_fn([gr24_origin()], cone=ConeChoice((1, 1)))
    assert integrate_abelianized(pairing, lift, e, 2) == 2


def test_abelianized_zero_class():
    pairing = torus_pairing_fn([gr24_origin()])
    assert integrate_abelianized(pairing, MultiPoly.zero(2), MultiPoly.one(2), 2) == 0


def test_cross_method_equality_on_gr24_suite():
    z0, z1 = zz()
    e = euler_class_nonreductive(gr24_group())
    pairing = torus_pairing_fn([gr24_origin()])
    suite = [
        (z0 + z1) ** 4,
        (z0 + z1) ** 2 * z0 * z1,
        (z0 * z1) ** 2,
        (z0 ** 2 + z0 * z1 + z1 ** 2) ** 2,
    ]
    for eta in suite:
        direct = integrate_reductive(gr24_problem(eta))
        martin = integrate_abelianized(pairing, eta, e, 2)
        assert direct == martin


def grassmannian_origin(k, n):
    """Gr(k, n) as C^{kn} // U(k): group data and the origin's normal weights."""
    unit = [[1 if j == i else 0 for j in range(k)] for i in range(k)]
    roots = [
        [a - b for a, b in zip(unit[i], unit[j])] for i in range(k) for j in range(i + 1, k)
    ]
    swaps = [
        tuple(i + 1 if m == i else i if m == i + 1 else m for m in range(k))
        for i in range(k - 1)
    ]
    group = GroupData(
        rank=k, positive_roots=roots, weyl_generators=swaps, weyl_order=factorial(k)
    )
    origin = FixedPointComponent("origin", [(LinearForm(u), n) for u in unit], is_min=True)
    return group, origin


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6)])
@pytest.mark.parametrize("with_cone", [False, True], ids=["no-cone", "cone"])
def test_three_routes_agree_on_grassmannian_origin(k, n, with_cone):
    group, origin = grassmannian_origin(k, n)
    cone = ConeChoice(tuple(range(k, 0, -1))) if with_cone else None
    z = zz(k)
    s1, top = sum(z, MultiPoly.zero(k)), MultiPoly.one(k)
    for v in z:
        top = top * v
    e = euler_class_nonreductive(group)
    torus = torus_pairing_fn([origin], cone=cone)
    values = []
    for cls in (s1 ** (k * (n - k)), top ** (n - k), s1 ** (k * (n - k) - 1)):
        problem = PairingProblem(group=group, fixed_points=[origin], class_eta=cls, cone=cone)
        reductive = integrate_reductive(problem)
        assert integrate_nonreductive(problem) == reductive
        assert integrate_abelianized(torus, cls, e, group.weyl_order) == reductive
        assert reductive == grassmannian_pairing(k, n, cls)
        values.append(reductive)
    # sigma_1 to the top power counts tableaux, e_k^(n-k) is the point class,
    # and a class one degree short pairs to zero
    assert values == [pieri_power(k, n, (0,) * k, k * (n - k))[(n - k,) * k], 1, 0]


# -- classical wrappers ---------------------------------------------------------------


def test_flag_projective_space_calibration():
    for n in range(1, 9):
        z = MultiPoly.variable(1, 0)
        assert flag_pairing(1, n, z ** (n - 1)) == 1


def test_flag_tautological_degree():
    z0, _ = zz()
    assert flag_pairing(2, 2, z0) == -1


def test_flag_degree_mismatch():
    assert flag_pairing(2, 2, MultiPoly.one(2)) == 0


def test_grassmannian_values():
    z0, z1 = zz()
    assert grassmannian_pairing(2, 4, (z0 + z1) ** 4) == 2
    assert grassmannian_pairing(2, 4, (z0 + z1) ** 2 * z0 * z1) == 1
    z = MultiPoly.variable(1, 0)
    assert grassmannian_pairing(1, 3, z ** 2) == 1


def test_grassmannian_gr510_degree():
    # sigma_1^25 by the multinomial theorem: sigma_1 ** 25 through __pow__
    # expands every intermediate power
    terms = {}
    for combo in combinations_with_replacement(range(5), 25):
        expo = tuple(combo.count(i) for i in range(5))
        coeff = factorial(25)
        for e in expo:
            coeff //= factorial(e)
        terms[expo] = coeff
    assert grassmannian_pairing(5, 10, MultiPoly(5, terms)) == 701149020


def test_grassmannian_symmetry_check():
    z0, _ = zz()
    with pytest.raises(ValueError):
        grassmannian_pairing(2, 4, z0 ** 4)


def swap_loop_reference(k, phi):
    """The adjacent-swap symmetry check as grassmannian_pairing once ran it
    inline: the message of the first swap that moves ``phi``, or None."""
    for i in range(k - 1):
        swap = list(range(k))
        swap[i], swap[i + 1] = swap[i + 1], swap[i]
        if weyl_act(phi, weyl_element(swap, k)) != phi:
            return "class is not symmetric in the torus variables (swap %d,%d)" % (i, i + 1)
    return None


@st.composite
def partly_symmetric_classes(draw):
    """A class in k = 2..4 variables, symmetrised in its first j variables for
    a drawn j, so that every swap can be the first one to fail."""
    k = draw(st.integers(2, 4))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * k), st.integers(-3, 3).filter(bool), max_size=4
    ))
    phi = MultiPoly(k, terms)
    j = draw(st.integers(0, k))
    if j > 1:
        phi = sum(
            (weyl_act(phi, weyl_element(list(p) + list(range(j, k)), k))
             for p in permutations(range(j))),
            MultiPoly.zero(k),
        )
    return k, phi


@settings(deadline=None, max_examples=60)
@given(partly_symmetric_classes())
@example((2, MultiPoly.variable(2, 0, 4)))
@example((3, MultiPoly(3, {(1, 1, 0): 1})))  # first fails at swap 1,2
@example((4, MultiPoly(4, {(1, 1, 0, 0): 1})))  # swap 1,2
@example((4, MultiPoly(4, {(1, 1, 1, 0): 1})))  # swap 2,3
@example((4, MultiPoly(4, {(2, 1, 1, 1): 1, (1, 2, 1, 1): 1, (1, 1, 2, 1): 1, (1, 1, 1, 2): 1})))
def test_grassmannian_symmetry_check_agrees_with_the_swap_loop(case):
    k, phi = case
    expected = swap_loop_reference(k, phi)
    try:
        grassmannian_pairing(k, k + 1, phi)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def test_grassmannian_schur_basis_oracle():
    # sigma_2 and sigma_{1,1} as Schur polynomials; their squares hit the point
    z0, z1 = zz()
    s2 = z0 ** 2 + z0 * z1 + z1 ** 2
    s11 = z0 * z1
    assert grassmannian_pairing(2, 4, s2 * s2) == 1
    assert grassmannian_pairing(2, 4, s11 * s11) == 1
    assert grassmannian_pairing(2, 4, s2 * s11) == 0


def test_wrapper_preconditions():
    with pytest.raises(ValueError):
        flag_pairing(0, 2, MultiPoly.one(1))
    with pytest.raises(ValueError):
        grassmannian_pairing(3, 2, MultiPoly.one(3))


@st.composite
def wrapper_cases(draw, max_k=3):
    """(k, n, terms): a random class in k <= max_k variables as an exponent
    dict, mostly in the degree where the Grassmannian and flag residues can
    be nonzero, with a few terms of other degrees."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k, k + 3))
    degree = draw(st.sampled_from([k * (n - k), k * (n - 1) - k * (k - 1) // 2]))
    monomials = [
        tuple(combo.count(i) for i in range(k))
        for combo in combinations_with_replacement(range(k), degree)
    ]
    expos = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4))
    expos += draw(st.lists(st.tuples(*[st.integers(0, n)] * k), max_size=2))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    terms = {}
    for expo in expos:
        terms[expo] = terms.get(expo, 0) + draw(coeff)
    return k, n, terms


def _coefficient_of_top(k, n, terms, pairs):
    """Coefficient of prod_i z_i^(n-1) in terms * prod over pairs of (z_i - z_j),
    multiplied out on plain exponent dicts."""
    product = dict(terms)
    for i, j in pairs:
        diff = {
            tuple(int(a == i) for a in range(k)): 1,
            tuple(int(a == j) for a in range(k)): -1,
        }
        product = dense_mul(product, diff)
    return Fraction(product.get((n - 1,) * k, 0))


@settings(max_examples=60, deadline=None)
@given(wrapper_cases())
def test_wrappers_match_coefficient_extraction(case):
    k, n, terms = case
    phi = MultiPoly(k, terms)
    below = [(i, j) for i in range(k) for j in range(i + 1, k)]
    assert flag_pairing(k, n, phi) == _coefficient_of_top(k, n, terms, below)
    symmetric = {}
    for expo, c in terms.items():
        for perm in permutations(range(k)):
            moved = tuple(expo[p] for p in perm)
            symmetric[moved] = symmetric.get(moved, 0) + c
    distinct = [(i, j) for i in range(k) for j in range(k) if i != j]
    assert grassmannian_pairing(k, n, MultiPoly(k, symmetric)) == _coefficient_of_top(
        k, n, symmetric, distinct
    ) / factorial(k)


@settings(max_examples=60, deadline=None)
@given(wrapper_cases(max_k=4), st.permutations(range(4)))
def test_flag_pairing_matches_the_vandermonde_alternant(case, perm):
    # the Borel route through integrate_nonreductive against a signed sum
    # over permutations that expands no product; one added term on the
    # alternant's support keeps most values nonzero
    k, n, terms = case
    expo = tuple(n - k + p for p in perm if p < k)
    terms[expo] = terms.get(expo, 0) + 1
    assert flag_pairing(k, n, MultiPoly(k, terms)) == flag_alternant(k, n, terms)


@settings(max_examples=60, deadline=None)
@given(wrapper_cases(max_k=4))
def test_grassmannian_pairing_matches_the_vandermonde_alternant(case):
    # the residue route against a signed sum over permutations that shares
    # no code with it, on the symmetrisation of a random class
    k, n, terms = case
    symmetric = {}
    for expo, c in terms.items():
        for perm in permutations(range(k)):
            moved = tuple(expo[p] for p in perm)
            symmetric[moved] = symmetric.get(moved, 0) + c
    expected = grassmannian_alternant(k, n, symmetric)
    assert grassmannian_pairing(k, n, MultiPoly(k, symmetric)) == expected


def test_uhat_minimality_flags_must_match_moment_values():
    group = GroupData(rank=1, grading=(1,))
    comps = [
        FixedPointComponent("a", [(LinearForm([1]), 1)], lambda_weight=0, is_min=False),
        FixedPointComponent("b", [(LinearForm([-1]), 1)], lambda_weight=1, is_min=True),
    ]
    p = PairingProblem(group=group, fixed_points=comps, class_eta=MultiPoly.one(1))
    with pytest.raises(
        ValueError, match="^minimality flags disagree with the moment values on: a, b$"
    ):
        integrate_uhat(p)


def weight_group(weights, generators, order):
    return GroupData(
        rank=len(weights[0]), unipotent_weights=weights,
        weyl_generators=generators, weyl_order=order,
    )


def test_factor_check_reads_the_scalars():
    # z0 -> -z0 sends the factor z0 to -z0: the scalars multiply to -1
    group = weight_group([[1]], [[[-1]]], 2)
    with pytest.raises(WeylInvarianceError) as info:
        _check_factors_invariant(_euler_forms(group), group)
    assert info.value.generator_index == 0
    # two such factors: the scalars multiply to 1
    group = weight_group([[1], [1]], [[[-1]]], 2)
    _check_factors_invariant(_euler_forms(group), group)
    # the swap sends 2*z0, z1/2 to 2*z1, z0/2: the same factors up to 4 and 1/4
    group = weight_group([[2, 0], [0, "1/2"]], [(1, 0)], 2)
    _check_factors_invariant(_euler_forms(group), group)


FORM = st.lists(st.sampled_from([0, 1, -1, 2, Fraction(1, 2)]), min_size=2, max_size=2).filter(any)
FACTOR_CHECK_GROUPS = [
    ([(1, 0)], 2),
    ([[[0, -1], [1, 0]]], 4),
    ([[[-1, 0], [0, 1]], (1, 0)], 8),
    ([[[0, 2], ["1/2", 0]]], 2),
]


@settings(deadline=None)
@given(st.lists(FORM, min_size=1, max_size=4), st.sampled_from(FACTOR_CHECK_GROUPS))
@example([[1, -1], [-1, 1]], FACTOR_CHECK_GROUPS[0])
@example([[1, -1]], FACTOR_CHECK_GROUPS[0])
def test_factor_check_agrees_with_the_expanded_product(weights, weyl):
    group = weight_group(weights, *weyl)
    forms = _euler_forms(group)

    def witness(check, arg):
        try:
            check(arg, group)
        except WeylInvarianceError as exc:
            return exc.generator_index
        return None

    assert witness(_check_factors_invariant, forms) == witness(
        _check_weyl_invariant, euler_class_nonreductive(group)
    )


def test_grassmannian_rank_three_tableaux_count():
    z = [MultiPoly.variable(3, i) for i in range(3)]
    s1 = z[0] + z[1] + z[2]
    assert grassmannian_pairing(3, 6, s1 ** 9) == 42
    assert pieri_power(3, 6, (0, 0, 0), 9)[(3, 3, 3)] == 42
    z0, z1 = zz()
    assert grassmannian_pairing(2, 5, (z0 + z1) ** 6) == 5
    assert pieri_power(2, 5, (0, 0), 6)[(3, 3)] == 5


def test_rationalfn_restriction_for_preintegrated_components():
    # a positive-dimensional component supplies its fibre-integrated class as
    # a ratio; here 3z^2 / z agrees with the polynomial datum 3z
    from nrquot.polyring import RationalFn

    group = GroupData(rank=1, unipotent_weights=[LinearForm([2])], grading=(1,))
    weights = [(LinearForm([6]), 1), (LinearForm([4]), 1), (LinearForm([2]), 1)]
    z = MultiPoly.variable(1, 0)
    as_poly = FixedPointComponent(
        "poly", weights, restriction=3 * z, lambda_weight=-3, is_min=True
    )
    as_ratio = FixedPointComponent(
        "ratio",
        weights,
        restriction=RationalFn(3 * z ** 2, [(LinearForm([1]), 1)]),
        lambda_weight=-3,
        is_min=True,
    )
    for comp in (as_poly, as_ratio):
        p = PairingProblem(group=group, fixed_points=[comp], normalization=2)
        assert integrate_uhat(p) == Fraction(1, 4)


@pytest.mark.parametrize("mult, error, message", [
    (0, ValueError, "must be positive, got 0"),
    (-1, ValueError, "must be positive, got -1"),
    (1.5, TypeError, "must be an integer, got 1.5"),
    (True, TypeError, "must be an integer, got True"),
])
def test_component_rejects_a_multiplicity_that_is_not_a_positive_int(mult, error, message):
    # at construction, naming the component, not later in `term`
    with pytest.raises(error, match="component 'p' normal weight multiplicity " + message):
        FixedPointComponent("p", [(LinearForm([1]), mult)])
