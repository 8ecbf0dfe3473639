import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrquot._linalg import det
from nrquot.polyring import (
    LinearForm,
    MultiPoly,
    RationalFn,
    _merge,
    _trusted_fn,
    weyl_act,
    weyl_element,
)
from oracles import dense_from_multipoly, dense_mul


def z(i, n=2):
    return MultiPoly.variable(n, i)


def random_polys(nvars, max_deg, max_terms=6):
    """Up to ``max_terms`` terms with exponents in ``0..max_deg``, those of
    total degree above ``max_deg`` dropped, coefficients ``a/b`` with
    ``|a| <= 9`` and ``1 <= b <= 4``."""
    term = st.tuples(
        st.tuples(*[st.integers(0, max_deg)] * nvars), st.integers(-9, 9), st.integers(1, 4)
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda terms: MultiPoly(
            nvars, {e: Fraction(a, b) for e, a, b in terms if sum(e) <= max_deg}
        )
    )


# -- arithmetic ----------------------------------------------------------------


def test_product_of_conjugates():
    p = (z(0) + z(1)) * (z(0) - z(1))
    assert p == MultiPoly(2, {(2, 0): 1, (0, 2): -1})


@settings(deadline=None)
@given(random_polys(2, 4))
def test_additive_identity(p):
    assert p + MultiPoly.zero(2) == p


def test_negated_square():
    p = (z(0) - z(1)) * (z(1) - z(0))
    assert p == MultiPoly(2, {(2, 0): -1, (1, 1): 2, (0, 2): -1})


def test_varcount_mismatch_raises():
    with pytest.raises(ValueError):
        MultiPoly.one(2) + MultiPoly.one(3)


def test_zero_pruning_and_negative_exponent_rejection():
    p = MultiPoly(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): 1})


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        MultiPoly(1, {(1,): 0.5})
    with pytest.raises(TypeError):
        LinearForm([0.5])


@pytest.mark.parametrize("bad", [1.5, True, Fraction(1), "1"])
def test_non_integer_exponents_rejected(bad):
    # int() would truncate 1.5 to 1 and read True as 1
    with pytest.raises(TypeError, match="exponent must be an integer"):
        MultiPoly(1, {(bad,): 1})
    with pytest.raises(TypeError, match="exponent must be an integer"):
        MultiPoly(1, {(1,): 1}).coefficient((bad,))
    with pytest.raises(TypeError, match="exponent must be an integer"):
        MultiPoly.variable(1, 0) ** bad
    with pytest.raises(TypeError, match="exponent must be an integer"):
        MultiPoly.variable(1, 0, bad)


@pytest.mark.parametrize("bad", [1.0, True, Fraction(1), "1"])
def test_non_integer_variable_counts_rejected(bad):
    # 1.0 would be stored and fail later inside is_constant; True would be stored
    message = "variable count must be an integer, got %r" % (bad,)
    with pytest.raises(TypeError, match=re.escape(message)):
        MultiPoly(bad, {(1,): 1})


@pytest.mark.parametrize("index", [-1, 2, 5])
def test_variable_index_must_name_a_variable(index):
    # an unchecked -1 would index from the end and name z1
    message = "variable index must be in 0..1, got %d" % index
    with pytest.raises(ValueError, match=re.escape(message)):
        MultiPoly.variable(2, index)


def test_negative_power_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        MultiPoly.variable(1, 0) ** -1


@pytest.mark.parametrize("bad", [1.5, True])
def test_non_integer_denominator_multiplicities_rejected(bad):
    with pytest.raises(TypeError, match="denominator multiplicity must be an integer"):
        RationalFn(MultiPoly.one(1), [(LinearForm([1]), bad)])


@pytest.mark.parametrize("bad", [0, -1])
def test_nonpositive_denominator_multiplicities_rejected(bad):
    with pytest.raises(ValueError, match="denominator multiplicities must be positive"):
        RationalFn(MultiPoly.one(1), [(LinearForm([1]), bad)])


# -- kernel results ------------------------------------------------------------


@st.composite
def kernel_cases(draw):
    """Rank 1-3, two polynomials, a power and a signed permutation matrix."""
    n = draw(st.integers(1, 3))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    gen = [[signs[i] * int(j == perm[i]) for j in range(n)] for i in range(n)]
    return n, draw(random_polys(n, 3)), draw(random_polys(n, 3)), draw(st.integers(1, 3)), gen


@settings(max_examples=80, deadline=None)
@given(kernel_cases())
def test_kernel_results_keep_the_invariant_without_revalidation(case):
    n, p, q, k, gen = case
    results = {
        "p + q": p + q,
        "p + (-p)": p + (-p),
        "(p + q) - p": (p + q) - p,
        "p - q": p - q,
        "p - p": p - p,
        "-p": -p,
        "p * q": p * q,
        "p * 0": p * 0,
        "0 * p": 0 * p,
        "p * 3/2": p * Fraction(3, 2),
        "p ** 0": p ** 0,
        "p ** k": p ** k,
        "weyl_act": weyl_act(p, weyl_element(gen, n)),
    }
    # each result keeps the MultiPoly invariant and passes the public checks
    for name, result in results.items():
        assert result == MultiPoly(n, result.terms), name
        for expo, coeff in result.terms.items():
            assert type(coeff) is Fraction and coeff != 0, name
            assert len(expo) == n and all(type(e) is int and e >= 0 for e in expo), name
    assert results["p + (-p)"].is_zero() and results["p - p"].is_zero()
    assert results["p * 0"].is_zero() and results["0 * p"].is_zero()
    assert results["(p + q) - p"] == q
    assert results["p ** 0"] == MultiPoly.one(n)


# -- coefficient extraction ----------------------------------------------------


def test_coefficient_of_degree_six_product():
    p = (z(0) + z(1)) ** 4 * (z(0) - z(1)) ** 2
    assert p.coefficient((3, 3)) == -4


def test_coefficient_of_zero_poly():
    assert MultiPoly.zero(2).coefficient((1, 1)) == 0


def test_coefficient_of_squared_difference():
    p = ((z(0) ** 2) - (z(1) ** 2)) ** 2
    assert p.coefficient((2, 2)) == -2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(random_polys(n, 6), random_polys(n, 6))))
def test_coefficient_convolution_matches_dense_oracle(pair):
    p, q = pair
    expected = dense_mul(dense_from_multipoly(p), dense_from_multipoly(q))
    product = p * q
    assert dense_from_multipoly(product) == expected
    for expo in list(expected)[:4]:
        assert product.coefficient(expo) == expected[expo]


# -- Weyl action ---------------------------------------------------------------


def test_weyl_swap_monomial():
    p = z(0) ** 2 * z(1)
    assert weyl_act(p, weyl_element((1, 0), 2)) == z(0) * z(1) ** 2


@settings(deadline=None)
@given(random_polys(3, 5))
def test_weyl_identity(p):
    assert weyl_act(p, weyl_element((0, 1, 2), 3)) == p


def test_weyl_fixes_even_power():
    p = (z(0) - z(1)) ** 2
    assert weyl_act(p, weyl_element((1, 0), 2)) == p


def test_weyl_matrix_action_and_invertibility():
    p = z(0) + z(1)
    m = [[1, 1], [0, 1]]  # z0 -> z0 + z1, z1 -> z1
    assert weyl_act(p, weyl_element(m, 2)) == z(0) + 2 * z(1)
    with pytest.raises(ValueError, match="not invertible"):
        weyl_element([[1, 1], [1, 1]], 2)


def test_weyl_act_takes_powers_by_squaring():
    # a power grown one factor at a time would need 10**9 products here
    p = z(0) ** 10**9 * z(1)
    assert weyl_act(p, weyl_element((1, 0), 2)) == z(0) * z(1) ** 10**9


def substitute(poly, gen):
    """Reference action: replace each ``z_i`` by its image under the raw
    generator, a permutation or a matrix, with ``MultiPoly`` ``+``, ``**``
    and ``*``."""
    n = poly.nvars
    if isinstance(gen, tuple):
        images = [z(j, n) for j in gen]
    else:
        images = [
            sum((c * z(j, n) for j, c in enumerate(row)), MultiPoly.zero(n))
            for row in gen
        ]
    out = MultiPoly.zero(n)
    for expo, coeff in poly.terms.items():
        term = MultiPoly.constant(n, coeff)
        for image, e in zip(images, expo):
            term = term * image ** e
        out = out + term
    return out


@st.composite
def weyl_cases(draw):
    """Rank 1-3; a permutation, a signed permutation or an invertible
    rational matrix; two polynomials with exponents up to 2."""
    n = draw(st.integers(1, 3))
    perm = tuple(draw(st.permutations(range(n))))
    kind = draw(st.sampled_from(["permutation", "signed", "matrix"]))
    if kind == "permutation":
        gen = perm
    elif kind == "signed":
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        gen = [[signs[i] * int(j == perm[i]) for j in range(n)] for i in range(n)]
    else:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        row = st.lists(entry, min_size=n, max_size=n)
        gen = draw(st.lists(row, min_size=n, max_size=n).filter(lambda m: det(m) != 0))
    expo = st.tuples(*[st.integers(0, 2)] * n)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    poly = st.dictionaries(expo, coeff, max_size=5)
    return gen, MultiPoly(n, draw(poly)), MultiPoly(n, draw(poly))


@settings(max_examples=120, deadline=None)
@given(weyl_cases())
def test_weyl_act_is_ring_homomorphism(case):
    gen, p, q = case
    g = weyl_element(gen, p.nvars)
    assert weyl_act(p, g) == substitute(p, gen)
    assert weyl_act(p * q, g) == weyl_act(p, g) * weyl_act(q, g)
    assert weyl_act(p + q, g) == weyl_act(p, g) + weyl_act(q, g)


@settings(max_examples=120, deadline=None)
@given(weyl_cases(), st.data())
def test_linear_form_act_is_row_vector_times_matrix(case, data):
    gen, p, _ = case
    n = p.nvars
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    form = LinearForm(data.draw(st.lists(coeff, min_size=n, max_size=n)))
    g = weyl_element(gen, n)
    # dense reference: the row vector alpha times the generator's matrix
    if isinstance(gen, tuple):
        gen = [[int(j == gen[i]) for j in range(n)] for i in range(n)]
    dense = [sum((form.coeffs[i] * gen[i][j] for i in range(n)), Fraction(0)) for j in range(n)]
    assert form.act(g) == LinearForm(dense)
    assert form.act(g).to_poly() == weyl_act(form.to_poly(), g)


# -- rational functions --------------------------------------------------------


def test_rationalfn_merges_equal_factors():
    f = RationalFn(MultiPoly.one(2), [(LinearForm([1, 0]), 1), (LinearForm([1, 0]), 2)])
    assert f.den == ((LinearForm([1, 0]), 3),)


# Factor lists over a few forms, so that equal forms repeat.
FACTORS = st.lists(
    st.tuples(st.sampled_from([(1, 0), (0, 1), (1, -1), (2, 1), (-1, 0)]).map(LinearForm),
              st.integers(1, 3)),
    max_size=6,
)


def same_fn(a, b):
    return a.num == b.num and a.den == b.den


@settings(deadline=None)
@given(random_polys(2, 3), FACTORS, random_polys(2, 3), FACTORS)
def test_derived_ratios_merge_as_the_validating_constructor_does(num, factors, other, more):
    # _merge is the merge RationalFn(...) runs after its checks, and the
    # operators, which build through it, give the validating constructor's
    # result on their own output.
    f, g = RationalFn(num, factors), RationalFn(other, more)
    assert same_fn(_trusted_fn(num, _merge(factors)), f)
    product = f * g
    assert same_fn(product, RationalFn(num * other, factors + more))
    total = f + g
    assert same_fn(total, RationalFn(total.num, total.den))
    assert {form for form, _ in total.den} == {form for form, _ in factors + more}


def test_rationalfn_rejects_zero_form():
    with pytest.raises(ValueError):
        RationalFn(MultiPoly.one(2), [(LinearForm([0, 0]), 1)])


def test_rationalfn_addition_common_denominator():
    a = RationalFn(MultiPoly.one(1), [(LinearForm([1]), 1)])
    b = RationalFn(MultiPoly.one(1), [(LinearForm([1]), 2)])
    total = a + b
    # 1/z + 1/z^2 = (z + 1)/z^2
    assert total.num == MultiPoly(1, {(1,): 1, (0,): 1})
    assert total.den == ((LinearForm([1]), 2),)


def test_render_smoke():
    p = 2 * z(0) ** 2 - z(1)
    assert p.render() == "2*z0^2 - z1"
    f = RationalFn(MultiPoly.one(2), [(LinearForm([1, -1]), 2)])
    assert "z0 - z1" in f.render()
