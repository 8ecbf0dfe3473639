from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrquot._linalg import kernel_basis, rank
from nrquot.betti import QuotientDims, poincare_uhat
from nrquot.cohring import (
    GradedRingPresentation,
    annihilator_dims,
    graded_dims,
    invariant_basis,
    quotient_presentation_betti,
)
from nrquot.exactnum import TruncSeries
from nrquot.groupdata import (
    GroupData,
    WeylInvarianceError,
    _weyl_closure,
    euler_class_nonreductive,
)
from nrquot.polyring import MultiPoly, weyl_act
from oracles import grassmannian_betti


def zvars(n):
    return [MultiPoly.variable(n, i) for i in range(n)]


def truncated_ring(*exponents):
    n = len(exponents)
    z = zvars(n)
    rels = [z[i] ** e for i, e in enumerate(exponents)]
    top = sum(e - 1 for e in exponents)
    return GradedRingPresentation.polynomial_quotient(n, rels, top)


def scaled_ring(nvars, exponent, scalars):
    """Q[z]/(c_i z_i^exponent): the same ideal as the unscaled truncation."""
    z = zvars(nvars)
    rels = [Fraction(c) * z[i] ** exponent for i, c in enumerate(scalars)]
    return GradedRingPresentation.polynomial_quotient(nvars, rels, nvars * (exponent - 1))


S2 = (((1, 0),), 2)


def s2_group(rank=2):
    return GroupData(
        rank=rank,
        positive_roots=[[1, -1]],
        weyl_generators=[(1, 0)],
        weyl_order=2,
    )


# -- graded dimensions ------------------------------------------------------------


def test_graded_dims_univariate():
    assert graded_dims(truncated_ring(3)) == (1, 1, 1)


def test_graded_dims_product():
    assert graded_dims(truncated_ring(3, 3)) == (1, 2, 3, 2, 1)


def test_top_degree_vanishing_enforced():
    z = MultiPoly.variable(1, 0)
    with pytest.raises(ValueError):
        GradedRingPresentation.polynomial_quotient(1, [z ** 3], 1)


def test_nonhomogeneous_relation_rejected():
    z = MultiPoly.variable(1, 0)
    with pytest.raises(ValueError):
        GradedRingPresentation.polynomial_quotient(1, [z + z ** 2], 2)


def test_general_relation_reduction():
    # Q[z0, z1]/(z0^2 - z1^2, z1^3): dims 1, 2, 2, 1
    z0, z1 = zvars(2)
    ring = GradedRingPresentation.polynomial_quotient(
        2, [z0 ** 2 - z1 ** 2, z1 ** 3], 3
    )
    assert graded_dims(ring) == (1, 2, 2, 1)
    assert ring.reduce(z0 ** 2) == ring.reduce(z1 ** 2)


# -- invariants --------------------------------------------------------------------


def test_invariant_dims_s2():
    inv = invariant_basis(truncated_ring(3, 3), S2)
    assert [len(inv[d]) for d in range(5)] == [1, 1, 2, 1, 1]


def test_invariant_trivial_group_is_full_ring():
    ring = truncated_ring(3, 3)
    inv = invariant_basis(ring, ((), 1))
    assert [len(inv[d]) for d in range(5)] == list(graded_dims(ring))


# (variable count, generators, group order); every generator maps each z_i to
# a multiple of some z_j, so it preserves the ideal of scaled powers
REYNOLDS_GROUPS = {
    "S2": (2, [(1, 0)], 2),
    "S3-adjacent": (3, [(1, 0, 2), (0, 2, 1)], 6),
    "S3-transposition-and-cycle": (3, [(1, 0, 2), (1, 2, 0)], 6),
    "signed-permutation": (2, [[[0, -1], [1, 0]]], 4),
    "rational-matrix": (2, [[[0, 2], ["1/2", 0]]], 2),
}


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from(sorted(REYNOLDS_GROUPS)),
    st.integers(2, 4),
    st.lists(st.sampled_from([1, -2, 3, Fraction(1, 2)]), min_size=3, max_size=3),
)
def test_invariant_basis_spans_the_reynolds_averages(name, exponent, scalars):
    nvars, generators, order = REYNOLDS_GROUPS[name]
    ring = scaled_ring(nvars, exponent, scalars[:nvars])
    group = GroupData(rank=nvars, weyl_generators=generators, weyl_order=order)
    inv = invariant_basis(ring, (generators, order))
    for d in range(ring.top_degree + 1):
        averages = []
        for b in ring.basis_elements(d):
            total = MultiPoly.zero(nvars)
            for element in _weyl_closure(group.generator_elements, order, nvars):
                total = total + weyl_act(b, element)
            averages.append(ring.reduce(total * Fraction(1, order), d))
        assert rank(inv[d]) == len(inv[d]) == rank(averages) == rank(averages + inv[d])


def test_invariant_basis_requires_compatible_weyl():
    z0, z1 = zvars(2)
    ring = GradedRingPresentation.polynomial_quotient(2, [z0 ** 3, z1 ** 2], 3)
    with pytest.raises(ValueError):
        invariant_basis(ring, S2)  # swap does not preserve the ideal


# -- annihilators ------------------------------------------------------------------


def test_annihilator_univariate():
    z = MultiPoly.variable(1, 0)
    ring = truncated_ring(3)
    assert annihilator_dims(ring, z ** 2) == (0, 1, 1)


def test_annihilator_of_one_is_zero():
    ring = truncated_ring(3, 3)
    assert annihilator_dims(ring, MultiPoly.one(2)) == (0, 0, 0, 0, 0)


@settings(deadline=None)
@given(st.data())
def test_annihilator_is_an_ideal(data):
    # an annihilator element times any monomial stays in the annihilator
    ring = truncated_ring(3, 3)
    z0, z1 = zvars(2)
    e = -((z0 - z1) ** 2)
    d = data.draw(st.integers(0, 2), label="degree")
    basis = ring.basis_elements(d)
    images = [ring.reduce(b * e, d + 2) for b in basis]
    rows = [[images[c][r] for c in range(len(basis))] for r in range(len(images[0]))]
    kernel = kernel_basis(rows, len(basis))
    weights = data.draw(st.lists(SMALL, min_size=len(kernel), max_size=len(kernel)))
    member = MultiPoly.zero(2)
    for weight, kv in zip(weights, kernel):
        for coeff, b in zip(kv, basis):
            member = member + weight * coeff * b
    x = z0 ** data.draw(st.integers(0, 2)) * z1 ** data.draw(st.integers(0, 2))
    prod = member * x
    assert not any(ring.reduce(prod * e, d + x.total_degree() + 2))


def test_annihilator_inhomogeneous_rejected():
    ring = truncated_ring(3)
    z = MultiPoly.variable(1, 0)
    with pytest.raises(ValueError):
        annihilator_dims(ring, z + z ** 2)


def test_annihilator_invariant_subring_quotient_dims():
    # invariants of Q[z0,z1]/(z0^3,z1^3) modulo ann(-(z0-z1)^2): dims 1,1,1
    ring = truncated_ring(3, 3)
    series = quotient_presentation_betti(ring, S2, s2_group())
    assert series == TruncSeries.from_dict({0: 1, 2: 1, 4: 1}, 8)


# -- quotient presentations ----------------------------------------------------------


def test_quotient_betti_grassmannian_2_3():
    series = quotient_presentation_betti(truncated_ring(3, 3), S2, s2_group())
    expected = grassmannian_betti(2, 3)
    assert list(series.coeffs)[::2][: len(expected)] == expected


def test_quotient_betti_reductive_trivial_weyl():
    ring = truncated_ring(4)
    g = GroupData(rank=1, weyl_order=1)
    series = quotient_presentation_betti(ring, ((), 1), g)
    assert series == TruncSeries.from_dict({0: 1, 2: 1, 4: 1, 6: 1}, 6)


def test_quotient_betti_matches_gaussian_binomials():
    cases = {(1, 3): truncated_ring(3), (2, 3): truncated_ring(3, 3), (2, 4): truncated_ring(4, 4)}
    for (k, n), ring in cases.items():
        if k == 1:
            weyl = ((), 1)
            group = GroupData(rank=1, weyl_order=1)
        else:
            weyl = S2
            group = s2_group()
        series = quotient_presentation_betti(ring, weyl, group)
        expected = grassmannian_betti(k, n)
        got = [series.coefficient(2 * i) for i in range(len(expected))]
        assert got == expected
        assert all(
            series.coefficient(j) == 0
            for j in range(series.bound + 1)
            if j % 2 == 1 or j // 2 >= len(expected)
        )


def test_quotient_betti_requires_invariant_euler():
    z0, z1 = zvars(2)
    ring = truncated_ring(3, 3)
    bad_group = GroupData(
        rank=2,
        positive_roots=[[1, 0]],  # swap sends z0 to z1, not preserved
        weyl_generators=[(1, 0)],
        weyl_order=2,
    )
    with pytest.raises(WeylInvarianceError):
        quotient_presentation_betti(ring, S2, bad_group)


def test_quotient_betti_dimension_bookkeeping():
    # per degree: quotient dim = invariant dim - invariant annihilator dim
    ring = truncated_ring(3, 3)
    group = s2_group()
    series = quotient_presentation_betti(ring, S2, group)
    inv = invariant_basis(ring, S2)
    z0, z1 = zvars(2)
    e = -((z0 - z1) ** 2)
    for d in range(5):
        vectors = inv[d]
        images = [ring.reduce(ring.element(d, v) * e, d + 2) for v in vectors]
        expected = rank(images) if vectors else 0
        assert series.coefficient(2 * d) == expected


def test_quotient_betti_cross_checks_poincare_H():
    # weighted P^1 as a circle quotient of P^2: ring Q[z]/(z^2), trivial Weyl
    ring = truncated_ring(2)
    g = GroupData(rank=1, weyl_order=1)
    series = quotient_presentation_betti(ring, ((), 1), g)
    chain = poincare_uhat(TruncSeries.one(2), QuotientDims(2, 0, 0))
    assert series == chain


# -- pinned rings with scaled relations ----------------------------------------------
# Values computed with the dense elimination that the sparse one replaced.


A2_ROOTS = [[1, -1, 0], [0, 1, -1], [1, 0, -1]]


@pytest.mark.parametrize(
    "generators",
    [((1, 0, 2), (0, 2, 1)), ((1, 0, 2), (1, 2, 0))],
    ids=["adjacent-transpositions", "transposition-and-cycle"],
)
def test_pinned_s3_ring_in_three_variables(generators):
    ring = scaled_ring(3, 4, (2, 3, 5))
    weyl = (generators, 6)
    group = GroupData(
        rank=3, positive_roots=A2_ROOTS, weyl_generators=generators, weyl_order=6
    )
    series = quotient_presentation_betti(ring, weyl, group)
    assert series == TruncSeries.from_dict({0: 1, 2: 1, 4: 1, 6: 1}, 18)
    inv = invariant_basis(ring, weyl)
    assert [len(inv[d]) for d in range(10)] == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]
    assert annihilator_dims(ring, euler_class_nonreductive(group)) == (
        0, 0, 3, 9, 12, 12, 10, 6, 3, 1,
    )


def test_pinned_s2_ring_with_fifth_powers():
    ring = scaled_ring(2, 5, (2, 3))
    group = s2_group()
    series = quotient_presentation_betti(ring, S2, group)
    assert series == TruncSeries([1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 1, 0, 1], 16)
    inv = invariant_basis(ring, S2)
    assert [len(inv[d]) for d in range(9)] == [1, 1, 2, 2, 3, 2, 2, 1, 1]
    assert annihilator_dims(ring, euler_class_nonreductive(group)) == (
        0, 0, 0, 0, 2, 2, 2, 2, 1,
    )


# -- reduce: linear, and zero on the relation ideal ------------------------------------


def coinvariant_ring():
    """Q[z0,z1,z2] modulo scaled elementary symmetric polynomials: dims 1,2,2,1.

    No relation is a monomial, so pivot monomials reduce onto several free
    monomials."""
    z0, z1, z2 = zvars(3)
    rels = [
        2 * (z0 + z1 + z2),
        Fraction(1, 3) * (z0 * z1 + z0 * z2 + z1 * z2),
        -5 * z0 * z1 * z2,
    ]
    return GradedRingPresentation.polynomial_quotient(3, rels, 3)


def mixed_ring():
    z0, z1 = zvars(2)
    return GradedRingPresentation.polynomial_quotient(2, [z0 ** 2 - 3 * z1 ** 2, 2 * z1 ** 3], 3)


RINGS = {"coinvariant": coinvariant_ring(), "mixed": mixed_ring()}
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def exponents(nvars, degree):
    """Every exponent tuple of the given total degree."""
    if nvars == 1:
        return [(degree,)]
    return [
        (first,) + rest
        for first in range(degree + 1)
        for rest in exponents(nvars - 1, degree - first)
    ]


def polys(nvars, degree):
    """Homogeneous polynomials of one degree with small rational coefficients."""
    expos = exponents(nvars, degree)
    return st.lists(SMALL, min_size=len(expos), max_size=len(expos)).map(
        lambda coeffs: MultiPoly(nvars, dict(zip(expos, coeffs)))
    )


def test_coinvariant_ring_dims():
    assert graded_dims(coinvariant_ring()) == (1, 2, 2, 1)
    assert graded_dims(mixed_ring()) == (1, 2, 2, 1)


@settings(deadline=None)
@given(st.sampled_from(sorted(RINGS)), st.data())
def test_reduce_is_linear(name, data):
    ring = RINGS[name]
    degree = data.draw(st.integers(0, ring.top_degree))
    p, q = data.draw(polys(ring.nvars, degree)), data.draw(polys(ring.nvars, degree))
    a, b = data.draw(SMALL), data.draw(SMALL)
    expected = [
        a * x + b * y for x, y in zip(ring.reduce(p, degree), ring.reduce(q, degree))
    ]
    assert ring.reduce(a * p + b * q, degree) == expected


@settings(deadline=None)
@given(st.sampled_from(sorted(RINGS)), st.data())
def test_reduce_kills_relation_multiples(name, data):
    ring = RINGS[name]
    for rel in ring.relations:
        for degree in range(rel.total_degree(), ring.top_degree + 1):
            multiplier = data.draw(polys(ring.nvars, degree - rel.total_degree()))
            assert not any(ring.reduce(rel * multiplier, degree))


@settings(deadline=None)
@given(st.sampled_from(sorted(RINGS)), st.data())
def test_reduce_returns_a_representative_of_the_class(name, data):
    # p minus the element its coordinates name lies in the span of the
    # relation multiples of that degree
    ring = RINGS[name]
    degree = data.draw(st.integers(0, ring.top_degree))
    p = data.draw(polys(ring.nvars, degree))
    rest = p - ring.element(degree, ring.reduce(p, degree))
    expos = exponents(ring.nvars, degree)
    multiples = [
        rel * MultiPoly(ring.nvars, {m: 1})
        for rel in ring.relations
        if degree >= rel.total_degree()
        for m in exponents(ring.nvars, degree - rel.total_degree())
    ]
    rows = [[f.terms.get(e, Fraction(0)) for e in expos] for f in multiples]
    rest_row = [rest.terms.get(e, Fraction(0)) for e in expos]
    assert rank(rows + [rest_row]) == rank(rows)
