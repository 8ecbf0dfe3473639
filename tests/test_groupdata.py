import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrquot.groupdata import (
    ConeChoice,
    GroupData,
    InvalidConeError,
    _FieldError,
    _weyl_closure,
    check_grading,
    check_well_adapted,
    euler_class_nonreductive,
)
from nrquot.polyring import LinearForm, MultiPoly, weyl_act, weyl_element


@pytest.mark.parametrize("bad", [1.0, True, Fraction(1), "1"])
def test_non_integer_rank_rejected(bad):
    # True would be stored as the rank; 1.0 failed inside the grading default
    message = "torus rank must be an integer, got %r" % (bad,)
    with pytest.raises(TypeError, match=re.escape(message)):
        GroupData(bad)


def test_grading_sl2_borel():
    g = GroupData(rank=1, unipotent_weights=[LinearForm([2])], grading=(1,))
    assert check_grading(g) is None


def test_grading_failure_reports_weight():
    # the first weight that fails is named, with its pairing
    g = GroupData(rank=2, unipotent_weights=[[1, 0], [0, -1], [-1, 0]], grading=(1, 1))
    with pytest.raises(_FieldError) as info:
        check_grading(g)
    assert info.value.suffix == ".grading"
    assert str(info.value) == ("unipotent weight -z1 pairs to -1 with the grading; "
                               "it must be positive")


def test_grading_vacuous_for_reductive():
    g = GroupData(rank=2, grading=(1, 0))
    assert check_grading(g) is None


def test_well_adapted_inside_interval():
    report = check_well_adapted([-3, -1, 2], Fraction(-29, 10))
    assert report
    assert report.interval == (Fraction(-3), Fraction(-1))


def test_well_adapted_outside_interval():
    assert not check_well_adapted([-3, -1, 2], Fraction(-7, 2))


def test_well_adapted_zero_one():
    report = check_well_adapted([0, 1], Fraction(1, 10))
    assert report
    assert report.interval == (Fraction(0), Fraction(1))
    assert report.margin == Fraction(1, 10)


def test_well_adapted_needs_two_distinct_weights():
    with pytest.raises(ValueError):
        check_well_adapted([5, 5, 5], Fraction(0))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-20, 19), min_size=3, max_size=3, unique=True).map(sorted),
    st.integers(1, 9),
    st.integers(2, 5),
)
def test_well_adapted_monotone_toward_minimum(weights, tenths, divisor):
    low, high = Fraction(weights[0]), Fraction(weights[1])
    chi = low + (high - low) * Fraction(tenths, 10)
    assert check_well_adapted(weights, chi)
    closer = low + (chi - low) / divisor
    assert check_well_adapted(weights, closer)


def test_euler_class_torus_pair_of_roots():
    g = GroupData(rank=2, positive_roots=[LinearForm([1, -1])])
    z0 = MultiPoly.variable(2, 0)
    z1 = MultiPoly.variable(2, 1)
    assert euler_class_nonreductive(g) == -((z0 - z1) ** 2)


def test_euler_class_sl2_borel():
    g = GroupData(rank=1, unipotent_weights=[LinearForm([2])], grading=(1,))
    assert euler_class_nonreductive(g) == 2 * MultiPoly.variable(1, 0)


def test_euler_class_sl3_borel():
    # adjoint weights of strictly upper triangular 3x3 matrices: z_i - z_j, i < j
    weights = [LinearForm([1, -1, 0]), LinearForm([1, 0, -1]), LinearForm([0, 1, -1])]
    g = GroupData(rank=3, unipotent_weights=weights,
                  grading=(Fraction(5, 3), Fraction(-1, 3), Fraction(-4, 3)))
    check_grading(g)
    expected = MultiPoly.one(3)
    for w in weights:
        expected = expected * w.to_poly()
    assert euler_class_nonreductive(g) == expected


def test_euler_class_weyl_invariant():
    # S2 permutes the two torus coordinates; the root pair is preserved
    g = GroupData(
        rank=2,
        positive_roots=[LinearForm([1, -1])],
        weyl_generators=[(1, 0)],
        weyl_order=2,
    )
    e = euler_class_nonreductive(g)
    for gen in g.weyl_generators:
        assert weyl_act(e, weyl_element(gen, 2)) == e
    # swap also permutes a pair of unipotent weights
    g2 = GroupData(
        rank=2,
        positive_roots=[LinearForm([1, -1])],
        unipotent_weights=[LinearForm([1, 0]), LinearForm([0, 1])],
        weyl_generators=[(1, 0)],
        weyl_order=2,
        grading=(1, 1),
    )
    e2 = euler_class_nonreductive(g2)
    for gen in g2.weyl_generators:
        assert weyl_act(e2, weyl_element(gen, 2)) == e2


def test_cone_validation():
    cone = ConeChoice((1, 1))
    cone.validate([LinearForm([1, 0]), LinearForm([0, 1]), LinearForm([2, 1])])
    with pytest.raises(InvalidConeError):
        cone.validate([LinearForm([1, -1])])


def test_weyl_enumeration_s2_and_s3():
    g = GroupData(rank=2, weyl_generators=[(1, 0)], weyl_order=2)
    assert len(_weyl_closure(g.generator_elements, 2, 2)) == 2
    g3 = GroupData(rank=3, weyl_generators=[(1, 0, 2), (0, 2, 1)], weyl_order=6)
    assert len(_weyl_closure(g3.generator_elements, 6, 3)) == 6
    with pytest.raises(ValueError):
        GroupData(rank=3, weyl_generators=[(1, 0, 2)], weyl_order=6)
    # no group has fewer than one element
    with pytest.raises(ValueError, match="of order 1, declared 0"):
        GroupData(rank=2, weyl_order=0)


# -- the one Weyl element form against a dense matrix closure ----------------------


def dense_closure(matrices, n):
    """Every product of the generator matrices, by breadth-first search over
    dense row tuples: the reference for ``groupdata._weyl_closure``."""
    matrices = [[[Fraction(x) for x in row] for row in g] for g in matrices]
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for m in frontier:
            for g in matrices:
                prod = tuple(
                    tuple(sum((g[i][l] * m[l][j] for l in range(n)), Fraction(0))
                          for j in range(n))
                    for i in range(n)
                )
                if prod not in seen:
                    seen.add(prod)
                    fresh.append(prod)
        frontier = fresh
    return seen


def matrix_product(a, b):
    n = len(a)
    return [[sum((Fraction(a[i][l]) * Fraction(b[l][j]) for l in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def permutation_matrix(perm):
    n = len(perm)
    return [[int(perm[i] == j) for j in range(n)] for i in range(n)]


def dense(element, n):
    return tuple(
        tuple(dict(row).get(j, Fraction(0)) for j in range(n)) for row in element
    )


SIGNED_B2 = [[[0, 1], [1, 0]], [[-1, 0], [0, 1]]]
# W(A2) in root coordinates: rows with two entries compose through the sum
A2_ROOT_COORDINATES = [[[-1, 0], [1, 1]], [[1, 1], [0, -1]]]


@st.composite
def generator_spellings(draw):
    """A rank and two or three spellings of the same group: permutations of
    S2-S4 and the same permutations as matrices, or W(B2) or W(A2) as
    matrices; last, the matrices with one of them repeated and the product of
    two appended, which the group already contains."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
        spellings = [perms, [permutation_matrix(p) for p in perms]]
    else:
        n, spellings = 2, [draw(st.sampled_from([SIGNED_B2, A2_ROOT_COORDINATES]))]
    matrices = spellings[-1]
    first, second = (draw(st.sampled_from(matrices)) for _ in range(2))
    return n, spellings + [matrices + [first, matrix_product(first, second)]]


@st.composite
def polynomials(draw, n):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n), st.integers(-5, 5), max_size=5
    ))
    return MultiPoly(n, terms)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_weyl_closure_and_action_match_the_dense_reference(data):
    n, spellings = data.draw(generator_spellings())
    reference = dense_closure(spellings[-2], n)
    # the repeated generator and the product add nothing to the group
    assert dense_closure(spellings[-1], n) == reference
    poly = data.draw(polynomials(n))
    actions = []
    for gens in spellings:
        group = GroupData(rank=n, weyl_generators=gens, weyl_order=len(reference))
        elements = _weyl_closure(group.generator_elements, len(reference), n)
        assert len(elements) == len(reference)
        assert {dense(e, n) for e in elements} == reference
        actions.append([weyl_act(poly, weyl_element(g, n)) for g in gens[:len(spellings[0])]])
    assert all(images == actions[0] for images in actions)
    if len(spellings) == 3:
        # z_i -> z_{perm[i]} moves exponent e_i to position perm[i]
        for perm, image in zip(spellings[0], actions[0]):
            moved = {}
            for expo, c in poly.terms.items():
                target = [0] * n
                for i, e in enumerate(expo):
                    target[perm[i]] = e
                moved[tuple(target)] = c
            assert image == MultiPoly(n, moved)
