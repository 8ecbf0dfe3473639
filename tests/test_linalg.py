"""The sparse exact elimination in ``nrquot._linalg`` against dense references.

The rref reference below is the textbook algorithm on dense rows: normalise
the whole pivot row and subtract whole rows.  Reduced row echelon form is
unique, so the sparse ``rref`` must return the same rows, once densified,
and the same pivots.  ``det`` is checked against the Leibniz expansion and
``inverse`` against the identity.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrquot._linalg import det, inverse, kernel_basis, rank, rref


def dense_rref(rows):
    m = [list(r) for r in rows]
    pivots = []
    row = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(len(m)):
            if r != row:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m[:row], pivots


def dense_rank(rows):
    return len(dense_rref(rows)[1])


# Mostly zeros, a few small rationals of both signs.
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def sparse_matrices(draw, ncols=None):
    """A few random rows, then zero rows and multiples of earlier rows."""
    if ncols is None:
        ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            source = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]))
            rows.append([scale * x for x in source])
        else:
            rows.append([Fraction(0)] * ncols)
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


ALL_ZERO = [[Fraction(0)] * 4 for _ in range(3)]
REPEATED = [[Fraction(1), Fraction(0), Fraction(2)]] * 3


@settings(deadline=None)
@given(sparse_matrices())
@example(ALL_ZERO)
@example(REPEATED)
@example([])
def test_rref_matches_dense_reference(rows):
    reduced, pivots = rref(rows)
    ncols = len(rows[0]) if rows else 0
    dense = [[row.get(j, 0) for j in range(ncols)] for row in reduced]
    assert (dense, pivots) == dense_rref(rows)


@settings(deadline=None)
@given(sparse_matrices())
@example(ALL_ZERO)
@example(REPEATED)
def test_rank_matches_dense_reference(rows):
    assert rank(rows) == dense_rank(rows)


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(sparse_matrices(n), st.just(n))))
@example((ALL_ZERO, 4))
@example((REPEATED, 3))
@example(([], 2))
def test_kernel_basis_matches_dense_reference(case):
    rows, ncols = case
    basis = kernel_basis(rows, ncols)
    assert len(basis) == ncols - dense_rank(rows)
    assert dense_rank(basis) == len(basis)
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)


def test_rref_returns_sparse_rows():
    zero = Fraction(0)
    rows = [[Fraction(2), zero, zero, Fraction(4)], [zero, zero, Fraction(3), zero]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 2]
    assert reduced == [{0: 1, 3: 2}, {2: 1}]


def leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@st.composite
def square_matrices(draw):
    """Up to 4x4: random rows, then maybe a row replaced by a combination of
    the others (singular) and a permutation of the rows."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        scale = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]))
        rows[-1] = [scale * x + y for x, y in zip(rows[0], rows[n - 2])]
    order = draw(st.permutations(range(n)))
    return [rows[i] for i in order]


IDENTITY_SWAPPED = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
CYCLE = [[Fraction(int(j == (i + 1) % 3)) for j in range(3)] for i in range(3)]


@settings(deadline=None)
@given(square_matrices())
@example(IDENTITY_SWAPPED)
@example(CYCLE)
@example([row[:3] for row in ALL_ZERO])
def test_det_matches_leibniz_expansion(rows):
    assert det(rows) == leibniz_det(rows)


@settings(deadline=None)
@given(square_matrices())
@example(IDENTITY_SWAPPED)
@example(REPEATED)
def test_inverse_is_a_two_sided_inverse_or_raises(rows):
    n = len(rows)
    if leibniz_det(rows) == 0:
        with pytest.raises(ValueError, match="^matrix is not invertible$"):
            inverse(rows)
        return
    inv = inverse(rows)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert [[sum(rows[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == identity
    assert [[sum(inv[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == identity
