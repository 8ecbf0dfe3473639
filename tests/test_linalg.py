"""The sparse exact elimination in ``nrquot._linalg`` against dense Gauss-Jordan.

The reference below is the textbook algorithm on dense rows: normalise the
whole pivot row and subtract whole rows.  Reduced row echelon form is
unique, so the sparse ``rref`` must return exactly the same rows and pivots.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrquot._linalg import kernel_basis, rank, rref


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
    assert rref(rows) == dense_rref(rows)


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


def test_rref_keeps_zero_cells_of_the_input():
    zero = Fraction(0)
    rows = [[Fraction(2), zero, zero, Fraction(4)], [zero, zero, Fraction(3), zero]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 2]
    assert reduced == [[1, 0, 0, 2], [0, 0, 1, 0]]
    assert reduced[0][1] is zero and reduced[1][3] is zero
