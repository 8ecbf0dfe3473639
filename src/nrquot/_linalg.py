"""Exact linear algebra over Fraction: one sparse Gauss-Jordan elimination.

A row is a ``{column: value}`` dict of its nonzero entries; a dense
sequence is read as one.  Torus-rank matrices are tiny, but the per-degree
matrices of a ring presentation are not: the relation multiples of
Q[z0,z1,z2]/(z_i^6) reach 165 rows by 136 columns in one degree, and almost
every cell is zero.  ``rref``, ``rank``, ``kernel_basis``, ``inverse`` and
``det`` all run the one elimination below, which touches only nonzero
entries.
"""

from fractions import Fraction

from .exactnum import as_fraction


def to_matrix(rows):
    return [[as_fraction(x) for x in row] for row in rows]


def _subtract(target, factor, row):
    """``target -= factor * row`` in place, keeping only nonzero entries."""
    for j, x in row.items():
        value = target.get(j, 0) - factor * x
        if value:
            target[j] = value
        else:
            del target[j]


def _eliminate(rows):
    """Gauss-Jordan elimination on sparse rows.

    Each row is reduced by the pivot rows found so far; what is left opens a
    pivot at its first column, is scaled to 1 there and is cleared from the
    earlier pivot rows.  Returns ``(pivot_rows, steps)``: ``pivot_rows`` maps
    each pivot column to its reduced row, and ``steps`` lists, per input
    row, its ``(pivot column, pivot value before scaling)`` or ``None`` when
    the row reduced to zero.
    """
    pivot_rows = {}
    steps = []
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        r = {j: x for j, x in items if x != 0}
        # A pivot row is zero on every other pivot column, so subtracting it
        # clears its own column and leaves the others as they were.
        for col in [c for c in r if c in pivot_rows]:
            _subtract(r, r[col], pivot_rows[col])
        if not r:
            steps.append(None)
            continue
        col = min(r)
        value = r[col]
        r = {j: x / value for j, x in r.items()}
        for other in pivot_rows.values():
            if col in other:
                _subtract(other, other[col], r)
        pivot_rows[col] = r
        steps.append((col, value))
    return pivot_rows, steps


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    The rows are sparse dicts in pivot order, and the pivot columns ascend.
    """
    pivot_rows = _eliminate(rows)[0]
    pivots = sorted(pivot_rows)
    return [pivot_rows[p] for p in pivots], pivots


def rank(rows):
    return len(rref(rows)[1])


def det(rows):
    """Exact determinant of a square matrix.

    The elimination only adds multiples of earlier rows to a row before it
    opens its pivot, so the determinant is the product of the pivot values,
    signed by the permutation taking each row to its pivot column.
    """
    steps = _eliminate(rows)[1]
    if None in steps:
        return Fraction(0)
    result = Fraction(1)
    for i, (col, value) in enumerate(steps):
        result *= value
        if sum(later < col for later, _ in steps[i + 1:]) % 2:
            result = -result
    return result


def inverse(rows):
    """Exact inverse; raises ValueError on singular input."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is not invertible")
    return [[row.get(n + j, Fraction(0)) for j in range(n)] for row in reduced]


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix (rows of length ncols)."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = {f: [Fraction(int(j == f)) for j in range(ncols)]
             for f in range(ncols) if f not in pivot_set}
    for row, p in zip(reduced, pivots):
        for j, x in row.items():
            if j != p:
                basis[j][p] = -x
    return list(basis.values())
