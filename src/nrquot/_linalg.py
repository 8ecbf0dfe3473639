"""Exact linear algebra over Fraction: rref, rank, kernel, det, inverse.

Matrices are lists of row tuples/lists of Fractions.  Torus-rank matrices
are tiny, but the per-degree matrices of a ring presentation are not: the
relation multiples of Q[z0,z1,z2]/(z_i^6) reach 165 rows by 136 columns in
one degree, and almost every cell is zero.  Gauss-Jordan elimination here
therefore touches only nonzero entries.
"""

from fractions import Fraction

from .exactnum import as_fraction


def to_matrix(rows):
    return [[as_fraction(x) for x in row] for row in rows]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    Only the nonzero entries of a pivot row are normalised and subtracted,
    so a cell outside every pivot row's support keeps the input's object:
    the zero cells of a sparse matrix are not rebuilt as fresh Fractions.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        prow = m[row]
        pv = prow[col]
        # Left of ``col`` the pivot row is zero: earlier pivot columns were
        # cleared and the other columns had no pivot in the remaining rows.
        support = [j for j in range(col, ncols) if prow[j] != 0]
        for j in support:
            prow[j] /= pv
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                target = m[r]
                factor = target[col]
                for j in support:
                    target[j] -= factor * prow[j]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m[:row], pivots


def rank(rows):
    return len(rref(rows)[1])


def det(rows):
    """Exact determinant by fraction Gaussian elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    result = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return result


def inverse(rows):
    """Exact inverse; raises ValueError on singular input."""
    n = len(rows)
    aug = [list(r) + identity(n)[i] for i, r in enumerate(rows)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is not invertible")
    return [row[n:] for row in reduced]


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix (rows of length ncols)."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in zip(reduced, pivots):
            v[p] = -r[f]
        basis.append(v)
    return basis

