"""Naive oracles for the benchmark's answer checks.

Written from scratch against the most direct algorithms (a Pieri walk on
partitions, the q-binomial recursion, dense dictionaries of monomials,
fraction Gaussian elimination) so that no expected value depends on the
package under test.  Nothing here imports ``nrquot``.
"""

from fractions import Fraction
from itertools import product


def pieri_power(k, n, start, steps):
    """Multiply a Schubert class of Gr(k, n) by the hyperplane class.

    Partitions have at most ``k`` rows with parts at most ``n - k``; returns
    the resulting coefficient dictionary.
    """
    state = {tuple(start): 1}
    for _ in range(steps):
        out = {}
        for lam, c in state.items():
            for i in range(k):
                mu = list(lam)
                mu[i] += 1
                if mu[i] > n - k or (i > 0 and mu[i] > mu[i - 1]):
                    continue
                mu = tuple(mu)
                out[mu] = out.get(mu, 0) + c
        state = out
    return state


def grassmannian_number(k, n, m):
    """Degree of sigma_1^a (z_1...z_k)^m on Gr(k, n), a + k m = k (n - k).

    The top Chern class of the tautological quotient power m is the Schubert
    class of the k x m rectangle, so this is a Pieri walk from (m,)*k.
    """
    a = k * (n - k) - k * m
    return pieri_power(k, n, (m,) * k, a).get((n - k,) * k, 0)


def gaussian_binomial(n, k):
    """Coefficient list of the q-binomial [n choose k] in q."""
    if k < 0 or k > n:
        return [0]
    if k in (0, n):
        return [1]
    a = gaussian_binomial(n - 1, k - 1)
    b = gaussian_binomial(n - 1, k)
    out = [0] * max(len(a), len(b) + k)
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i + k] += c
    return out


def grassmannian_series(k, n, bound):
    """Betti numbers of Gr(k, n) in degrees 0..bound, cohomological grading."""
    out = [0] * (bound + 1)
    for i, c in enumerate(gaussian_binomial(n, k)):
        if 2 * i <= bound:
            out[2 * i] = c
    return out


def series_product(a, b, bound):
    out = [0] * (bound + 1)
    for i, x in enumerate(a[: bound + 1]):
        for j, y in enumerate(b[: bound + 1 - i]):
            out[i + j] += x * y
    return out


def kernel_series(d, bound):
    """1 + t^2 + ... + t^(2(d-1)), truncated."""
    return [1 if e % 2 == 0 and e < 2 * d else 0 for e in range(bound + 1)]


# -- the truncated monomial ring Q[z_1..z_k]/(z_i^n) ------------------------


def box_monomials(k, n, degree):
    """Exponent tuples of total degree ``degree`` with every entry below n."""
    return sorted(e for e in product(range(n), repeat=k) if sum(e) == degree)


def dense_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def root_product(k):
    """Product of z_i - z_j over all ordered pairs i != j, as a dict."""
    out = {(0,) * k: 1}
    for i in range(k):
        for j in range(k):
            if i != j:
                form = {}
                form[tuple(int(t == i) for t in range(k))] = 1
                form[tuple(int(t == j) for t in range(k))] = -1
                out = dense_mul(out, form)
    return out


def matrix_rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def box_ring_tables(k, n):
    """Graded, S_k-invariant and annihilator dimensions of Q[z]/(z_i^n).

    The annihilator is that of the product over all roots; a monomial
    quotient multiplies by dropping every monomial with an exponent >= n.
    """
    top = k * (n - 1)
    euler = root_product(k)
    e_deg = k * (k - 1)
    graded, invariant, annihilator = [], [], []
    for d in range(top + 1):
        basis = box_monomials(k, n, d)
        graded.append(len(basis))
        invariant.append(sum(1 for e in basis if list(e) == sorted(e, reverse=True)))
        target = box_monomials(k, n, d + e_deg) if d + e_deg <= top else []
        if not target:
            annihilator.append(len(basis))
            continue
        index = {e: i for i, e in enumerate(target)}
        columns = []
        for b in basis:
            col = [0] * len(target)
            for e, c in dense_mul({b: 1}, euler).items():
                if e in index:
                    col[index[e]] += c
            columns.append(col)
        annihilator.append(len(basis) - matrix_rank(columns))
    return graded, invariant, annihilator


# -- renderings of the CLI's text and LaTeX output --------------------------


def rational_text(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def rational_latex(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return r"%s\frac{%d}{%d}" % (sign, abs(value.numerator), value.denominator)


def series_text(coeffs, latex=False):
    parts = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            if latex:
                body = "t" if e == 1 else "t^{%d}" % e
            else:
                body = "t" if e == 1 else "t^%d" % e
            if abs(c) != 1:
                body = ("%d %s" if latex else "%d*%s") % (abs(c), body)
        if not parts:
            parts.append(("-" if latex else "- ") * (c < 0) + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"
