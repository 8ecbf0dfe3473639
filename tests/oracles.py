"""Independent oracles for the test suite.

Everything here is deliberately written from scratch against the most naive
possible algorithms (dense exponent dictionaries, a Pieri-rule walk on
partitions, the q-binomial recursion, univariate long division, the
Vandermonde alternant) so test expectations never depend on the code under
test.
"""

from fractions import Fraction
from itertools import permutations


def dense_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def dense_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def dense_pow(a, n, nvars):
    r = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        r = dense_mul(r, a)
    return r


def dense_from_multipoly(p):
    return {e: Fraction(c) for e, c in p.terms.items()}


def pieri_power(k, n, start, steps):
    """Multiply a Schubert class by the hyperplane class ``steps`` times.

    Partitions have at most ``k`` rows with parts at most ``n - k``; returns
    the resulting coefficient dictionary.
    """
    state = {tuple(start): Fraction(1)}
    for _ in range(steps):
        out = {}
        for lam, c in state.items():
            for i in range(k):
                mu = list(lam)
                mu[i] += 1
                if mu[i] > n - k:
                    continue
                if i > 0 and mu[i] > mu[i - 1]:
                    continue
                mu = tuple(mu)
                out[mu] = out.get(mu, Fraction(0)) + c
        state = out
    return state


def flag_alternant(k, n, terms):
    """The flag pairing of a class in ``k`` variables, given as ``{exponent
    tuple: coefficient}``, read off the Vandermonde alternant.

    prod_{i<j} (z_i - z_j) = sum over permutations s of sgn(s) times
    prod_i z_i^(k-1-s(i)), so the coefficient of prod_i z_i^(n-1) in class
    times it is sum_s sgn(s) terms[(n-1-(k-1-s(i)))_i].
    """
    total = Fraction(0)
    for perm in permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        expo = tuple(n - k + p for p in perm)
        total += (-1) ** inversions * Fraction(terms.get(expo, 0))
    return total


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


def grassmannian_betti(k, n):
    """Betti numbers of the Grassmannian in cohomological degree 2i."""
    return gaussian_binomial(n, k)


def laurent_derivative(coeffs):
    """Derivative of a one-variable Laurent polynomial {exponent: coeff}."""
    out = {}
    for e, c in coeffs.items():
        if e != 0 and c != 0:
            out[e - 1] = out.get(e - 1, Fraction(0)) + e * c
    return out


def truncated_product(a, b, bound):
    """Coefficients 0..bound of the product of two coefficient lists, by the
    schoolbook convolution."""
    out = [0] * (bound + 1)
    for i, ci in enumerate(a[: bound + 1]):
        for j, cj in enumerate(b[: bound + 1 - i]):
            out[i + j] += ci * cj
    return out


def betti_kernel(d, bound):
    """Coefficients 0..bound of 1 + t^2 + ... + t^{2(d-1)}."""
    return [1 if e % 2 == 0 and e < 2 * d else 0 for e in range(bound + 1)]


def _nonnegative(coeffs, what):
    if any(c < 0 for c in coeffs):
        raise ValueError("%s produced a negative coefficient; input inconsistent" % what)
    return coeffs


def quotient_betti(coeffs, d):
    """P(Z_min) times the kernel, at the bound of ``coeffs``; raises as the
    quotient formula does on a negative coefficient."""
    bound = len(coeffs) - 1
    return _nonnegative(
        truncated_product(coeffs, betti_kernel(d, bound), bound), "quotient series"
    )


def morse_sum(strata):
    """Sum of t^(2 codim) times the series over ``(codim, coeffs)`` pairs, at
    the least bound; the empty sum is [0]."""
    if not strata:
        return [0]
    bound = min(len(coeffs) for _, coeffs in strata) - 1
    total = [0] * (bound + 1)
    for codim, coeffs in strata:
        monomial = [1 if e == 2 * codim else 0 for e in range(bound + 1)]
        product = truncated_product(monomial, coeffs, bound)
        total = [x + y for x, y in zip(total, product)]
    return _nonnegative(total, "Morse assembly")


def divide_by_one_plus_t(total, strata_sum):
    """Divide ``strata_sum - total`` by 1 + t with a carry loop: the quotient
    coefficients below the bound, or the perfection check's ValueError."""
    diff = [s - t for s, t in zip(strata_sum, total)]
    bound = len(diff) - 1
    if bound == 0:
        if diff[0] != 0:
            raise ValueError("Morse defect is a nonzero constant")
        return [0]
    quotient = []
    carry = 0
    for c in diff[:bound]:
        carry = c - carry
        quotient.append(carry)
    residue = diff[bound] - carry
    if residue != 0:
        raise ValueError("Morse defect is not divisible by (1 + t); residue %d" % residue)
    return quotient


def residue_at_infinity_by_division(num_terms, den_forms, var, point):
    """The coefficient of ``z^-1`` at ``z = infinity`` of num / den, where
    ``z`` is variable ``var`` and every other variable takes its value in
    ``point``.

    ``num_terms`` maps exponent tuples to coefficients and ``den_forms`` is a
    list of ``(coefficient list, multiplicity)`` pairs.  Specialised at
    ``point``, num and den are polynomials in ``z``; long division gives
    num = q den + r with deg r < deg den = d, q contributes no ``z^-1`` and
    r / den = (r_{d-1} / den_d) z^-1 + O(z^-2).  The leading coefficient
    ``den_d`` must not vanish at ``point``.
    """
    num = {}
    for expo, c in num_terms.items():
        term = Fraction(c)
        for i, e in enumerate(expo):
            if i != var:
                term *= Fraction(point[i]) ** e
        num[expo[var]] = num.get(expo[var], 0) + term
    num = [num.get(k, 0) for k in range(max(num, default=0) + 1)]
    den = [Fraction(1)]
    for coeffs, mult in den_forms:
        rest = sum(Fraction(c) * point[i] for i, c in enumerate(coeffs) if i != var)
        factor = [rest, Fraction(coeffs[var])] if coeffs[var] else [rest]
        for _ in range(mult):
            product = [Fraction(0)] * (len(den) + len(factor) - 1)
            for i, a in enumerate(den):
                for j, b in enumerate(factor):
                    product[i + j] += a * b
            den = product
    d = len(den) - 1
    if d == 0:
        return Fraction(0)
    r = num + [Fraction(0)] * max(d - len(num), 0)
    for k in range(len(r) - 1, d - 1, -1):
        q = r[k] / den[d]
        for i in range(d + 1):
            r[k - d + i] -= q * den[i]
    return r[d - 1] / den[d]
