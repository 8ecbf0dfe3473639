"""Acceptance suite: one test per criterion, exact equalities throughout.

Every expected value is pinned against an independent oracle (Pieri-rule
walk, dense polynomial expansion, q-binomials, finite differences); the two
floating-point diagnostics carry the only tolerances in the file.  Each test
prints a single pass line; run with ``pytest -s tests/test_acceptance.py``
to see them, or rely on the per-test pass/fail report.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from nrquot.betti import QuotientDims, StratumDatum, morse_assemble, poincare_uhat
from nrquot.cohring import GradedRingPresentation, invariant_basis, quotient_presentation_betti
from nrquot.exactnum import TruncSeries
from nrquot.groupdata import ConeChoice, GroupData, euler_class_nonreductive
from nrquot.localize import (
    FixedPointComponent,
    PairingProblem,
    flag_pairing,
    grassmannian_pairing,
    integrate_abelianized,
    integrate_nonreductive,
    integrate_reductive,
    integrate_uhat,
    torus_pairing_fn,
)
from nrquot.momentdiag import (
    LinearActionSample,
    fixed_point_weight_residual,
    moment_derivative_check,
)
from nrquot.polyring import LinearForm, MultiPoly, RationalFn
from nrquot.residue import ResidueProblem, jk_residue, residue_at_infinity
from oracles import dense_from_multipoly, dense_mul, laurent_derivative, pieri_power


def report(n, text):
    print("ACCEPTANCE %2d: PASS  %s" % (n, text))


def z2():
    return MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


def test_criterion_1_grassmannian_pairings():
    z0, z1 = z2()
    sigma1_4 = grassmannian_pairing(2, 4, (z0 + z1) ** 4)
    mixed = grassmannian_pairing(2, 4, (z0 + z1) ** 2 * z0 * z1)
    # Pieri oracle, computed independently of the residue machinery
    assert pieri_power(2, 4, (0, 0), 4)[(2, 2)] == 2
    assert pieri_power(2, 4, (1, 1), 2)[(2, 2)] == 1
    assert sigma1_4 == 2
    assert mixed == 1
    report(1, "Grassmannian pairings (z1+z2)^4 -> 2 and (z1+z2)^2 z1 z2 -> 1")


def test_criterion_2_projective_space_calibration():
    z = MultiPoly.variable(1, 0)
    for n in range(1, 9):
        assert flag_pairing(1, n, z ** (n - 1)) == 1
    report(2, "hyperplane degree on P^(n-1) equals 1 for n = 1..8")


def test_criterion_3_flag_pairing():
    z0, z1 = z2()
    # brute-force coefficient oracle: z1^1 z2^1 in z1 (z1 - z2)
    dense = dense_mul(
        dense_from_multipoly(z0), dense_from_multipoly(z0 - z1)
    )
    assert dense[(1, 1)] == -1
    assert flag_pairing(2, 2, z0) == -1
    report(3, "flag pairing (k=2, n=2, z1) -> -1")


def test_criterion_4_betti_chain():
    bound = 12
    assert poincare_uhat(TruncSeries.one(bound), QuotientDims(6, 3, 0)) == (
        TruncSeries.from_dict({0: 1, 2: 1, 4: 1}, bound)
    )
    strata = [
        StratumDatum(1, TruncSeries([1, 0, 1], bound)),
        StratumDatum(2, TruncSeries.one(bound)),
    ]
    unstable = morse_assemble(strata)
    assert unstable == TruncSeries.from_dict({2: 1, 4: 2}, bound)
    ambient = TruncSeries.from_dict({0: 1, 6: -1}, bound).geom_div(2)
    quotient = (ambient - unstable).geom_div(2)
    assert quotient == TruncSeries.from_dict({0: 1, 2: 1}, bound)
    report(4, "Betti chain 1+t^2+t^4, t^2+2t^4 and (1/(1-t^2))((1-t^6)/(1-t^2)-t^2-2t^4) = 1+t^2")


def test_criterion_5_n_points_family():
    for n in range(2, 7):
        bound = 8 * n
        uhat = poincare_uhat(TruncSeries.one(bound), QuotientDims(2 * n + 2, 3, 0))
        assert uhat == TruncSeries.from_dict({2 * i: 1 for i in range(2 * n - 1)}, bound)
        assert uhat.degree() == 4 * n - 4
        full = poincare_uhat(TruncSeries.one(bound), QuotientDims(2 * n + 2, 3, 1))
        assert full == TruncSeries.from_dict({2 * i: 1 for i in range(2 * n - 2)}, bound)
        assert full.degree() == 4 * n - 6
    report(5, "n-points family: 1+...+t^(4n-4) and 1+...+t^(4n-6) for n = 2..6")


def test_criterion_6_ring_vs_series():
    z0, z1 = z2()
    ring = GradedRingPresentation.polynomial_quotient(2, [z0 ** 3, z1 ** 3], 4)
    weyl = (((1, 0),), 2)
    group = GroupData(
        rank=2, positive_roots=[[1, -1]], weyl_generators=[(1, 0)], weyl_order=2
    )
    inv = invariant_basis(ring, weyl)
    assert [len(inv[d]) for d in range(5)] == [1, 1, 2, 1, 1]
    series = quotient_presentation_betti(ring, weyl, group)
    assert series == TruncSeries.from_dict({0: 1, 2: 1, 4: 1}, 8)
    report(6, "invariants mod ann(-(z1-z2)^2) give 1+t^2+t^4 with invariant dims 1,1,2,1,1")


def gr24_problem(eta):
    group = GroupData(
        rank=2, positive_roots=[[1, -1]], weyl_generators=[(1, 0)], weyl_order=2
    )
    origin = FixedPointComponent(
        "origin", [(LinearForm([1, 0]), 4), (LinearForm([0, 1]), 4)], is_min=True
    )
    return PairingProblem(
        group=group, fixed_points=[origin], class_eta=eta, cone=ConeChoice((1, 1))
    )


def test_criterion_7_cross_method_equality():
    z0, z1 = z2()
    suite = [
        (z0 + z1) ** 4,
        (z0 + z1) ** 2 * z0 * z1,
        (z0 * z1) ** 2,
        (z0 ** 2 + z0 * z1 + z1 ** 2) ** 2,
    ]
    group = gr24_problem(MultiPoly.one(2)).group
    e = euler_class_nonreductive(group)
    origin = gr24_problem(MultiPoly.one(2)).fixed_points[0]
    torus = torus_pairing_fn([origin])
    for eta in suite:
        problem = gr24_problem(eta)
        direct = integrate_reductive(problem)
        martin = integrate_abelianized(torus, eta, e, 2)
        merged = integrate_nonreductive(problem)
        assert direct == martin == merged
    report(7, "reductive, abelianised and graded-group evaluators agree on the Gr(2,4) suite")


def test_criterion_8_uhat_calibration():
    group = GroupData(rank=1, grading=(1,))
    comps = [
        FixedPointComponent("min", [(LinearForm([1]), 1)], lambda_weight=0, is_min=True),
        FixedPointComponent("max", [(LinearForm([-1]), 1)], lambda_weight=1),
    ]
    problem = PairingProblem(group=group, fixed_points=comps, class_eta=MultiPoly.one(1))
    assert integrate_uhat(problem) == 1
    report(8, "graded-extension pairing on the P^1 dataset returns 1")


def test_criterion_9_residue_property_suite():
    rng = random.Random(20260809)
    z0, z1 = z2()

    def random_integrand(off_wall=False):
        nden = rng.randint(2, 4)
        den = []
        for _ in range(nden):
            a = rng.choice([1, 2, 3]) if off_wall else rng.choice([0, 1, 2])
            b = rng.randint(-3, 3)
            if a == 0 and b == 0:
                b = 1
            den.append((LinearForm([a, b]), 1))
        deg = nden - 2
        terms = {(k, deg - k): Fraction(rng.randint(-6, 6)) for k in range(deg + 1)}
        num = MultiPoly(2, terms)
        if num.is_zero():
            num = MultiPoly(2, {(deg, 0): 1})
        return RationalFn(num, den)

    # linearity
    interesting = 0
    for _ in range(100):
        f, g = random_integrand(), random_integrand()
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        fv = jk_residue(ResidueProblem(integrand=f))
        gv = jk_residue(ResidueProblem(integrand=g))
        assert jk_residue(ResidueProblem(integrand=a * f + b * g)) == a * fv + b * gv
        interesting += fv != 0 or gv != 0
    assert interesting >= 30

    # derivative annihilation
    for _ in range(100):
        coeffs = {
            rng.randint(-5, 5): Fraction(rng.randint(-9, 9))
            for _ in range(rng.randint(1, 6))
        }
        deriv = laurent_derivative(coeffs)
        shift = max(0, -min(deriv, default=0))
        num = MultiPoly(1, {(e + shift,): c for e, c in deriv.items()})
        den = [(LinearForm([1]), shift)] if shift else []
        assert residue_at_infinity(RationalFn(num, den), 0).is_zero()

    # degree selection
    for _ in range(100):
        f = random_integrand()
        bad = f * MultiPoly(2, {(1, 0): 1, (0, 1): rng.randint(-3, 3)})
        assert jk_residue(ResidueProblem(integrand=bad)) == 0

    # basis covariance under the Gram normalisation, r = 2
    nonzero = 0
    for trial in range(100):
        if trial % 2 == 0:
            a = rng.randint(2, 4)
            u = rng.randint(0, 1) if a >= 3 else 0
            phi = (z0 * z1) ** u * (z0 + z1) ** (2 * a - 4 - 2 * u)
            f = RationalFn(
                phi * (z0 - z1) * (z1 - z0),
                [(LinearForm([1, 0]), a), (LinearForm([0, 1]), a)],
            )
            cone, base_basis = None, None
        else:
            f = random_integrand(off_wall=True)
            cone = ConeChoice((1, 0))
            base_basis = (LinearForm([1, 0]), LinearForm([0, 1]))
        base = jk_residue(ResidueProblem(integrand=f, cone=cone, basis=base_basis))
        m = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        sheared = (LinearForm([1, m]), LinearForm([0, 1]))
        moved = jk_residue(ResidueProblem(integrand=f, cone=cone, basis=sheared))
        assert moved == base
        nonzero += base != 0
    assert nonzero >= 20
    report(9, "linearity, derivative annihilation, degree selection, basis covariance (100 each)")


def test_criterion_10_moment_diagnostics():
    rng = np.random.default_rng(20260809)
    two_pi_i = 2j * np.pi
    # declared integer weights at diagonalised fixed points, 1e-10 relative
    for _ in range(20):
        n = int(rng.integers(2, 6))
        weights = rng.integers(-6, 7, n)
        j = int(rng.integers(0, n))
        x = np.zeros(n, dtype=complex)
        x[j] = 1.0
        sample = LinearActionSample(
            tuple(x), tuple(map(tuple, two_pi_i * np.diag(weights)))
        )
        if weights[j] == 0:
            continue
        assert fixed_point_weight_residual(sample, int(weights[j])) < 1e-10
    # finite-difference residual of the derivative identity, 20 random samples
    for _ in range(20):
        n = int(rng.integers(2, 6))
        diag = two_pi_i * np.diag(rng.integers(-4, 5, n))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        rho = q @ diag @ q.conj().T
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = x / np.linalg.norm(x)
        xi = rng.normal(size=n) + 1j * rng.normal(size=n)
        xi = xi - np.vdot(x, xi) * x
        residual = moment_derivative_check(
            LinearActionSample(tuple(x), tuple(map(tuple, rho))), tuple(xi), step=1e-5
        )
        assert residual < 1e-6
    report(10, "moment values match declared weights (1e-10); derivative residual < 1e-6 at step 1e-5")
