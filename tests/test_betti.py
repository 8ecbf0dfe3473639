import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrquot.betti import (
    QuotientDims,
    StratumDatum,
    check_perfect,
    morse_assemble,
    poincare_uhat,
    weighted_projective_poincare,
)
from nrquot.exactnum import TruncSeries

from oracles import betti_kernel, divide_by_one_plus_t, morse_sum, quotient_betti


def one(bound=12):
    return TruncSeries.one(bound)


def test_poincare_uhat_two_points_and_a_line():
    assert poincare_uhat(one(), QuotientDims(6, 3, 0)) == TruncSeries.from_dict(
        {0: 1, 2: 1, 4: 1}, 12
    )


def test_poincare_uhat_single_term():
    assert poincare_uhat(one(4), QuotientDims(1, 0, 0)) == TruncSeries.one(4)


def test_poincare_uhat_n_points_family():
    for n in range(2, 7):
        bound = 8 * n
        series = poincare_uhat(one(bound), QuotientDims(2 * n + 2, 3, 0))
        expected = TruncSeries.from_dict({2 * i: 1 for i in range(2 * n - 1)}, bound)
        assert series == expected
        assert series.degree() == 4 * n - 4


def test_poincare_uhat_requires_positive_codim():
    with pytest.raises(ValueError):
        poincare_uhat(one(4), QuotientDims(3, 2, 1))


def test_poincare_H_fibration_over_point():
    assert poincare_uhat(one(), QuotientDims(6, 3, 1)) == TruncSeries.from_dict(
        {0: 1, 2: 1}, 12
    )


def test_poincare_H_prefactor():
    p = TruncSeries([1, 0, 1], 8)
    assert poincare_uhat(p, QuotientDims(2, 1, 0)) == p


def test_poincare_H_n_points_family():
    for n in range(2, 7):
        bound = 8 * n
        series = poincare_uhat(one(bound), QuotientDims(2 * n + 2, 3, 1))
        expected = TruncSeries.from_dict({2 * i: 1 for i in range(2 * n - 2)}, bound)
        assert series == expected
        assert series.degree() == 4 * n - 6


def test_quotient_dims_validation():
    with pytest.raises(ValueError):
        QuotientDims(2, 2, 1)
    with pytest.raises(ValueError):
        QuotientDims(-1, 0, 0)


def test_morse_assemble_unstable_strata():
    strata = [
        StratumDatum(1, TruncSeries([1, 0, 1], 12)),
        StratumDatum(2, TruncSeries.one(12)),
    ]
    assert morse_assemble(strata) == TruncSeries.from_dict({2: 1, 4: 2}, 12)


def test_morse_assemble_single_open_stratum():
    s = TruncSeries([1, 0, 3, 0, 1], 6)
    assert morse_assemble([StratumDatum(0, s)]) == s


def test_morse_assemble_empty():
    assert morse_assemble([]).is_zero()


def test_check_perfect_equal_inputs():
    s = TruncSeries([1, 0, 2, 0, 1], 8)
    report = check_perfect(s, s)
    assert report and report.remainder.is_zero() and report.nonnegative


def test_check_perfect_constructed_defect():
    total = TruncSeries([1, 0, 1], 8)
    defect = TruncSeries.from_dict({3: 1, 4: 1}, 8)  # (1 + t) t^3
    report = check_perfect(total, total + defect)
    assert not report.perfect
    assert report.remainder == TruncSeries.from_dict({3: 1}, 7)
    assert report.nonnegative


def test_check_perfect_negative_remainder_reported():
    total = TruncSeries([1, 0, 1], 8)
    defect = TruncSeries.from_dict({3: -1, 4: -1}, 8)
    report = check_perfect(total, total + defect)
    assert not report.perfect and not report.nonnegative


def test_check_perfect_indivisible_input_raises():
    total = TruncSeries([0], 4)
    bad = TruncSeries.from_dict({4: 1}, 4)  # t^4 alone is not (1+t)-divisible
    with pytest.raises(ValueError):
        check_perfect(total, bad)


def test_weighted_projective_space():
    assert weighted_projective_poincare([2, 3, 3]) == TruncSeries([1, 0, 1, 0, 1], 4)
    assert weighted_projective_poincare([1]) == TruncSeries.one(0)
    assert weighted_projective_poincare([1, 1]) == TruncSeries([1, 0, 1], 2)
    with pytest.raises(ValueError):
        weighted_projective_poincare([])
    with pytest.raises(ValueError):
        weighted_projective_poincare([0, 1])


@pytest.mark.parametrize("bad", [1.5, True, "3", Fraction(1, 2)])
def test_weighted_projective_weights_must_be_integers(bad):
    # int() read 1.5, True and "3" as weights and called 1/2 not positive
    message = "weight must be an integer, got %r" % (bad,)
    with pytest.raises(TypeError, match=re.escape(message)):
        weighted_projective_poincare([bad, 2])
    with pytest.raises(ValueError, match="weights must be positive integers"):
        weighted_projective_poincare([2, -3])


@given(st.lists(st.integers(1, 5), min_size=1, max_size=8))
def test_uhat_series_equals_weighted_projective_series(weights):
    d = len(weights)
    lhs = poincare_uhat(one(2 * (d - 1) if d > 1 else 0), QuotientDims(d + 2, 1, 1))
    assert lhs == weighted_projective_poincare(weights)


def test_full_chain_of_the_borel_sl3_example():
    # ambient series (1 - t^6)/(1 - t^2), two unstable strata, residual circle
    bound = 12
    ambient = TruncSeries.from_dict({0: 1, 6: -1}, bound).geom_div(2)
    assert ambient == TruncSeries.from_dict({0: 1, 2: 1, 4: 1}, bound)
    unstable = morse_assemble(
        [
            StratumDatum(1, TruncSeries([1, 0, 1], bound)),
            StratumDatum(2, TruncSeries.one(bound)),
        ]
    )
    assert unstable == TruncSeries.from_dict({2: 1, 4: 2}, bound)
    quotient = (ambient - unstable).geom_div(2)
    assert quotient == TruncSeries.from_dict({0: 1, 2: 1}, bound)


@given(st.integers(1, 6), st.lists(st.integers(0, 4), min_size=9, max_size=9))
def test_all_outputs_nonnegative(d, coeffs):
    out = poincare_uhat(TruncSeries(coeffs, 8), QuotientDims(d + 3, 2, 1))
    assert all(c >= 0 for c in out.coeffs)


def test_negative_coefficients_are_a_hard_error():
    with pytest.raises(ValueError):
        poincare_uhat(TruncSeries([1, 0, -1], 8), QuotientDims(4, 1, 0))
    with pytest.raises(ValueError):
        morse_assemble([StratumDatum(0, TruncSeries([-1], 4))])


def nonnegative_series(top, bound):
    """Series with coefficients in 0..top, known up to t^bound."""
    coeffs = st.lists(st.integers(0, top), min_size=bound + 1, max_size=bound + 1)
    return coeffs.map(lambda c: TruncSeries(c, bound))


@settings(deadline=None)
@given(st.data())
def test_perfect_stratifications_random(data):
    bound = data.draw(st.integers(4, 10))
    strata = data.draw(st.lists(
        st.builds(StratumDatum, st.integers(0, bound // 2), nonnegative_series(3, bound)),
        min_size=1, max_size=4,
    ))
    total = morse_assemble(strata)
    report = check_perfect(total, morse_assemble(strata))
    assert report.perfect and report.nonnegative
    # perturb within the Morse inequality direction: add (1+t) R, R >= 0
    extra = data.draw(nonnegative_series(2, bound - 1))
    r = TruncSeries(extra.coeffs, bound)
    perturbed = morse_assemble(strata) + r + r.shift(1)
    report = check_perfect(total, perturbed)
    assert report.nonnegative
    assert report.perfect == extra.is_zero()


# -- the formulas against the convolution and carry-loop reference -----------


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def coefficients(bound):
    """Coefficient lists with negative entries, known up to t^bound."""
    return st.lists(st.integers(-3, 3), min_size=bound + 1, max_size=bound + 1)


BOUNDS = st.integers(0, 14)
# small codimensions reach every kernel length; huge ones only the bound
CODIMS = st.one_of(st.integers(1, 9), st.integers(1, 10 ** 11))


@settings(max_examples=300)
@given(st.data())
def test_poincare_uhat_matches_the_convolution_reference(data):
    coeffs = data.draw(BOUNDS.flatmap(coefficients))
    d = data.draw(CODIMS)
    dim_u, dim_zmin = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    dims = QuotientDims(d + dim_u + dim_zmin, dim_u, dim_zmin)
    got = outcome(lambda: list(poincare_uhat(TruncSeries(coeffs, len(coeffs) - 1), dims).coeffs))
    assert got == outcome(quotient_betti, coeffs, d)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=12), st.none() | BOUNDS)
def test_weighted_projective_matches_the_kernel_reference(weights, bound):
    series = weighted_projective_poincare(weights, bound)
    expected_bound = 2 * (len(weights) - 1) if bound is None else bound
    assert list(series.coeffs) == betti_kernel(len(weights), expected_bound)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 8) | st.integers(0, 10 ** 11),
                          BOUNDS.flatmap(coefficients)), max_size=4))
def test_morse_assemble_matches_the_convolution_reference(strata):
    data = [StratumDatum(codim, TruncSeries(c, len(c) - 1)) for codim, c in strata]
    got = outcome(lambda: list(morse_assemble(data).coeffs))
    assert got == outcome(morse_sum, strata)


@settings(max_examples=300)
@given(st.data())
def test_check_perfect_matches_the_carry_loop_reference(data):
    bound = data.draw(BOUNDS)
    total = data.draw(coefficients(bound))
    # total + (1 + t) R, plus noise that need not be divisible by 1 + t, so
    # that both reports and errors are compared
    r = data.draw(coefficients(bound - 1)) + [0] if bound else [0]
    noise = data.draw(st.just([0] * (bound + 1)) | coefficients(bound))
    strata_sum = [t + x + (r[e - 1] if e else 0) + n
                  for e, (t, x, n) in enumerate(zip(total, r, noise))]
    longer = bound + data.draw(st.integers(0, 3))  # the sum may be known further

    def report():
        rep = check_perfect(TruncSeries(total, bound), TruncSeries(strata_sum, longer))
        return rep.perfect, list(rep.remainder.coeffs), rep.nonnegative

    def reference():
        quotient = divide_by_one_plus_t(total, strata_sum)
        return not any(quotient), quotient, all(c >= 0 for c in quotient)

    assert outcome(report) == outcome(reference)
