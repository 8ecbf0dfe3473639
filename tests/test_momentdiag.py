import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrquot.localize import FixedPointComponent
from nrquot.momentdiag import (
    LinearActionSample,
    fixed_point_weight_residual,
    moment_derivative_check,
    moment_value,
)
from nrquot.polyring import LinearForm

TWO_PI_I = 2j * np.pi


def diag_sample(weights, j, shift=0.0):
    n = len(weights)
    x = [0.0] * n
    x[j] = 1.0
    rho = tuple(map(tuple, TWO_PI_I * np.diag(weights)))
    return LinearActionSample(tuple(x), rho, shift)


def random_unitary_action(rng, n):
    diag = TWO_PI_I * np.diag(rng.integers(-4, 5, n))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _ = np.linalg.qr(m)
    return u @ diag @ u.conj().T


def random_tangent_pair(rng, n):
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = x / np.linalg.norm(x)
    xi = rng.normal(size=n) + 1j * rng.normal(size=n)
    xi = xi - np.vdot(x, xi) * x
    return x, xi


def test_zero_action_gives_zero():
    s = LinearActionSample((1.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
    assert moment_value(s) == 0


def test_diagonal_weights_at_basis_vectors():
    weights = [3, 1, -1, -3]
    for j, w in enumerate(weights):
        value = moment_value(diag_sample(weights, j))
        assert abs(value - w) < 1e-12


def test_shift_is_added():
    value = moment_value(diag_sample([2, 0], 0, shift=-0.25))
    assert abs(value - 1.75) < 1e-12


def test_scale_invariance_of_the_lift():
    rng = np.random.default_rng(3)
    rho = tuple(map(tuple, random_unitary_action(rng, 4)))
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    base = moment_value(LinearActionSample(tuple(x), rho))
    for c in (2.0, -0.5, 1j, 0.3 - 0.7j):
        scaled = moment_value(LinearActionSample(tuple(c * x), rho))
        assert abs(scaled - base) < 1e-10


def test_zero_point_rejected():
    with pytest.raises(ValueError):
        moment_value(LinearActionSample((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0))))


def test_derivative_residual_diagonal():
    rng = np.random.default_rng(11)
    rho = tuple(map(tuple, TWO_PI_I * np.diag([4, 1, -2])))
    for j in range(3):
        x = np.zeros(3, dtype=complex)
        x[j] = 1.0
        xi = rng.normal(size=3) + 1j * rng.normal(size=3)
        xi = xi - np.vdot(x, xi) * x
        residual = moment_derivative_check(
            LinearActionSample(tuple(x), rho), tuple(xi), step=1e-5
        )
        assert residual < 1e-8


def test_derivative_residual_random_unitary_20_samples():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        rho = tuple(map(tuple, random_unitary_action(rng, n)))
        x, xi = random_tangent_pair(rng, n)
        residual = moment_derivative_check(
            LinearActionSample(tuple(x), rho), tuple(xi), step=1e-5
        )
        assert residual < 1e-6


def test_zero_tangent_gives_zero_residual():
    s = diag_sample([1, 2], 0)
    assert moment_derivative_check(s, (0.0, 0.0)) == 0.0


def test_non_tangent_input_rejected():
    s = diag_sample([1, 2], 0)
    with pytest.raises(ValueError):
        moment_derivative_check(s, (1.0, 0.0))


def test_residual_scales_quadratically_over_a_decade():
    rng = np.random.default_rng(13)
    rho = tuple(map(tuple, random_unitary_action(rng, 5)))
    x, xi = random_tangent_pair(rng, 5)
    s = LinearActionSample(tuple(x), rho)
    r_coarse = moment_derivative_check(s, tuple(xi), step=1e-2)
    r_fine = moment_derivative_check(s, tuple(xi), step=1e-3)
    assert r_fine > 0
    ratio = r_coarse / r_fine
    assert 30 < ratio < 300


def test_fixed_point_weight_matches_localization_data():
    # the exact pipeline records the circle weight of a minimal fixed point;
    # the numeric moment value at the diagonalised fixed point must agree
    weights = [3, 1, -1, -3]
    component = FixedPointComponent(
        "w=-3",
        [(LinearForm([6]), 1), (LinearForm([4]), 1), (LinearForm([2]), 1)],
        lambda_weight=-3,
        is_min=True,
    )
    sample = diag_sample(weights, 3)
    residual = fixed_point_weight_residual(sample, component.lambda_weight)
    assert residual < 1e-10


# The moment formulas in numpy, kept as the reference for the plain complex
# arithmetic of the module.
def reference_moment(x, rho):
    return (x.conj() @ rho @ x) / (TWO_PI_I * float(np.vdot(x, x).real))


def reference_derivative_residual(x, rho, xi, step):
    x = x / np.linalg.norm(x)
    speed = np.linalg.norm(xi)
    direction = xi / speed

    def curve(s):
        return np.cos(speed * s) * x + np.sin(speed * s) * direction

    plus = reference_moment(curve(step), rho)
    minus = reference_moment(curve(-step), rho)
    numeric = TWO_PI_I * (plus - minus) / (2 * step)
    analytic = x.conj() @ rho @ xi + xi.conj() @ rho @ x
    return float(abs(numeric - analytic))


@settings(deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
def test_plain_arithmetic_matches_the_numpy_reference(n, seed):
    rng = np.random.default_rng(seed)
    rho = random_unitary_action(rng, n)
    x, xi = random_tangent_pair(rng, n)
    lift = x * (rng.normal() + 1j * rng.normal())  # any nonzero multiple
    shift = rng.normal()
    sample = LinearActionSample(tuple(lift), tuple(map(tuple, rho)), shift)
    expected = complex(reference_moment(lift, rho) + shift)
    # relative to the size of the value, or to 1 near a zero of the moment map
    assert abs(moment_value(sample) - expected) <= 1e-12 * max(abs(expected), 1.0)
    for step in (1e-2, 1e-3, 1e-5):
        residual = moment_derivative_check(sample, tuple(xi), step=step)
        assert abs(residual - reference_derivative_residual(lift, rho, xi, step)) < 1e-8
