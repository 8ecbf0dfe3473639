"""Floating-point moment-map diagnostics for linear actions on projective space.

This is the one module allowed to touch floats.  Its outputs are advisory:
they sanity-check the weight data a user feeds the exact pipeline (does the
declared circle weight at a fixed point match the numerically evaluated
moment value? does the analytic derivative formula agree with a finite
difference?), and they never flow back into a symbolic computation.
"""

import math

from .exactnum import _ReadOnly

__all__ = [
    "LinearActionSample",
    "moment_value",
    "moment_derivative_check",
    "fixed_point_weight_residual",
]

TWO_PI_I = 2j * math.pi


class LinearActionSample(_ReadOnly):
    """A point on projective space, an infinitesimal action, a character shift.

    ``point`` is a nonzero lift in C^{n+1}, ``lie_element`` the matrix of the
    infinitesimal action on C^{n+1}, both as tuples of ``complex``; ``shift``
    is the rational character twist added to the evaluated moment component.
    """

    def __init__(self, point, lie_element, shift=0.0):
        point = tuple(map(complex, point))
        lie_element = tuple(tuple(map(complex, row)) for row in lie_element)
        if not any(point):
            raise ValueError("point must be a nonzero vector")
        if len(lie_element) != len(point) or any(len(row) != len(point) for row in lie_element):
            raise ValueError("matrix shape does not match the point")
        vars(self).update(point=point, lie_element=lie_element, shift=shift)


def _vdot(u, v):
    """The conjugate-linear dot product ``conj(u)^T v``."""
    return sum(a.conjugate() * b for a, b in zip(u, v))


def _apply(rho, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rho)


def _norm(v):
    return math.hypot(*(part for z in v for part in (z.real, z.imag)))


def _raw_moment(x, rho):
    return _vdot(x, _apply(rho, x)) / (TWO_PI_I * _vdot(x, x).real)


def moment_value(sample):
    """Evaluate the moment pairing at the sample point, plus the shift.

    For ``rho = 2 pi i diag(w_0..w_n)`` and ``point = e_j`` this returns
    ``w_j + shift``; the value is invariant under rescaling the lift.
    """
    return complex(_raw_moment(sample.point, sample.lie_element) + sample.shift)


def moment_derivative_check(sample, tangent, step=1e-5):
    """Residual between the analytic derivative and a central difference.

    ``tangent`` must be orthogonal to the point (sphere tangency).  The
    sample point is normalised to the unit sphere and moved along the great
    circle generated by the tangent; the derivative of the moment value along
    that curve, times 2 pi i, is compared against the bilinear expression
    ``conj(x)^T rho tangent + conj(tangent)^T rho x``.  Returns the absolute
    residual, which scales quadratically in the step.
    """
    x, rho, xi = sample.point, sample.lie_element, tuple(map(complex, tangent))
    if len(xi) != len(x):
        raise ValueError("tangent shape does not match the point")
    norm, speed = _norm(x), _norm(xi)
    x = tuple(z / norm for z in x)
    if not any(xi):
        return 0.0
    if abs(_vdot(x, xi)) > 1e-9 * speed:
        raise ValueError("tangent is not orthogonal to the point")
    direction = tuple(z / speed for z in xi)

    def curve(s):
        c, t = math.cos(speed * s), math.sin(speed * s)
        return tuple(c * a + t * b for a, b in zip(x, direction))

    plus = _raw_moment(curve(step), rho)
    minus = _raw_moment(curve(-step), rho)
    numeric = TWO_PI_I * (plus - minus) / (2 * step)
    analytic = _vdot(x, _apply(rho, xi)) + _vdot(xi, _apply(rho, x))
    return abs(numeric - analytic)


def fixed_point_weight_residual(sample, declared_weight):
    """Relative gap between the numeric moment value and a declared weight.

    Use at a diagonalised fixed point: the circle weight read off the
    diagonal action should reproduce the moment value there, and it must
    agree with the weight recorded in the exact fixed-point data.
    """
    value = moment_value(sample)
    declared = complex(declared_weight)
    scale = max(abs(declared), 1.0)
    return abs(value - declared) / scale
