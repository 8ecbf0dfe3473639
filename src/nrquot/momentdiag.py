"""Floating-point moment-map diagnostics for linear actions on projective space.

This is the one module allowed to touch floats.  Its outputs are advisory:
they sanity-check the weight data a user feeds the exact pipeline (does the
declared circle weight at a fixed point match the numerically evaluated
moment value? does the analytic derivative formula agree with a finite
difference?), and they never flow back into a symbolic computation.

numpy is imported inside the functions that do float work, not at module
level, so importing ``nrquot`` and running the exact pipeline never loads
it; only a diagnostic call does.
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

    ``point`` is a nonzero lift in C^{n+1}; ``lie_element`` is the matrix of
    the infinitesimal action on C^{n+1}; ``shift`` is the rational character
    twist added to the evaluated moment component.
    """

    def __init__(self, point, lie_element, shift=0.0):
        vars(self).update(point=point, lie_element=lie_element, shift=shift)

    def arrays(self):
        import numpy as np

        x = np.asarray(self.point, dtype=complex)
        rho = np.asarray(self.lie_element, dtype=complex)
        if x.ndim != 1 or not x.any():
            raise ValueError("point must be a nonzero vector")
        if rho.shape != (x.size, x.size):
            raise ValueError("matrix shape does not match the point")
        return x, rho


def _raw_moment(x, rho):
    import numpy as np

    return (x.conj() @ rho @ x) / (TWO_PI_I * float(np.vdot(x, x).real))


def moment_value(sample):
    """Evaluate the moment pairing at the sample point, plus the shift.

    For ``rho = 2 pi i diag(w_0..w_n)`` and ``point = e_j`` this returns
    ``w_j + shift``; the value is invariant under rescaling the lift.
    """
    x, rho = sample.arrays()
    return complex(_raw_moment(x, rho) + sample.shift)


def moment_derivative_check(sample, tangent, step=1e-5):
    """Residual between the analytic derivative and a central difference.

    ``tangent`` must be orthogonal to the point (sphere tangency).  The
    sample point is normalised to the unit sphere and moved along the great
    circle generated by the tangent; the derivative of the moment value along
    that curve, times 2 pi i, is compared against the bilinear expression
    ``conj(x)^T rho tangent + conj(tangent)^T rho x``.  Returns the absolute
    residual, which scales quadratically in the step.
    """
    import numpy as np

    x, rho = sample.arrays()
    xi = np.asarray(tangent, dtype=complex)
    if xi.shape != x.shape:
        raise ValueError("tangent shape does not match the point")
    x = x / np.linalg.norm(x)
    if not xi.any():
        return 0.0
    if abs(np.vdot(x, xi)) > 1e-9 * np.linalg.norm(xi):
        raise ValueError("tangent is not orthogonal to the point")
    speed = np.linalg.norm(xi)
    direction = xi / speed

    def curve(s):
        return np.cos(speed * s) * x + np.sin(speed * s) * direction

    plus = _raw_moment(curve(step), rho)
    minus = _raw_moment(curve(-step), rho)
    numeric = TWO_PI_I * (plus - minus) / (2 * step)
    analytic = x.conj() @ rho @ xi + xi.conj() @ rho @ x
    return float(abs(numeric - analytic))


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
