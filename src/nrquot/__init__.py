"""Exact intersection pairings, Poincare series and cohomology Betti data for
GIT quotients of projective varieties, computed from torus fixed-point and
weight data by iterated residues.

The package covers quotients by reductive groups, by graded unipotent
extensions U x| C*, and by groups H = U x| R whose unipotent radical is
internally graded by a central circle of the Levi.  Everything symbolic is
exact rational arithmetic; the only floating point lives in the moment-map
diagnostics module.
"""

from .exactnum import TruncSeries
from .polyring import LinearForm, MultiPoly, RationalFn, weyl_act, weyl_element
from .groupdata import (
    ConeChoice,
    GroupData,
    InvalidConeError,
    WeylInvarianceError,
    check_grading,
    check_well_adapted,
    euler_class_nonreductive,
    lambda_projection,
)
from .residue import ResidueProblem, jk_residue, residue_at_infinity
from .localize import (
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
from .betti import (
    QuotientDims,
    StratumDatum,
    check_perfect,
    morse_assemble,
    poincare_uhat,
    weighted_projective_poincare,
)
from .cohring import (
    GradedRingPresentation,
    annihilator_dims,
    graded_dims,
    invariant_basis,
    quotient_presentation_betti,
)
from .momentdiag import (
    LinearActionSample,
    fixed_point_weight_residual,
    moment_derivative_check,
    moment_value,
)

__version__ = "0.1.0"
