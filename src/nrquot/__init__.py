"""Exact intersection pairings, Poincare series and cohomology Betti data for
GIT quotients of projective varieties, computed from torus fixed-point and
weight data by iterated residues.

The package covers quotients by reductive groups, by graded unipotent
extensions U x| C*, and by groups H = U x| R whose unipotent radical is
internally graded by a central circle of the Levi.  Everything symbolic is
exact rational arithmetic; the only floating point lives in the moment-map
diagnostics module.

``import nrquot`` loads no submodule: each public name is imported from its
submodule on first access, so a run compiles only the modules it uses.
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "exactnum": ("TruncSeries",),
        "polyring": ("LinearForm", "MultiPoly", "RationalFn", "weyl_act", "weyl_element"),
        "groupdata": ("ConeChoice", "GroupData", "InvalidConeError", "WeylInvarianceError",
                      "check_grading", "check_well_adapted", "euler_class_nonreductive"),
        "residue": ("ResidueProblem", "jk_residue", "residue_at_infinity"),
        "localize": ("FixedPointComponent", "PairingProblem", "flag_pairing",
                     "grassmannian_pairing", "integrate_abelianized", "integrate_nonreductive",
                     "integrate_reductive", "integrate_uhat", "torus_pairing_fn"),
        "betti": ("QuotientDims", "StratumDatum", "check_perfect", "morse_assemble",
                  "poincare_uhat", "weighted_projective_poincare"),
        "cohring": ("GradedRingPresentation", "annihilator_dims", "graded_dims",
                    "invariant_basis", "quotient_presentation_betti"),
        "momentdiag": ("LinearActionSample", "fixed_point_weight_residual",
                       "moment_derivative_check", "moment_value"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    # Looked up on every access, never stored here: a caller that rebinds a
    # submodule's function (a tracer, a test double) is seen by the next access.
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
