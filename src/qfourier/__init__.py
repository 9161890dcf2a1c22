"""qfourier: complex q-deformed Fourier transforms.

Quadrature evaluation of the deformed transform on and off the real axis,
the closed-form catalog it is checked against (including the power-law
collision family), contour functionals for the delta identification, and
the q->1 inversion pipeline.
"""

from .closedform import (RegimeTag, constant_qft_delta_weight, heaviside_qft,
                         hilhorst_lambda, hilhorst_qft, powerlaw_qft_boundary,
                         powerlaw_qft_closed, regime_of)
from .errors import (AliasingError, BoundaryRegimeError, ConvergenceError,
                     CutAmbiguityError, InversionDomainError,
                     LimitFailureError, MembershipError, NonFiniteError,
                     PoleError, TruncationError)
from .inversion import (EpsilonSchedule, InversionResult, inverse_ft,
                        q1_slice, roundtrip)
from .qcore import (CutoffReal, QParam, as_qparam, q_exp, q_exp_complex,
                    ultra_kernel)
from .special import (CutSide, Hyp2F1Params, gamma_ratio_collapse, hyp2f1,
                      log_gamma)
from .transform import (Constant, FunctionSpec, Gaussian, HalfPlanePoint,
                        Heaviside, MembershipReport, PlaneTag, PowerLaw,
                        QGaussian, QuadratureConfig, Sampled,
                        TransformSurface, membership_check, qft_complex,
                        qft_real_line, qft_surface)
from .ultra import (AnalyticRep, ContourResult, ContourSpec, contour_apply,
                    contour_apply_detailed, dirac_rep,
                    pseudo_poly_invariance_check)
from .verify import SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "AnalyticRep",
    "BoundaryRegimeError",
    "Constant",
    "ContourResult",
    "ContourSpec",
    "ConvergenceError",
    "CutAmbiguityError",
    "CutSide",
    "CutoffReal",
    "EpsilonSchedule",
    "FunctionSpec",
    "Gaussian",
    "HalfPlanePoint",
    "Heaviside",
    "Hyp2F1Params",
    "InversionDomainError",
    "InversionResult",
    "LimitFailureError",
    "MembershipError",
    "NonFiniteError",
    "MembershipReport",
    "PlaneTag",
    "PoleError",
    "PowerLaw",
    "QGaussian",
    "QParam",
    "QuadratureConfig",
    "RegimeTag",
    "SUITE_NAMES",
    "Sampled",
    "TransformSurface",
    "TruncationError",
    "as_qparam",
    "constant_qft_delta_weight",
    "contour_apply",
    "contour_apply_detailed",
    "dirac_rep",
    "gamma_ratio_collapse",
    "heaviside_qft",
    "hilhorst_lambda",
    "hilhorst_qft",
    "hyp2f1",
    "inverse_ft",
    "log_gamma",
    "membership_check",
    "pseudo_poly_invariance_check",
    "powerlaw_qft_boundary",
    "powerlaw_qft_closed",
    "q1_slice",
    "q_exp",
    "q_exp_complex",
    "qft_complex",
    "qft_real_line",
    "qft_surface",
    "regime_of",
    "roundtrip",
    "run_suite",
    "ultra_kernel",
    "__version__",
]
