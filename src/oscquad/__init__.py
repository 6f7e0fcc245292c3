"""Adaptive evaluation of highly oscillatory integrals.

Evaluates integrals of the form ``int_a^b f(x) * exp(i g(x)) dx`` (and the
cos/sin kernel variants) by Chebyshev spectral collocation of the
antiderivative ODE on adaptively bisected panels, with truncated-SVD or
rank-revealing-QR solves that remain accurate at arbitrarily low
frequency and across stationary points of the phase.
"""

from .adaptive import AdaptiveConfig, QuadResult, adaptive_integrate
from .chebyshev import ChebGrid, cheb_coeffs, cheb_nodes, diff_matrix, grid
from .levin import Integrand, LevinLocalResult, PanelError, levin_panel
from .linalg import SvdFactors, qr_apply, qr_factor, svd, tsvd_apply
from .oracle import GaussRule, adaptive_gauss, gauss_rule
from .reference import CATALOG, closed_form_value, evaluate_levin, evaluate_oracle, integrand_for

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "QuadResult",
    "adaptive_integrate",
    "ChebGrid",
    "cheb_coeffs",
    "cheb_nodes",
    "diff_matrix",
    "grid",
    "Integrand",
    "LevinLocalResult",
    "PanelError",
    "levin_panel",
    "SvdFactors",
    "qr_apply",
    "qr_factor",
    "svd",
    "tsvd_apply",
    "GaussRule",
    "adaptive_gauss",
    "gauss_rule",
    "CATALOG",
    "closed_form_value",
    "evaluate_levin",
    "evaluate_oracle",
    "integrand_for",
    "__version__",
]
