"""Catalog of benchmark integrals with known values or reference routes.

Each entry is one record holding all that any route needs: f, g and the
kernel as expression strings over the variable x plus named parameters,
the domain, the closed form where one is known (I1, I2, I4, I7), and the
reference route's direct integrand where it is not f*kernel(g) (I21).
Adding an integral or a closed form means adding one record.  The catalog
is what the CLI exposes through ``--paper-integral``.

Semi-infinite or endpoint-singular members are restated in a form the
finite-interval machinery can handle; each such restatement comes with an
explicit truncation rule (a domain that depends on lambda) whose tail
bound is far below the accuracy targets:

* I2 = int_0^inf exp(i*lam*x^2)/sqrt(x) dx.  The substitution x = u^2
  turns it into 2 * int_0^inf exp(i*lam*u^4) du, which removes the
  endpoint singularity.  Truncating at U leaves a tail bounded by
  2*max|f|/min g' = 1/(lam*U^3)  (van der Corput, g' = 4*lam*u^3 monotone),
  i.e. 1/(lam*R^(3/2)) in terms of the original variable R = U^2; the
  catalog picks U = (1e13/lam)^(1/3) so the tail is below 1e-13.
* I3 = int_0^1 exp(i*lam/sqrt(x))/x dx.  The substitution u = 1/sqrt(x)
  gives 2 * int_1^inf exp(i*lam*u)/u du (whose value is the incomplete
  gamma form this catalog does not evaluate).  Integration by parts bounds
  the tail beyond U by 4/(lam*U); the catalog picks U = 4e13/lam.

I21 is the azimuthal Fourier component of the 3-D Helmholtz kernel,
(1/(4*pi^2)) * int_{-pi}^{pi} exp(-i*kappa*sqrt(1-alpha*cos(x)))
* cos(m*x)/sqrt(1-alpha*cos(x)) dx.  The cos(m*x) factor is folded into
the phase by the product-to-sum identity, which yields two exp-kernel
integrals with phases +-m*x - kappa*sqrt(1-alpha*cos(x)), averaged; the
1/(4*pi^2) normalization is applied here, not in the core.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erf

from . import expr as exprmod
from .adaptive import AdaptiveConfig, QuadResult, adaptive_integrate
from .levin import Integrand
from .oracle import adaptive_gauss

# Gamma(5/4), pinned from an independent high-precision evaluation
# (0.9064024770554770515929...); it equals Gamma(1/4)/4, which the test
# suite uses as a cross-check.
GAMMA_5_4 = 0.90640247705547705


@dataclass(frozen=True)
class NamedIntegral:
    """One catalog entry.

    ``domain`` is the fixed (a, b) pair, or a function of lambda > 0 where
    the truncation point depends on it.  ``phases`` lists the g
    expressions of the exp-kernel components the integral splits into;
    all but I21 have exactly one.  ``closed_form`` maps lambda to the
    value, or is None.  ``product`` maps the bound parameters to the
    reference route's direct integrand; None means f*kernel(g).
    """

    id: str
    f_expr: str
    kernel: str
    params: tuple
    phases: tuple
    domain: tuple | Callable[[float], tuple]
    weight: float = 1.0
    closed_form: Callable[[float], complex] | None = None
    product: Callable[[dict], Callable] | None = None

    @property
    def g_expr(self) -> str:
        return self.phases[0]


def _helmholtz_mode(bound: dict):
    """The modal Helmholtz component with cos(m*x) kept as a factor."""
    m = bound["m"]
    kappa = bound["kappa"]
    alpha = bound["alpha"]
    scale = 1.0 / (4.0 * math.pi ** 2)

    def fn(x):
        root = np.sqrt(1.0 - alpha * np.cos(x))
        return scale * np.cos(m * x) * np.exp(-1j * kappa * root) / root

    return fn


CATALOG = {
    "I1": NamedIntegral(
        id="I1", f_expr="1/(1+x^2)", kernel="cos", params=("lambda",),
        phases=("lambda*atan(x)",), domain=(-1.0, 1.0),
        closed_form=lambda lam: complex(2.0 / lam * math.sin(math.pi / 4.0 * lam))),
    "I2": NamedIntegral(
        id="I2", f_expr="2", kernel="exp", params=("lambda",),
        phases=("lambda*x^4",),
        domain=lambda lam: (0.0, (1e13 / lam) ** (1.0 / 3.0)),
        closed_form=lambda lam: np.exp(1j * math.pi / 8.0) * 2.0 * GAMMA_5_4 / lam ** 0.25),
    "I3": NamedIntegral(
        id="I3", f_expr="2/x", kernel="exp", params=("lambda",),
        phases=("lambda*x",), domain=lambda lam: (1.0, 4e13 / lam)),
    # The upper endpoint phase of the I4 closed form is written exactly as
    # the integrand evaluates it (lambda * exp(10)) so argument rounding
    # cancels in comparisons.
    "I4": NamedIntegral(
        id="I4", f_expr="exp(x)", kernel="exp", params=("lambda",),
        phases=("lambda*exp(x)",), domain=(0.0, 10.0),
        closed_form=lambda lam: (1j / lam) * (np.exp(1j * lam)
                                              - np.exp(1j * (lam * np.exp(10.0))))),
    "I5": NamedIntegral(
        id="I5", f_expr="exp(-x)*x", kernel="exp", params=("lambda",),
        phases=("lambda*x^2",), domain=(0.0, 1.0)),
    "I6": NamedIntegral(
        id="I6", f_expr="1+x^2", kernel="exp", params=("lambda",),
        phases=("lambda*x^2",), domain=(-1.0, 1.0)),
    # Fresnel integral: int_{-4}^{4} exp(i*lam*x^2) dx
    # = sqrt(pi/lam) * e^{i*pi/4} * erf(4*sqrt(lam) * e^{-i*pi/4}).
    "I7": NamedIntegral(
        id="I7", f_expr="1", kernel="exp", params=("lambda",),
        phases=("lambda*x^2",), domain=(-4.0, 4.0),
        closed_form=lambda lam: (math.sqrt(math.pi / lam) * np.exp(1j * math.pi / 4.0)
                                 * erf(4.0 * math.sqrt(lam) * np.exp(-1j * math.pi / 4.0)))),
    "I8": NamedIntegral(
        id="I8", f_expr="1/(0.01+x^4)", kernel="exp", params=("lambda",),
        phases=("lambda*x^4",), domain=(-1.0, 1.0)),
    "I9": NamedIntegral(
        id="I9", f_expr="cos(x)/(1+x^2)", kernel="exp", params=("lambda", "m"),
        phases=("lambda*x^m",), domain=(-1.0, 1.0)),
    "I21": NamedIntegral(
        id="I21", f_expr="1/sqrt(1-alpha*cos(x))", kernel="exp",
        params=("kappa", "m", "alpha"),
        phases=("m*x - kappa*sqrt(1-alpha*cos(x))",
                "-m*x - kappa*sqrt(1-alpha*cos(x))"),
        domain=(-math.pi, math.pi),
        weight=1.0 / (8.0 * math.pi ** 2),
        product=_helmholtz_mode),
    "I22": NamedIntegral(
        id="I22", f_expr="1/(1+x^2)", kernel="exp", params=("lambda", "m"),
        phases=("lambda*cos(pi/2*m*x)^2",), domain=(-1.0, 1.0)),
}

_KERNELS = {"exp": lambda g: np.exp(1j * g), "cos": np.cos, "sin": np.sin}


def _entry(id: str, params: dict) -> NamedIntegral:
    """The record of ``id``, once its parameter names and values are checked."""
    entry = CATALOG.get(id)
    if entry is None:
        raise KeyError(f"unknown integral id {id!r}; known: {sorted(CATALOG)}")
    for name, value in params.items():
        if name not in entry.params:
            raise ValueError(f"{id} has no parameter {name!r}; "
                             f"it takes {', '.join(entry.params)}")
        if not math.isfinite(value):
            raise ValueError(f"{id} needs a finite {name}, got {value}")
    missing = [p for p in entry.params if p not in params]
    if missing:
        raise ValueError(f"{id} needs parameter(s) {missing}")
    return entry


def _lambda(entry: NamedIntegral, params: dict) -> float:
    lam = float(params["lambda"])  # the truncations and closed forms need lambda > 0
    if lam <= 0:
        raise ValueError(f"{entry.id} needs lambda > 0")
    if lam < sys.float_info.min:  # the closed forms overflow at a subnormal lambda
        raise ValueError(f"{entry.id} needs lambda >= {sys.float_info.min!r} "
                         f"(the smallest normal float), got {lam!r}")
    return lam


def _domain(entry: NamedIntegral, params: dict) -> tuple:
    if isinstance(entry.domain, tuple):
        return entry.domain
    return entry.domain(_lambda(entry, params))


def closed_form_value(id: str, params: dict) -> complex:
    """Target value from the entry's closed form (ValueError if it has none)."""
    entry = _entry(id, params)
    if entry.closed_form is None:
        raise ValueError(f"no closed form available for {id}")
    return entry.closed_form(_lambda(entry, params))


def integrand_for(id: str, params: dict):
    """Weighted exp/cos/sin-kernel components of a catalog integral.

    Returns ``(components, (a, b))`` where components is a list of
    ``(weight, Integrand)`` pairs whose weighted integrals sum to the
    catalog value: one per phase of the entry, each with its weight.
    """
    entry = _entry(id, params)
    bound = {p: float(params[p]) for p in entry.params}
    f_fn = exprmod.compile_fn(entry.f_expr, bound)
    components = [
        (entry.weight, Integrand(f=f_fn, g=exprmod.compile_fn(g, bound),
                                 kernel=entry.kernel))
        for g in entry.phases
    ]
    return components, _domain(entry, params)


def evaluate_levin(id: str, params: dict,
                   config: AdaptiveConfig | None = None) -> QuadResult:
    """Evaluate a catalog integral with the adaptive collocation method."""
    components, (a, b) = integrand_for(id, params)
    total = 0.0 + 0.0j
    intervals = 0
    fevals = 0
    status = "converged"
    for weight, integrand in components:
        res = adaptive_integrate(integrand, a, b, config)
        total += weight * res.value
        intervals += res.intervals_used
        fevals += res.fevals
        if res.status != "converged":
            status = res.status
    return QuadResult(value=total, intervals_used=intervals, fevals=fevals,
                      status=status)


def oracle_integrand(id: str, params: dict):
    """Direct (kernel applied) complex integrand for the reference integrator.

    Deliberately built from the *original* product form, not the phase
    split, so the reference route shares as little as possible with the
    collocation route.
    """
    entry = _entry(id, params)
    bound = {p: float(params[p]) for p in entry.params}
    if entry.product is not None:
        return entry.product(bound), _domain(entry, params)
    f_fn = exprmod.compile_fn(entry.f_expr, bound)
    g_fn = exprmod.compile_fn(entry.g_expr, bound)
    kernel = _KERNELS[entry.kernel]

    def fn(x):
        return f_fn(x) * kernel(g_fn(x))

    return fn, _domain(entry, params)


def evaluate_oracle(id: str, params: dict, tol: float = 1e-15) -> QuadResult:
    """Evaluate a catalog integral with adaptive Gauss-Legendre quadrature."""
    fn, (a, b) = oracle_integrand(id, params)
    return adaptive_gauss(fn, a, b, tol=tol)
