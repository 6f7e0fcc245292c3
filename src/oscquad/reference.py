"""Catalog of benchmark integrals with known values or reference routes.

Each entry is one record holding all that any route needs: f, g and the
kernel as expression strings over the variable x plus named parameters,
the domain, the closed form where one is known (I1-I7), and the reference
route's direct integrand where it is not f*kernel(g) (I21).
Adding an integral or a closed form means adding one record.  The catalog
is what the CLI exposes through ``--paper-integral``.

Endpoint-singular members are restated by a substitution that removes the
singularity.  The two semi-infinite ones keep b = inf, which
``adaptive_integrate`` closes with a Levin tail; they need lambda > 0, as
their closed forms do:

* I2 = int_0^inf exp(i*lam*x^2)/sqrt(x) dx.  The substitution x = u^2
  turns it into 2 * int_0^inf exp(i*lam*u^4) du.
* I3 = int_0^1 exp(i*lam/sqrt(x))/x dx.  The substitution u = 1/sqrt(x)
  gives 2 * int_1^inf exp(i*lam*u)/u du = 2*E1(-i*lam).

I21 is the azimuthal Fourier component of the 3-D Helmholtz kernel,
(1/(4*pi^2)) * int_{-pi}^{pi} exp(-i*kappa*sqrt(1-alpha*cos(x)))
* cos(m*x)/sqrt(1-alpha*cos(x)) dx.  The cos(m*x) factor is folded into
the phase by the product-to-sum identity, which yields two exp-kernel
integrals with phases +-m*x - kappa*sqrt(1-alpha*cos(x)), averaged; the
1/(4*pi^2) normalization is applied here, not in the core.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import exp1, wofz

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

    ``domain`` is the (a, b) pair; b = inf takes lambda > 0.  ``phases``
    lists the g expressions of the exp-kernel components the integral
    splits into; all but I21 have exactly one.  ``closed_form`` maps lambda to the
    value, or is None.  ``product`` maps the bound parameters to the
    reference route's direct integrand; None means f*kernel(g).
    """

    id: str
    f_expr: str
    kernel: str
    params: tuple
    phases: tuple
    domain: tuple
    weight: float = 1.0
    closed_form: Callable[[float], complex] | None = None
    product: Callable[[dict], Callable] | None = None


def _series(lam: float, moment: Callable[[int], float]) -> complex:
    """Sum of (i*lam)^n/n! * moment(n) over n < 20: the expansion of
    exp(i*lam*x^2) integrated term by term, within roundoff for
    lam * max(x^2) < 1 over the domain."""
    total, term = 0j, 1 + 0j
    for n in range(20):
        total += term * moment(n)
        term *= 1j * lam / (n + 1)
    return total


def _lower_gamma_1(s: int) -> float:
    """gamma(s, 1) = e^-1 * sum over k of 1/(s (s+1) ... (s+k)), for s >= 2."""
    total, term = 0.0, 1.0 / s
    for k in range(1, 20):
        total += term
        term /= s + k
    return total / math.e


def _fresnel_scales(lam: float):
    """(A, q) with A = sqrt(pi/lam) e^{i pi/4} / 2 and q = sqrt(lam) e^{i pi/4}.

    int_u^v exp(i*lam*t^2) dt = A (erfc(-iqu) - erfc(-iqv)), and
    erfc(-iqu) = e^{i lam u^2} w(qu) with the Faddeeva function w, which
    stays accurate for large |qu|.  The forms below take each factor
    e^{i lam u^2} from lam itself, not from a rounded u^2, whose phase
    error would grow like lam * 1e-16.
    """
    rot = cmath.exp(0.25j * math.pi)
    return 0.5 * math.sqrt(math.pi / lam) * rot, math.sqrt(lam) * rot


def _i4(lam: float) -> complex:
    """(i/lam) (e^{i lam} - e^{i lam e^10}), defined while lam * e^10 is finite."""
    top = lam * float(np.exp(10.0))  # a float product overflows to inf, unwarned
    if math.isinf(top):
        raise ValueError(f"I4 needs lambda * exp(10) finite, so lambda <= "
                         f"{sys.float_info.max / float(np.exp(10.0))!r}, got {lam!r}")
    return (1j / lam) * (np.exp(1j * lam) - np.exp(1j * top))


def _i5(lam: float) -> complex:
    """int_0^1 x e^{-x} exp(i*lam*x^2) dx.

    Integrating by parts gives (e^{i lam - 1} - 1 + E) / (2i lam), where
    completing the square, c = i/(2 lam), turns
    E = int_0^1 exp(i*lam*x^2 - x) dx into A (w(qc) - e^{i lam - 1} w(q(1+c))).
    The form cancels below lam = 1, so there the series is used.
    """
    if lam < 1.0:
        return _series(lam, lambda n: _lower_gamma_1(2 * n + 2))
    a, q = _fresnel_scales(lam)
    c = 0.5j / lam
    end = cmath.exp(1j * lam - 1)
    e = a * (wofz(q * c) - end * wofz(q * (1 + c)))
    return complex((end - 1 + e) / 2j / lam)


def _i6(lam: float) -> complex:
    """int_{-1}^{1} (1 + x^2) exp(i*lam*x^2) dx = F + (e^{i lam} - F/2)/(i lam).

    F = int_{-1}^{1} exp(i*lam*x^2) dx = 2A (1 - e^{i lam} w(q)).  The form
    cancels below lam = 1, so there the series is used.
    """
    if lam < 1.0:
        return _series(lam, lambda n: 2 / (2 * n + 1) + 2 / (2 * n + 3))
    a, q = _fresnel_scales(lam)
    end = cmath.exp(1j * lam)
    f = 2 * a * (1 - end * wofz(q))
    return complex(f + (end - f / 2) / 1j / lam)


def _i7(lam: float) -> complex:
    """int_{-4}^{4} exp(i*lam*x^2) dx = 2A (1 - e^{16 i lam} w(4q)).

    The form cancels below lam = 1/16, so there the series is used.  Where
    16 lam overflows, |w(4q)| < 1e-150 and the value is 2A.
    """
    if lam < 0.0625:
        return _series(lam, lambda n: 2 * 4 ** (2 * n + 1) / (2 * n + 1))
    a, q = _fresnel_scales(lam)
    if math.isinf(16 * lam):
        return complex(2 * a)
    return complex(2 * a * (1 - cmath.exp(16j * lam) * wofz(4 * q)))


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
        domain=(0.0, math.inf),
        closed_form=lambda lam: np.exp(1j * math.pi / 8.0) * 2.0 * GAMMA_5_4 / lam ** 0.25),
    "I3": NamedIntegral(
        id="I3", f_expr="2/x", kernel="exp", params=("lambda",),
        phases=("lambda*x",), domain=(1.0, math.inf),
        closed_form=lambda lam: complex(2.0 * exp1(-1j * lam))),
    # The upper endpoint phase of the I4 closed form is written exactly as
    # the integrand evaluates it (lambda * exp(10)) so argument rounding
    # cancels in comparisons.
    "I4": NamedIntegral(
        id="I4", f_expr="exp(x)", kernel="exp", params=("lambda",),
        phases=("lambda*exp(x)",), domain=(0.0, 10.0), closed_form=_i4),
    "I5": NamedIntegral(
        id="I5", f_expr="exp(-x)*x", kernel="exp", params=("lambda",),
        phases=("lambda*x^2",), domain=(0.0, 1.0), closed_form=_i5),
    "I6": NamedIntegral(
        id="I6", f_expr="1+x^2", kernel="exp", params=("lambda",),
        phases=("lambda*x^2",), domain=(-1.0, 1.0), closed_form=_i6),
    # Fresnel integral: int_{-4}^{4} exp(i*lam*x^2) dx
    "I7": NamedIntegral(
        id="I7", f_expr="1", kernel="exp", params=("lambda",),
        phases=("lambda*x^2",), domain=(-4.0, 4.0), closed_form=_i7),
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
    # I21's f = 1/sqrt(1-alpha*cos(x)) is integrable on [-pi, pi] only for |alpha| < 1
    if not abs(params.get("alpha", 0.0)) < 1.0:
        raise ValueError(f"{id} needs -1 < alpha < 1, got {params['alpha']}")
    return entry


def _lambda(entry: NamedIntegral, params: dict) -> float:
    lam = float(params["lambda"])  # the tails and closed forms need lambda > 0
    if lam <= 0:
        raise ValueError(f"{entry.id} needs lambda > 0")
    if lam < sys.float_info.min:  # the closed forms overflow at a subnormal lambda
        raise ValueError(f"{entry.id} needs lambda >= {sys.float_info.min!r} "
                         f"(the smallest normal float), got {lam!r}")
    return lam


def closed_form_value(id: str, params: dict) -> complex:
    """Target value from the entry's closed form (ValueError if it has none)."""
    entry = _entry(id, params)
    if entry.closed_form is None:
        raise ValueError(f"no closed form available for {id}")
    return entry.closed_form(_lambda(entry, params))


def _bind(id: str, params: dict, direct: bool = False):
    """(entry, components, domain): one Integrand per phase, sharing one
    compiled f; with ``direct``, an entry's ``product`` in their place."""
    entry = _entry(id, params)
    if math.isinf(entry.domain[1]):
        _lambda(entry, params)
    bound = {p: float(params[p]) for p in entry.params}
    if direct and entry.product is not None:
        components = [entry.product(bound)]
    else:
        f_fn = exprmod.compile_fn(entry.f_expr, bound)
        components = [Integrand(f=f_fn, g=exprmod.compile_fn(g, bound), kernel=entry.kernel)
                      for g in entry.phases]
    return entry, components, entry.domain


def integrand_for(id: str, params: dict):
    """Weighted exp/cos/sin-kernel components of a catalog integral.

    Returns ``(components, (a, b))`` where components is a list of
    ``(weight, Integrand)`` pairs whose weighted integrals sum to the
    catalog value: one per phase of the entry, each with its weight.
    """
    entry, components, domain = _bind(id, params)
    return [(entry.weight, c) for c in components], domain


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
    """Direct (kernel applied) integrand for the reference integrator.

    The entry's one ``Integrand``, called as f * kernel(g); I21 keeps its
    original product form, not the phase split, so that route shares as
    little as possible with the collocation route.
    """
    _, components, domain = _bind(id, params, direct=True)
    return components[0], domain


def evaluate_oracle(id: str, params: dict, tol: float = 1e-15) -> QuadResult:
    """Evaluate a catalog integral with adaptive Gauss-Legendre quadrature."""
    fn, (a, b) = oracle_integrand(id, params)
    return adaptive_gauss(fn, a, b, tol=tol)
