"""Built-in invariant suite behind ``oscquad selftest``.

Each check is a small self-contained verification of a property the
package relies on: grid and differentiation exactness, quadrature rule
exactness, truncated-solver guarantees, panel symmetries and driver
consistency.  The whole suite is sized to finish in a few seconds.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.chebyshev import chebval

from . import chebyshev, linalg, oracle
from .adaptive import AdaptiveConfig, adaptive_integrate
from .levin import Integrand, levin_panel


def check_cheb_nodes():
    for k in (2, 3, 5, 9, 12):
        x = chebyshev.cheb_nodes(k)
        assert x[0] == -1.0 and x[-1] == 1.0
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1])


def check_cheb_diff_exactness():
    d = chebyshev.diff_matrix(12)
    x = chebyshev.cheb_nodes(12)
    assert np.abs(d @ np.ones(12)).max() <= 1e-13
    for m in range(1, 12):
        err = np.abs(d @ x ** m - m * x ** (m - 1)).max()
        scale = max(1.0, np.abs(m * x ** (m - 1)).max())
        assert err / scale <= 1e-11, f"monomial degree {m}: {err / scale:.2e}"


def check_cheb_aliasing():
    k = 12
    x = chebyshev.cheb_nodes(k)
    n = 2 * (k - 1)
    coeffs = chebyshev.cheb_coeffs(np.cos(n * np.arccos(np.clip(x, -1, 1))))
    assert abs(coeffs[0] - 1.0) <= 1e-13
    assert np.abs(coeffs[1:]).max() <= 1e-13


def check_cheb_roundtrip():
    rng = np.random.default_rng(7)
    k = 12
    vals = rng.standard_normal(k)
    coeffs = chebyshev.cheb_coeffs(vals)
    back = chebval(chebyshev.cheb_nodes(k), coeffs)
    assert np.abs(back - vals).max() <= 1e-13 * max(1.0, np.abs(vals).max())


def check_gauss_rules():
    for n in (1, 2, 3, 12, 30):
        rule = oracle.gauss_rule(n)
        assert abs(rule.weights.sum() - 2.0) <= 1e-14
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        for m in range(2 * n):
            exact = 0.0 if m % 2 else 2.0 / (m + 1)
            got = rule.weights @ rule.nodes ** m
            assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact)), (n, m)


def check_tsvd_bounds():
    # Planted near-consistent systems: the truncated solve must return a
    # solution with norm and residual within a modest factor of the plant.
    rng = np.random.default_rng(11)
    for trial in range(12):
        k = 12
        u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        v, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        decay = rng.uniform(0.5, 2.0)
        s = 10.0 ** (-decay * np.arange(k, dtype=float))
        if trial % 3 == 0:
            s[-3:] = 0.0
        a = (u * s) @ v.conj().T
        xbar = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        eps = 10.0 ** rng.uniform(-12, -6)
        norm_a = s[0]
        noise = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        noise *= eps * norm_a * np.linalg.norm(xbar) / np.linalg.norm(noise)
        y = a @ xbar - noise
        z, _rank = linalg.tsvd_apply(linalg.svd(a), y, eps * norm_a)
        assert np.linalg.norm(z) <= 10.0 * np.linalg.norm(xbar)
        resid = np.linalg.norm(a @ z - y)
        assert resid <= 10.0 * eps * norm_a * np.linalg.norm(xbar)


def check_solver_agreement():
    # QR and SVD panel estimates must match on oscillator panels across a
    # frequency sweep of the quadratic-phase benchmark integrand.
    f = lambda x: 1.0 + x * x
    for lam in 10.0 ** np.linspace(0, 3, 20):
        g = lambda x, lam=lam: lam * x * x
        integrand = Integrand(f=f, g=g)
        for (a, b) in ((-1.0, 1.0), (-1.0, 0.0), (0.25, 0.875)):
            v_qr = levin_panel(integrand, a, b, solver="qr").value
            v_svd = levin_panel(integrand, a, b, solver="svd").value
            assert abs(v_qr - v_svd) <= 1e-11 * (1.0 + abs(v_qr)), (lam, a, b)


def check_panel_symmetries():
    f = lambda x: np.cos(x) / (1.0 + x * x)
    g = lambda x: 37.0 * x + 5.0 * x ** 2
    base = levin_panel(Integrand(f=f, g=g), -1.0, 1.0)
    conj = levin_panel(Integrand(f=lambda x: np.conj(f(x)), g=lambda x: -g(x)),
                       -1.0, 1.0)
    assert abs(conj.value - np.conj(base.value)) <= 1e-13

    # affine invariance: pull [0.3, 0.9] back to [0, 1]
    a, b = 0.3, 0.9
    direct = levin_panel(Integrand(f=f, g=g), a, b).value
    w = b - a
    pulled = levin_panel(
        Integrand(f=lambda t: w * f(a + w * t), g=lambda t: g(a + w * t)),
        0.0, 1.0).value
    assert abs(direct - pulled) <= 1e-12 * (1.0 + abs(direct))

    zero = levin_panel(Integrand(f=lambda x: 0.0 * x, g=g), -1.0, 1.0).value
    assert zero == 0.0


def check_driver_additivity():
    f = lambda x: np.exp(-x) * x
    g = lambda x: 300.0 * x * x
    integrand = Integrand(f=f, g=g)
    config = AdaptiveConfig()
    whole = adaptive_integrate(integrand, 0.0, 1.0, config)
    left = adaptive_integrate(integrand, 0.0, 0.37, config)
    right = adaptive_integrate(integrand, 0.37, 1.0, config)
    assert whole.status == "converged"
    assert abs(whole.value - (left.value + right.value)) <= 4.0 * config.eps


def check_low_frequency():
    # single-panel error bounded and not growing as the frequency -> 0
    # (the lam=1 panel sits at the k=12 resolution limit, ~2e-8)
    f = lambda x: 1.0 + x * x
    errs = {}
    for lam in (1e-8, 1e-4, 1.0):
        integrand = Integrand(f=f, g=lambda x, lam=lam: lam * x * x)
        panel = levin_panel(integrand, -1.0, 1.0).value
        errs[lam] = abs(panel - oracle.adaptive_gauss(integrand, -1.0, 1.0).value)
    assert errs[1e-8] <= 1e-10 and errs[1e-4] <= 1e-10
    assert errs[1.0] <= 1e-7
    assert max(errs[1e-8], errs[1e-4]) <= errs[1.0] + 1e-12


CHECKS = [
    ("chebyshev.nodes", check_cheb_nodes),
    ("chebyshev.diff_exactness", check_cheb_diff_exactness),
    ("chebyshev.aliasing", check_cheb_aliasing),
    ("chebyshev.roundtrip", check_cheb_roundtrip),
    ("oracle.gauss_rules", check_gauss_rules),
    ("linalg.tsvd_bounds", check_tsvd_bounds),
    ("levin.solver_agreement", check_solver_agreement),
    ("levin.symmetries", check_panel_symmetries),
    ("levin.low_frequency", check_low_frequency),
    ("adaptive.additivity", check_driver_additivity),
]


def run(filter: str | None = None) -> int:
    """Run the suite, print one line per check, return the failure count.

    A ``filter`` that is in the name of no check is a ValueError.
    """
    checks = [(name, fn) for name, fn in CHECKS if not filter or filter in name]
    if not checks:
        raise ValueError(f"no self-test check name contains {filter!r}")
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return failures
