import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from oscquad import Integrand, chebyshev, levin_panel
from oscquad.levin import panel_values
from helpers import cheb_t


def test_nodes_small_orders():
    assert np.allclose(chebyshev.cheb_nodes(2), [-1.0, 1.0], atol=0)
    assert np.allclose(chebyshev.cheb_nodes(3), [-1.0, 0.0, 1.0], atol=0)
    r = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(chebyshev.cheb_nodes(5), [-1.0, -r, 0.0, r, 1.0],
                               atol=1e-16)


def test_nodes_endpoints_and_antisymmetry():
    for k in (2, 3, 7, 12, 25):
        x = chebyshev.cheb_nodes(k)
        assert x[0] == -1.0
        assert x[-1] == 1.0
        assert np.array_equal(x, -x[::-1])
        assert np.all(np.diff(x) > 0)


def test_nodes_rejects_small_k():
    with pytest.raises(ValueError):
        chebyshev.cheb_nodes(1)
    with pytest.raises(ValueError):
        chebyshev.diff_matrix(0)
    # an order is an integer: 2.5 gave [-1, 0, 1]
    for k in (2.5, 12.0, "12"):
        with pytest.raises(ValueError, match="must be an integer"):
            chebyshev.cheb_nodes(k)
    assert chebyshev.cheb_nodes(np.int64(3)).tolist() == [-1.0, 0.0, 1.0]


def test_diff_matrix_k2_on_linear():
    d = chebyshev.diff_matrix(2)
    np.testing.assert_allclose(d @ np.array([-1.0, 1.0]), [1.0, 1.0], atol=1e-15)


def test_diff_matrix_constants():
    for k in (2, 5, 12, 20):
        d = chebyshev.diff_matrix(k)
        assert np.abs(d @ np.ones(k)).max() <= 1e-13


def test_diff_matrix_x_squared_k12():
    x = chebyshev.cheb_nodes(12)
    d = chebyshev.diff_matrix(12)
    assert np.abs(d @ x ** 2 - 2 * x).max() <= 1e-12


def test_diff_matrix_polynomial_exactness():
    for k in (4, 8, 12):
        x = chebyshev.cheb_nodes(k)
        d = chebyshev.diff_matrix(k)
        for m in range(k):
            want = m * x ** (m - 1) if m else np.zeros(k)
            err = np.abs(d @ x ** m - want).max()
            assert err <= 1e-11 * max(1.0, np.abs(want).max()), (k, m)


def test_diff_matrix_norm_regression():
    norm = np.linalg.norm(chebyshev.diff_matrix(12), 2)
    assert 50.0 <= norm <= 500.0
    # pinned value; the closed-form construction should not drift
    assert abs(norm - 68.13446073786734) <= 1e-9


def test_coeffs_t0():
    k = 8
    coeffs = chebyshev.cheb_coeffs(np.ones(k))
    assert abs(coeffs[0] - 1.0) <= 1e-14
    assert np.abs(coeffs[1:]).max() <= 1e-14


def test_coeffs_t2():
    for k in (4, 9, 12):
        x = chebyshev.cheb_nodes(k)
        coeffs = chebyshev.cheb_coeffs(cheb_t(2, x))
        want = np.zeros(k)
        want[2] = 1.0
        assert np.abs(coeffs - want).max() <= 1e-14


def test_coeffs_aliasing_wraps_to_constant():
    # sampling T_{2(k-1)} on the k-point grid aliases to T_0
    for k in (5, 12):
        x = chebyshev.cheb_nodes(k)
        coeffs = chebyshev.cheb_coeffs(cheb_t(2 * (k - 1), x))
        assert abs(coeffs[0] - 1.0) <= 1e-13
        assert np.abs(coeffs[1:]).max() <= 1e-13


def test_coeffs_aliasing_identity_general():
    # a_n picks up the b_{n + 2j(k-1)} coefficients of the underlying series
    k = 6
    x = chebyshev.cheb_nodes(k)
    n = 3
    vals = cheb_t(n, x) + cheb_t(n + 2 * (k - 1), x)
    coeffs = chebyshev.cheb_coeffs(vals)
    want = np.zeros(k)
    want[n] = 2.0
    assert np.abs(coeffs - want).max() <= 1e-13


@pytest.mark.parametrize("k", [23, 200])
def test_coeffs_of_every_t_n_is_its_unit_vector(k):
    # column n holds the samples of T_n, so the map gives the identity
    x = chebyshev.cheb_nodes(k)
    samples = np.column_stack([cheb_t(n, x) for n in range(k)])
    assert np.abs(chebyshev.cheb_coeffs(samples) - np.eye(k)).max() <= 1e-13


def test_eval_roundtrip():
    rng = np.random.default_rng(42)
    k = 12
    vals = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    coeffs = chebyshev.cheb_coeffs(vals)
    nodes = chebyshev.cheb_nodes(k)
    back = chebval(nodes, coeffs)
    assert np.abs(back - vals).max() <= 1e-13 * np.abs(vals).max()


def test_polynomial_reproduction_property():
    rng = np.random.default_rng(5)
    k = 12
    nodes = chebyshev.cheb_nodes(k)
    for _ in range(5):
        poly = rng.standard_normal(k)  # coefficients, degree k-1
        vals = np.polyval(poly, nodes)
        coeffs = chebyshev.cheb_coeffs(vals)
        pts = rng.uniform(-1, 1, 100)
        want = np.polyval(poly, pts)
        got = chebval(pts, coeffs)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-12 * scale


def sampled_nodes(spans, k):
    """The points panel_values samples f at, one row per span."""
    seen = []

    def f(x):
        seen.append(np.array(x))
        return np.ones_like(x)

    panel_values(Integrand(f=f, g=lambda x: 0.0 * x), spans, chebyshev.grid(k), "qr")
    return seen[0].reshape(len(spans), k)


def test_map_identity():
    nodes = sampled_nodes([(-1.0, 1.0)], 12)
    np.testing.assert_array_equal(nodes[0], chebyshev.grid(12).nodes)


def test_map_width_two():
    np.testing.assert_array_equal(sampled_nodes([(0.0, 2.0)], 2), [[0.0, 2.0]])


def test_map_endpoints_exact_on_every_span():
    spans = [(0.1, 0.7), (0.7, 1.3), (-3.3, -3.2999999), (1e-3, 1e5)]
    nodes = sampled_nodes(spans, 12)
    for (a, b), row in zip(spans, nodes):
        assert row[0] == a and row[-1] == b
        assert np.all(np.diff(row) > 0)


def test_map_unit_interval_derivative():
    # p(x) = x solves p' + i g' p = f for g = x^2 and f = 1 + 2i x^2, so the
    # panel value is p(1) e^{i g(1)} - p(0) e^{i g(0)} = e^i only if the
    # differentiation matrix is rescaled by 2/(b - a) on [0, 1]
    integrand = Integrand(f=lambda x: 1.0 + 2j * x * x, g=lambda x: x * x)
    value = levin_panel(integrand, 0.0, 1.0).value
    assert abs(value - np.exp(1j)) <= 1e-14


def test_map_rejects_bad_interval():
    integrand = Integrand(f=np.ones_like, g=np.zeros_like)
    with pytest.raises(ValueError):
        levin_panel(integrand, 1.0, 1.0)
    with pytest.raises(ValueError):
        levin_panel(integrand, 0.0, np.inf)


def test_grid_cache_identity_and_concurrency():
    assert chebyshev.grid(12) is chebyshev.grid(12)
    with ThreadPoolExecutor(max_workers=8) as pool:
        grids = list(pool.map(chebyshev.grid, [17] * 32))
    ref = grids[0]
    for g in grids:
        np.testing.assert_array_equal(g.nodes, ref.nodes)
        np.testing.assert_array_equal(g.diff, ref.diff)
        np.testing.assert_array_equal(g.coeffs, ref.coeffs)
    for table in (ref.nodes, ref.diff, ref.coeffs):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


def test_coeffs_rejects_short_input():
    with pytest.raises(ValueError):
        chebyshev.cheb_coeffs(np.array([1.0]))
