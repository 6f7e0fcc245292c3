import numpy as np
import pytest

from oscquad import linalg
from helpers import gauss_solve, random_unitary


def test_svd_identity():
    factors = linalg.svd(np.eye(3))
    np.testing.assert_allclose(factors.sigma, [1.0, 1.0, 1.0], atol=1e-15)


def test_svd_diagonal_with_complex_entry():
    factors = linalg.svd(np.diag([3.0, 2.0j, 0.0]))
    np.testing.assert_allclose(factors.sigma, [3.0, 2.0, 0.0], atol=1e-15)


def test_svd_recovers_planted_spectrum():
    rng = np.random.default_rng(0)
    k = 12
    u0 = random_unitary(rng, k)
    v0 = random_unitary(rng, k)
    s = np.sort(rng.uniform(0.1, 10.0, k))[::-1]
    a = (u0 * s) @ v0.conj().T
    factors = linalg.svd(a)
    assert np.abs(factors.sigma - s).max() <= 1e-12 * s[0]


def test_svd_factor_invariants():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        factors = linalg.svd(a)
        recon = (factors.u * factors.sigma) @ factors.v.conj().T
        norm = np.linalg.norm(a)
        assert np.linalg.norm(recon - a) <= 1e-12 * norm
        assert np.all(np.diff(factors.sigma) <= 0)
        assert factors.sigma[-1] >= 0
        eye = np.eye(9)
        assert np.linalg.norm(factors.u.conj().T @ factors.u - eye) <= 1e-12
        assert np.linalg.norm(factors.v.conj().T @ factors.v - eye) <= 1e-12


def test_svd_rejects_nonfinite():
    with pytest.raises(linalg.LinalgError):
        linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_tsvd_identity_passthrough():
    y = np.array([1.0, -2.0, 3.0j])
    x, rank = linalg.tsvd_apply(linalg.svd(np.eye(3)), y, 1e-16)
    np.testing.assert_allclose(x, y, atol=1e-15)
    assert rank == 3


def test_tsvd_truncates_tiny_direction():
    a = np.diag([1.0, 1e-20])
    x, rank = linalg.tsvd_apply(linalg.svd(a), np.array([1.0, 1.0]), 1e-12)
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-15)
    assert rank == 1


def test_tsvd_all_below_threshold_returns_zero():
    a = 1e-20 * np.eye(4)
    x, rank = linalg.tsvd_apply(linalg.svd(a), np.ones(4), 1e-12)
    assert np.all(x == 0)
    assert rank == 0


def test_tsvd_matches_elimination_oracle():
    # expected values from the hand-rolled partial-pivot solver
    rng = np.random.default_rng(2)
    k = 12
    for _ in range(6):
        u0 = random_unitary(rng, k)
        v0 = random_unitary(rng, k)
        s = np.logspace(0, -2.5, k)  # condition <= 1e3
        a = (u0 * s) @ v0.conj().T
        y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        want = gauss_solve(a, y)
        x, rank = linalg.tsvd_apply(linalg.svd(a), y, linalg.EPS0 * s[0])
        assert rank == k
        assert np.linalg.norm(x - want) <= 1e-11 * np.linalg.norm(want)


def test_qr_identity_passthrough():
    y = np.array([2.0, 1.0j, -1.0])
    x, rank = linalg.qr_apply(linalg.qr_factor(np.eye(3)), y, 1e-16)
    np.testing.assert_allclose(x, y, atol=1e-15)
    assert rank == 3


def test_qr_rank_one_minimum_norm():
    rng = np.random.default_rng(3)
    k = 8
    u = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    v /= np.linalg.norm(v)
    a = np.outer(u, v.conj())
    x, rank = linalg.qr_apply(linalg.qr_factor(a), u, 1e-12)
    assert rank == 1
    assert np.linalg.norm(a @ x - u) <= 1e-12
    # minimum-norm solution is parallel to v
    proj = v * (v.conj() @ x)
    assert np.linalg.norm(x - proj) <= 1e-12 * np.linalg.norm(x)


def test_qr_matches_elimination_oracle():
    rng = np.random.default_rng(4)
    k = 12
    for _ in range(6):
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        want = gauss_solve(a, y)
        thr = linalg.EPS0 * np.linalg.norm(a)
        x, _rank = linalg.qr_apply(linalg.qr_factor(a), y, thr)
        assert np.linalg.norm(x - want) <= 1e-11 * np.linalg.norm(want)


def test_tsvd_residual_norm_property():
    # planted near-consistent systems, including rank-deficient ones:
    # the computed solution keeps a bounded norm and a small residual
    rng = np.random.default_rng(6)
    for trial in range(20):
        k = 12
        u0 = random_unitary(rng, k)
        v0 = random_unitary(rng, k)
        s = 10.0 ** (-rng.uniform(0.3, 1.5) * np.arange(k, dtype=float))
        if trial % 4 == 0:
            s[rng.integers(4, k):] = 0.0
        a = (u0 * s) @ v0.conj().T
        xbar = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        eps = 10.0 ** rng.uniform(-13, -6)
        delta = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        delta *= eps * s[0] * np.linalg.norm(xbar) / np.linalg.norm(delta)
        y = a @ xbar - delta
        z, _rank = linalg.tsvd_apply(linalg.svd(a), y, eps * s[0])
        c = 10.0
        assert np.linalg.norm(z) <= c * np.linalg.norm(xbar)
        assert np.linalg.norm(a @ z - y) <= c * eps * s[0] * np.linalg.norm(xbar)


def test_svd_accepts_any_memory_layout():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    got, want = linalg.svd(m.T), linalg.svd(m.T.copy())
    for name in ("u", "sigma", "v"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    m[2, 3] = np.inf
    with pytest.raises(linalg.LinalgError):
        linalg.svd(np.asfortranarray(m))


def test_qr_factor_leaves_its_argument_unchanged():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for a in (m.copy(), np.asfortranarray(m)):
        factors = linalg.qr_factor(a)
        np.testing.assert_array_equal(a, m)
        assert not np.shares_memory(factors.qr, a)


def test_default_threshold_is_eps0_times_the_norm_proxy():
    rng = np.random.default_rng(9)
    k = 12
    u0, v0 = random_unitary(rng, k), random_unitary(rng, k)
    s = np.logspace(0, -3, k)
    s[-3:] = 1e-20
    y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    for a in ((u0 * s) @ v0.conj().T, rng.standard_normal((k, k)) + 0j):
        qr, sv = linalg.qr_factor(a), linalg.svd(a)
        for got, want in ((linalg.qr_apply(qr, y),
                           linalg.qr_apply(qr, y, linalg.EPS0 * qr.rdiag[0])),
                          (linalg.tsvd_apply(sv, y),
                           linalg.tsvd_apply(sv, y, linalg.EPS0 * sv.sigma[0]))):
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]
    # an all-zero matrix: the threshold is the smallest normal float, not 0
    zero = np.zeros((k, k), dtype=complex)
    for x, rank in (linalg.qr_apply(linalg.qr_factor(zero), y),
                    linalg.tsvd_apply(linalg.svd(zero), y)):
        assert rank == 0
        assert not x.any()
