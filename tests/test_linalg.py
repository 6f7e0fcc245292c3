import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import zungqr

from oscquad import Integrand, PanelError, chebyshev, linalg
from oscquad.levin import panel_values
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


def test_qr_factor_in_place_matches_the_copying_call():
    # random, planted rank-deficient and all-zero matrices: the factors of
    # a Fortran-ordered matrix overwritten in place have the copying call's
    # bits, and so does every apply of them
    rng = np.random.default_rng(13)
    k = 12
    y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    for m in (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)),
              _planted_rank_deficient(rng, 5, 0.0), _planted_rank_deficient(rng, 9, 1e-20),
              np.zeros((k, k), dtype=complex)):
        want = linalg.qr_factor(m)
        a = np.asfortranarray(m)
        got = linalg.qr_factor(a, True)
        assert np.shares_memory(got.qr, a)
        for name in ("qr", "tau", "perm", "rdiag"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for threshold in (None, 1e-10):
            x, rank = linalg.qr_apply(got, y, threshold)
            want_x, want_rank = linalg.qr_apply(want, y, threshold)
            assert (x.tobytes(), rank) == (want_x.tobytes(), want_rank)
    # a C-ordered matrix is copied, not overwritten
    m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    a = m.copy()
    assert not np.shares_memory(linalg.qr_factor(a, True).qr, a)
    np.testing.assert_array_equal(a, m)


def _leading_run(kept):
    return kept.size if kept.all() else int(kept.argmin())


def test_retained_is_the_rank_rule_of_qr_apply():
    # the stacked rule, its full-rank test and its per-row leading run
    # agree with qr_apply's default rank; a NaN on R's diagonal is kept,
    # and the full-rank solve then gives a non-finite solution
    rng = np.random.default_rng(14)
    k = 12
    mats = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)),
            _planted_rank_deficient(rng, 7, 0.0), np.zeros((k, k), dtype=complex),
            np.diag(np.r_[1.0, np.full(k - 1, 1e-300)]) + 0j]
    factors = [linalg.qr_factor(m) for m in mats]
    factors.append(factors[0]._replace(qr=factors[0].qr.copy()))
    factors[-1].qr[3, 3] = np.nan
    kept = linalg.retained(np.array([f.rdiag for f in factors]))
    y = np.ones(k, dtype=complex)
    ranks = [linalg.qr_apply(f, y)[1] for f in factors]
    assert [_leading_run(row) for row in kept] == ranks
    assert kept.all(axis=1).tolist() == [r == k for r in ranks] == [
        True, False, False, False, True]
    for f, row in zip(factors, kept):
        assert (linalg.retained(f.rdiag) == row).all()
    assert not np.isfinite(linalg.qr_solve(factors[-1], y)).all()
    z = linalg.qr_solve(factors[0], y)
    x = np.zeros(k, dtype=complex)
    x[factors[0].perm] = z[:, 0]
    assert x.tobytes() == linalg.qr_apply(factors[0], y)[0].tobytes()


@pytest.mark.parametrize("s, rank", [
    # a tie: 3 * EPS0 is exactly the default threshold, and is kept
    (np.r_[3.0, np.logspace(0, -15, 9), 3 * linalg.EPS0, 1.5 * linalg.EPS0], 11),
    (np.r_[np.logspace(0, -3, 8), np.zeros(4)], 8),
    # EPS0 * 1e-310 is 0, so the threshold is the smallest normal float
    (np.r_[1e-310, np.full(11, 5e-311)], 0),
])
def test_both_solvers_keep_the_same_rank_of_a_diagonal_system(s, rank):
    a = np.diag(s) + 0j
    y = np.arange(1.0, 13.0) + 0j
    qr, sv = linalg.qr_factor(a), linalg.svd(a)
    assert qr.rdiag.tolist() == sv.sigma.tolist() == s.tolist()
    (xq, rq), (xs, rs) = linalg.qr_apply(qr, y), linalg.tsvd_apply(sv, y)
    assert rq == rs == _leading_run(linalg.retained(s)) == rank
    np.testing.assert_allclose(xq, xs, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(xq[rank:], 0)


def test_rank_is_the_leading_run_of_kept_entries():
    # R = diag(d) with a dropped entry before kept ones: Q = I (tau = 0)
    k = 12
    d = np.ones(k)
    d[3] = 1e-20
    factors = linalg.QrFactors(np.diag(d) + 0j, np.zeros(k, dtype=complex),
                               np.arange(1, k + 1, dtype=np.int32))
    x, rank = linalg.qr_apply(factors, np.arange(1.0, k + 1) + 0j)
    assert rank == 3
    assert x.tolist() == [1, 2, 3] + [0] * 9


@pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan, np.inf])
def test_threshold_must_be_finite_and_positive(threshold):
    k = 12
    y = np.ones(k, dtype=complex)
    for a in (np.zeros((k, k), dtype=complex), np.eye(k) + 0j):
        with pytest.raises(ValueError, match="finite and > 0"):
            linalg.qr_apply(linalg.qr_factor(a), y, threshold)
        with pytest.raises(ValueError, match="finite and > 0"):
            linalg.tsvd_apply(linalg.svd(a), y, threshold)
    with pytest.raises(ValueError, match="finite and > 0"):
        linalg.retained(np.ones((2, k)), threshold)


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


def _planted_rank_deficient(rng, rank, tail):
    k = 12
    s = np.logspace(0, -3, k)
    s[rank:] = tail
    return (random_unitary(rng, k) * s) @ random_unitary(rng, k).conj().T


@pytest.mark.parametrize("tail", [0.0, 1e-20])
@pytest.mark.parametrize("rank", range(1, 12))
def test_qr_truncated_apply_is_the_minimum_norm_solution(rank, tail):
    # trailing singular values of exactly 0 or 1e-20 relative, against a
    # threshold that separates them from the 1..1e-3 retained ones
    rng = np.random.default_rng(100 + rank)
    k = 12
    a = _planted_rank_deficient(rng, rank, tail)
    y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    factors = linalg.qr_factor(a)
    saved = [np.array(part, copy=True) for part in factors]
    x, got_rank = linalg.qr_apply(factors, y, 1e-10 * factors.rdiag[0])
    assert got_rank == rank
    # reference: Q from the Householder vectors, the pseudoinverse of the
    # retained rows R[:l, :], and the column permutation undone
    q, _work, info = zungqr(factors.qr, factors.tau)
    assert info == 0
    r = np.triu(factors.qr)
    assert np.linalg.norm(q @ r - a[:, factors.perm]) <= 1e-13
    want = np.zeros(k, dtype=complex)
    want[factors.perm] = np.linalg.pinv(r[:rank]) @ (q.conj().T @ y)[:rank]
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    # the cos/sin path applies one factorization twice: same bits, and the
    # factors are left as they were
    again, again_rank = linalg.qr_apply(factors, y, 1e-10 * factors.rdiag[0])
    assert (again.tobytes(), again_rank) == (x.tobytes(), got_rank)
    for before, after in zip(saved, factors):
        np.testing.assert_array_equal(before, after)


def test_qr_truncated_apply_overflow_is_nonfinite_without_warning():
    rng = np.random.default_rng(11)
    factors = linalg.qr_factor(_planted_rank_deficient(rng, 6, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, rank = linalg.qr_apply(factors, np.full(12, 1e308 + 0j), 1e-10)
    assert rank == 6
    assert not np.isfinite(x).all()


def test_overflowing_truncated_panel_is_panel_failure():
    # g = 0 leaves D/h, which has rank k - 1, and Q* f overflows
    integrand = Integrand(f=lambda x: np.full_like(x, 1e308), g=lambda x: 0.0 * x)
    grid = chebyshev.grid()
    a = grid.diff / 0.5
    assert linalg.qr_apply(linalg.qr_factor(a + 0j), np.ones(grid.k))[1] < grid.k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, ranks, _ = panel_values(integrand, [(0.0, 1.0)], grid, "qr")
    assert isinstance(values[0], PanelError) and ranks == [None]
    assert str(values[0]).startswith("non-finite panel estimate")


@pytest.mark.parametrize("routine", ["_tzrzf", "_trtrs", "_unmrz"])
def test_truncated_apply_raises_on_lapack_info(routine, monkeypatch):
    rng = np.random.default_rng(12)
    factors = linalg.qr_factor(_planted_rank_deficient(rng, 6, 0.0))
    bound = getattr(linalg, routine)
    monkeypatch.setattr(linalg, routine, lambda *args, **kwargs: (
        *bound(*args, **kwargs)[:-1], -1))
    with pytest.raises(linalg.LinalgError, match=f"-1 \\({routine[1:]}\\)"):
        linalg.qr_apply(factors, np.ones(12, dtype=complex), 1e-10)
