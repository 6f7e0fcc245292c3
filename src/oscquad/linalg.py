"""Dense complex linear algebra for the small collocation systems.

Two truncated solvers for k x k complex systems are provided, each as a
factorization plus an apply step that takes the truncation threshold:

* ``svd`` + ``tsvd_apply``: truncated-SVD least squares.  Singular
  directions with sigma below the threshold are dropped, which yields a
  bounded-norm solution with a small residual whenever the system admits
  one (even when the matrix is numerically singular).
* ``qr_factor`` + ``qr_apply``: the fast path.  Column-pivoted
  (rank-revealing) QR with the rank decided by the magnitude of the R
  diagonal against the same kind of threshold, followed by a minimum-norm
  solve restricted to the retained subspace.

The default threshold, the Levin panels' truncation rule, is EPS0 times
the matrix-norm proxy (the leading R-diagonal entry or singular value), or
the smallest normal float when that product is 0 (an all-zero matrix).
The factorizations themselves come from LAPACK (via numpy/scipy); the
truncation and retained-subspace logic lives here.  LAPACK routines are
prebound at import time because these solves sit on the hot path of the
adaptive integrator (thousands of 12 x 12 solves per integral).  For the
same reason ``QrFactors`` is a named tuple and ``qr_apply`` checks for
full rank first.  No routine modifies its arguments, and an apply whose
solution overflows returns it non-finite, without a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import get_lapack_funcs

EPS0 = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)  # threshold for an all-zero matrix
SOLVERS = ("qr", "svd")

_ZPROTO = np.zeros((2, 2), dtype=np.complex128)
_geqp3, _unmqr, _trtrs = get_lapack_funcs(("geqp3", "unmqr", "trtrs"), (_ZPROTO,))


class LinalgError(Exception):
    """A dense factorization failed (e.g. SVD did not converge)."""


@dataclass(frozen=True)
class SvdFactors:
    """Singular value decomposition A = u @ diag(sigma) @ v.conj().T.

    ``u`` and ``v`` are unitary, ``sigma`` is nonnegative and descending.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(a: np.ndarray) -> SvdFactors:
    """Full SVD of a square complex matrix.

    Raises LinalgError if the iteration fails to converge, which signals
    pathological input; callers abort the enclosing computation.
    """
    a = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise LinalgError("matrix has non-finite entries")
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"SVD did not converge: {exc}") from exc
    return SvdFactors(u=u, sigma=s, v=vh.conj().T)


def tsvd_apply(factors: SvdFactors, y: np.ndarray, threshold: float | None = None):
    """Solve using an existing SVD, truncated at ``threshold``.

    Retains the leading singular directions with sigma >= threshold (ties
    included), by default EPS0 * sigma[0].  If none qualify the solution is
    identically zero with rank 0.  Returns ``(x, rank_used)``.
    """
    s = factors.sigma
    if threshold is None:
        threshold = EPS0 * s.item(0) or _TINY
    rank = int(np.count_nonzero(s >= threshold))
    if rank == 0:
        return np.zeros(s.shape[0], dtype=np.complex128), 0
    with np.errstate(all="ignore"):
        coef = (factors.u[:, :rank].conj().T @ y) / s[:rank]
        return factors.v[:, :rank] @ coef, rank


class QrFactors(NamedTuple):
    """Compact column-pivoted QR factorization A[:, perm] = Q R."""

    qr: np.ndarray      # packed Householder vectors + R (LAPACK layout)
    tau: np.ndarray
    perm: np.ndarray    # 0-based column permutation
    rdiag: np.ndarray   # |diag(R)|


def qr_factor(a: np.ndarray) -> QrFactors:
    """Pivoted QR of ``a``, which is left unchanged (geqp3 factors a copy)."""
    qr, jpvt, tau, _work, info = _geqp3(a)
    if info != 0:
        raise LinalgError(f"geqp3 failed with info={info}")
    return QrFactors(qr, tau, jpvt.astype(np.intp) - 1, np.abs(qr.diagonal()))


def qr_apply(factors: QrFactors, y: np.ndarray, threshold: float | None = None):
    """Truncated solve from an existing pivoted QR factorization.

    The numerical rank l is the length of the leading run of R-diagonal
    entries with |r_ii| >= threshold, by default EPS0 * |r_00|.  For l = k
    this is a plain triangular solve; for l < k the minimum-norm solution of
    the retained l x k system is computed via a second QR of its adjoint.
    """
    qr = factors.qr
    k = qr.shape[0]
    d = factors.rdiag
    if threshold is None:
        threshold = EPS0 * d.item(0) or _TINY
    if d.min() >= threshold:  # full rank, the common case
        rank = k
    else:  # a NaN entry fails the min test but is not below the threshold
        below = d < threshold
        rank = k if not below.any() else int(np.argmax(below))
    x = np.zeros(k, dtype=np.complex128)
    if rank == 0:
        return x, 0
    c, _work, info = _unmqr("L", "C", qr, factors.tau, y.reshape(k, 1), 16 * k)
    if info != 0:
        raise LinalgError(f"unmqr failed with info={info}")
    if rank == k:
        z, info = _trtrs(qr, c, lower=0, overwrite_b=1)
        if info != 0:
            raise LinalgError(f"triangular solve failed with info={info}")
        x[factors.perm] = z[:, 0]
    else:
        # Minimum-norm solution of [R11 R12] z = c_l:  factor the adjoint,
        # B* = Q2 R2, solve R2* w = c_l (lower triangular), z = Q2 w.
        b = np.triu(qr)[:rank, :]
        q2, r2 = np.linalg.qr(b.conj().T)
        with np.errstate(all="ignore"):
            w = solve_triangular(r2.conj().T, c[:rank, 0], lower=True, check_finite=False)
            x[factors.perm] = q2 @ w
    return x, rank
