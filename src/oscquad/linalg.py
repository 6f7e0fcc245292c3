"""Dense complex linear algebra for the small collocation systems.

Two truncated solvers for k x k complex systems are provided, each as a
factorization plus an apply step that takes the truncation threshold:

* ``svd`` + ``tsvd_apply``: truncated-SVD least squares.  Singular
  directions with sigma below the threshold are dropped, which yields a
  bounded-norm solution with a small residual whenever the system admits
  one (even when the matrix is numerically singular).
* ``qr_factor`` + ``qr_apply``: the fast path.  Column-pivoted QR with the
  rank decided by |diag R| against the same kind of threshold, then the
  minimum-norm solution of the retained rows, through LAPACK's complete
  orthogonal decomposition (``tzrzf``, ``trtrs``, ``unmrz``) if rank < k.

The truncation rule, the Levin panels' device against low-frequency
breakdown, is ``retained``: a singular value or |r_ii| is kept unless it
is below the threshold, by default EPS0 times the leading one or, where
that is 0 (as for a zero matrix), the smallest normal float.  A NaN is kept.
An explicit threshold must be finite and > 0.  The rank is the length of
the leading run of kept entries.

The factorizations themselves come from LAPACK (via numpy/scipy); the
truncation and retained-subspace logic lives here.  LAPACK routines are
prebound at import time because these solves sit on the hot path of the
adaptive integrator (thousands of 12 x 12 solves per integral).  For the
same reason ``qr_factor`` can factor in place (``overwrite_a``),
``QrFactors`` keeps geqp3's raw pivots and computes ``perm`` and ``rdiag``
only when read, and ``unmqr`` gets lwork 1, the least it takes for one
right-hand side (it then runs its unblocked code, as it does for any k
below 261 whatever lwork).  A caller with many factorizations can test
them for full rank at once (``retained`` of a stack) and solve those with
``qr_solve``, the ``unmqr`` + ``trtrs`` sequence of ``qr_apply``'s
full-rank case.  No routine modifies its arguments unless told to, and an
apply whose solution overflows returns it non-finite, without a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

EPS0 = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)  # threshold for an all-zero matrix
SOLVERS = ("qr", "svd")

_ZPROTO = np.zeros((2, 2), dtype=np.complex128)
_geqp3, _unmqr, _trtrs, _tzrzf, _unmrz = get_lapack_funcs(
    ("geqp3", "unmqr", "trtrs", "tzrzf", "unmrz"), (_ZPROTO,))


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


def retained(values: np.ndarray, threshold: float | None = None) -> np.ndarray:
    """Which entries of ``values``, one row per factorization, the rule keeps."""
    if threshold is None:
        threshold = EPS0 * values[..., :1]
        threshold[threshold == 0.0] = _TINY
    elif not 0.0 < threshold < np.inf:
        raise ValueError(f"threshold must be finite and > 0, got {threshold!r}")
    return ~(values < threshold)


def _rank(values: np.ndarray, threshold: float | None) -> int:
    """The length of the leading run of ``retained`` entries of one row."""
    kept = retained(values, threshold)
    first_dropped = int(kept.argmin())
    return kept.size if kept.item(first_dropped) else first_dropped


def tsvd_apply(factors: SvdFactors, y: np.ndarray, threshold: float | None = None):
    """Solve using an existing SVD, truncated by ``retained``'s rule.

    Keeps the leading singular directions the rule retains; with none the
    solution is identically zero.  Returns ``(x, rank_used)``.
    """
    s = factors.sigma
    rank = _rank(s, threshold)
    with np.errstate(all="ignore"):
        coef = (factors.u[:, :rank].conj().T @ y) / s[:rank]
        return factors.v[:, :rank] @ coef, rank


class QrFactors(NamedTuple):
    """Compact column-pivoted QR factorization A[:, perm] = Q R."""

    qr: np.ndarray      # packed Householder vectors + R (LAPACK layout)
    tau: np.ndarray
    jpvt: np.ndarray    # geqp3's 1-based column pivots

    @property
    def perm(self) -> np.ndarray:
        """The 0-based column permutation."""
        return self.jpvt.astype(np.intp) - 1

    @property
    def rdiag(self) -> np.ndarray:
        """|diag(R)|."""
        return np.abs(self.qr.diagonal())


def qr_factor(a: np.ndarray, overwrite_a: bool = False) -> QrFactors:
    """Pivoted QR of ``a``, which is left unchanged unless ``overwrite_a``.

    With ``overwrite_a`` true, a Fortran-ordered complex128 ``a`` is
    factored in place and becomes ``qr``; any other ``a`` is copied first.
    """
    qr, jpvt, tau, _work, info = _geqp3(a, overwrite_a=overwrite_a)
    if info != 0:
        raise LinalgError(f"geqp3 failed with info={info}")
    return QrFactors(qr, tau, jpvt)


def _q_star(factors: QrFactors, y: np.ndarray) -> np.ndarray:
    """Q* y as a k x 1 column."""
    c, _work, info = _unmqr("L", "C", factors.qr, factors.tau, y.reshape(-1, 1), 1)
    if info != 0:
        raise LinalgError(f"unmqr failed with info={info}")
    return c


def qr_solve(factors: QrFactors, y: np.ndarray) -> np.ndarray:
    """R^-1 Q* y, the full-rank solve, as a k x 1 column z in pivoted order.

    ``x[perm] = z[:, 0]`` gives the solution x of A x = y.
    """
    z, info = _trtrs(factors.qr, _q_star(factors, y), lower=0, overwrite_b=1)
    if info != 0:
        raise LinalgError(f"triangular solve failed with info={info}")
    return z


def qr_apply(factors: QrFactors, y: np.ndarray, threshold: float | None = None):
    """Truncated solve from an existing pivoted QR factorization.

    The numerical rank l is decided from |diag R| by ``retained``'s rule.
    For l < k the retained rows are written [R11 R12] = [T 0] Z with Z
    unitary, and Z* [T^-1 c_l; 0] is the minimum-norm solution of that
    l x k system.
    """
    qr = factors.qr
    k = qr.shape[0]
    rank = _rank(factors.rdiag, threshold)
    x = np.zeros(k, dtype=np.complex128)
    if rank == 0:
        return x, 0
    if rank == k:
        z = qr_solve(factors, y)
    else:  # tzrzf copies the rows and reads only their upper trapezoid
        c = _q_star(factors, y)
        t, ztau, info_tz = _tzrzf(qr[:rank])
        w, info_tr = _trtrs(t[:, :rank], c[:rank], lower=0)
        c[:rank], c[rank:] = w, 0.0
        z, info = _unmrz(t, ztau, c, trans="C", overwrite_c=1)
        if info_tz or info_tr or info:
            raise LinalgError(f"complete orthogonal solve failed with info="
                              f"{info_tz} (tzrzf), {info_tr} (trtrs), {info} (unmrz)")
    x[factors.perm] = z[:, 0]
    return x, rank
