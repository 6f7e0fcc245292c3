"""Shared test utilities, including independent solve/eval oracles.

The elimination solver here is deliberately hand-rolled (no numpy.linalg)
so that linear-algebra tests check the package against something that
shares none of its code path.
"""

import numpy as np


def gauss_solve(a, y):
    """Solve A x = y by Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=complex)
    x = np.array(y, dtype=complex)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            x[[col, pivot]] = x[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            x[row] -= factor * x[col]
    for col in range(n - 1, -1, -1):
        x[col] = (x[col] - a[col, col + 1:] @ x[col + 1:]) / a[col, col]
    return x


def random_unitary(rng, n):
    """Unitary matrix from orthonormalizing a random complex matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def cheb_t(n, x):
    """Chebyshev polynomial T_n by the trig definition (test oracle)."""
    x = np.asarray(x, dtype=float)
    return np.cos(n * np.arccos(np.clip(x, -1.0, 1.0)))


def panel_bits(v):
    """A panel value's bits, or the name of its type (PanelError, NoneType)."""
    if isinstance(v, complex):
        return v.real.hex(), v.imag.hex()
    return type(v).__name__


def record_passes(solve, panels):
    """A solve-ahead pass ``solve(intervals) -> (values, nevals)`` that also
    records the bits of each interval's three panels in ``panels``; an
    interval solved twice in one run fails the test."""

    def recorded(intervals):
        values, nevals = solve(intervals)
        for j, (lo, hi) in enumerate(intervals):
            assert (lo, hi) not in panels, (lo, hi)
            panels[lo, hi] = [panel_bits(v) for v in values[3 * j:3 * j + 3]]
        return values, nevals

    return recorded
