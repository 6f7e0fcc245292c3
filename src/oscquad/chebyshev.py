"""Chebyshev extremal grids, interpolation and spectral differentiation.

The collocation machinery in this package works on the k-point grid of
Chebyshev extremal nodes (the Chebyshev-Lobatto grid, endpoints included).
This module builds the grid, the associated spectral differentiation
matrix, and the value-to-coefficient transform, all on the reference
interval [-1, 1].

Grids are immutable and cached per order k; construction is idempotent, so
concurrent first use from several threads is safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChebGrid:
    """Precomputed k-point extremal Chebyshev grid on [-1, 1].

    Attributes
    ----------
    k : int
        Collocation order (number of nodes), at least 2.
    nodes : ndarray, shape (k,)
        Extremal Chebyshev nodes in ascending order.  The endpoints are
        exactly -1 and +1 and the grid is antisymmetric about 0.
    diff : ndarray, shape (k, k)
        Spectral differentiation matrix: maps values of a polynomial of
        degree < k at the nodes to values of its derivative at the nodes.
    """

    k: int
    nodes: np.ndarray
    diff: np.ndarray


def cheb_nodes(k: int) -> np.ndarray:
    """Return the k extremal Chebyshev nodes cos(pi*(k-j)/(k-1)), ascending.

    The trigonometric values at the ends are snapped to exactly -1 and +1,
    and the grid is symmetrized so that nodes[j] == -nodes[k-1-j] exactly;
    endpoint values feed directly into antiderivative differences, so
    spurious last-bit asymmetry is worth removing.
    """
    if k < 2:
        raise ValueError(f"collocation order must be >= 2, got {k}")
    j = np.arange(1, k + 1)
    x = np.cos(np.pi * (k - j) / (k - 1.0))
    x[0] = -1.0
    x[-1] = 1.0
    return 0.5 * (x - x[::-1])  # the middle node of odd k is x - x = +0.0


def diff_matrix(k: int) -> np.ndarray:
    """Build the k x k spectral differentiation matrix on the extremal grid.

    Uses the closed-form off-diagonal entries with endpoint weights 2 and
    the negated-row-sum trick for the diagonal, which makes the matrix
    annihilate constants to machine precision.  Differentiation of any
    polynomial of degree < k sampled at the nodes is exact to roundoff.
    """
    if k < 2:
        raise ValueError(f"collocation order must be >= 2, got {k}")
    x = cheb_nodes(k)
    c = np.ones(k)
    c[0] = 2.0
    c[-1] = 2.0
    idx = np.arange(k)
    sign = (-1.0) ** (idx[:, None] + idx[None, :])
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d = (c[:, None] / c[None, :]) * sign / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Coefficients a_0..a_{k-1} of the degree-<k interpolant through samples.

    ``values`` are samples at ``cheb_nodes(k)`` in ascending node order.
    The transform is the discrete Chebyshev orthogonality sum in which the
    first and last terms carry weight 1/2, with the n = 0 and n = k-1
    coefficients halved relative to the interior ones.  A direct O(k^2)
    sum is used; the orders in play here are far too small for an FFT to
    pay off.
    """
    values = np.asarray(values)
    k = values.shape[0]
    if k < 2:
        raise ValueError("need at least 2 samples")
    # T_n(x_j) = cos(n * theta_j) with theta_j = pi*(k-j)/(k-1), ascending x
    theta = np.pi * np.arange(k - 1, -1, -1) / (k - 1.0)
    tmat = np.cos(np.outer(np.arange(k), theta))  # tmat[n, j] = T_n(x_j)
    w = np.ones(k)
    w[0] = 0.5
    w[-1] = 0.5
    coeffs = (2.0 / (k - 1.0)) * (tmat @ (w * values))
    coeffs[0] *= 0.5
    coeffs[-1] *= 0.5
    return coeffs


@functools.cache
def grid(k: int = 12) -> ChebGrid:
    """Return the ChebGrid of order k, built on first use and cached."""
    g = ChebGrid(k=k, nodes=cheb_nodes(k), diff=diff_matrix(k))
    g.nodes.setflags(write=False)
    g.diff.setflags(write=False)
    return g
