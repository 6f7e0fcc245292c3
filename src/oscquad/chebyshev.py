"""Chebyshev extremal grids, interpolation and spectral differentiation.

The collocation machinery in this package works on the k-point grid of
Chebyshev extremal nodes (the Chebyshev-Lobatto grid, endpoints included).
This module builds the grid, the associated spectral differentiation
matrix, and the value-to-coefficient map, all on the reference interval
[-1, 1].

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
    coeffs : ndarray, shape (k, k)
        Maps values at the nodes to the Chebyshev coefficients a_0..a_{k-1}
        of the degree-<k interpolant: the inverse of the Chebyshev
        Vandermonde matrix T_n(nodes[j]).
    """

    k: int
    nodes: np.ndarray
    diff: np.ndarray
    coeffs: np.ndarray


def cheb_nodes(k: int) -> np.ndarray:
    """Return the k extremal Chebyshev nodes cos(pi*(k-j)/(k-1)), ascending.

    The trigonometric values at the ends are snapped to exactly -1 and +1,
    and the grid is symmetrized so that nodes[j] == -nodes[k-1-j] exactly;
    endpoint values feed directly into antiderivative differences, so
    spurious last-bit asymmetry is worth removing.
    """
    if not (hasattr(k, "__index__") and k >= 2):  # an integer, as operator.index takes
        raise ValueError(f"collocation order must be an integer >= 2, got {k!r}")
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
    ``cheb_nodes`` rejects a k that is not an integer >= 2.
    """
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
    """Coefficients a_0..a_{k-1} of the degree-<k interpolant through samples
    at ``cheb_nodes(k)``, ascending, by the cached map of ``grid(k)``."""
    return grid(len(values)).coeffs @ values


@functools.cache
def grid(k: int = 12) -> ChebGrid:
    """Return the ChebGrid of order k, built on first use and cached."""
    nodes = cheb_nodes(k)
    coeffs = np.linalg.inv(np.polynomial.chebyshev.chebvander(nodes, k - 1))
    g = ChebGrid(k=k, nodes=nodes, diff=diff_matrix(k), coeffs=coeffs)
    for table in (g.nodes, g.diff, g.coeffs):
        table.setflags(write=False)
    return g
