"""Gauss-Legendre quadrature helpers shared across the package."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def nodes_weights(a: float, b: float, n: int = 64):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = _rule(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def integrate(f, a: float, b: float, n: int = 64):
    """Integral of ``f`` over [a, b] with an error estimate by node doubling."""
    if not (b > a):
        return 0.0, 0.0
    x1, w1 = nodes_weights(a, b, n)
    x2, w2 = nodes_weights(a, b, 2 * n)
    v1 = float(w1 @ np.asarray(f(x1), dtype=float))
    v2 = float(w2 @ np.asarray(f(x2), dtype=float))
    return v2, abs(v2 - v1)


def panel_rule(edges, n: int):
    """Composite Gauss-Legendre nodes and weights over consecutive [edges[k], edges[k+1]].

    The n nodes of each panel are contiguous, panel after panel.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _rule(n)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


def integrate_panels(f, edges: np.ndarray, n: int = 32) -> float:
    """Composite Gauss-Legendre over consecutive [edges[k], edges[k+1]] panels.

    ``f`` receives the (panels, n) array of nodes.
    """
    X, W = (a.reshape(-1, n) for a in panel_rule(edges, n))
    return float((np.asarray(f(X), dtype=float) * W).sum())
