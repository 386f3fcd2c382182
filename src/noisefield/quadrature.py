"""Gauss-Legendre quadrature helpers shared across the package.

The rules of the sizes the library uses, ``_TABULATED``, are read from
``gauss_legendre.npy`` beside this module: one float64 array holding, for
each size n in order, the n nodes and then the n weights of
``numpy.polynomial.legendre.leggauss(n)``.  The file was written by

    np.save(path, np.concatenate([np.concatenate(leggauss(n)) for n in _TABULATED]))

with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64.  ``leggauss`` runs a dense
symmetric eigensolve: 37 ms for these eight sizes, paid again by every
process (one BLAS thread, 2 cores), where the file reads in 0.4 ms, on the
first ``_rule`` call rather than at import.  The stored bits are also the
same on every host, where LAPACK's may not be.  Any other size goes to
``leggauss``.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

_TABULATED = (8, 12, 24, 32, 64, 128, 256, 512)
_TABLE_PATH = os.path.join(os.path.dirname(__file__), "gauss_legendre.npy")


@lru_cache(maxsize=None)
def _table():
    """{n: (nodes, weights)} for every tabulated n, each its own array."""
    flat, rules, start = np.load(_TABLE_PATH), {}, 0
    for n in _TABULATED:
        rules[n] = flat[start : start + n].copy(), flat[start + n : start + 2 * n].copy()
        start += 2 * n
    if start != flat.size:
        raise ValueError(f"{_TABLE_PATH} holds {flat.size} values, not {start}")
    return rules


@lru_cache(maxsize=None)
def _rule(n: int):
    if n in _TABULATED:
        return _table()[n]
    return np.polynomial.legendre.leggauss(n)


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
