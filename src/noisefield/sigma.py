"""The Hilbert space of (function, measure) pairs f sqrt(d mu).

Two pairs are identified when f1 sqrt(d mu1/d lam) = f2 sqrt(d mu2/d lam)
lam-a.e. for the dominating measure lam = mu1 + mu2; the inner product is

    <F1, F2> = integral f1 f2 sqrt((d mu1/d lam)(d mu2/d lam)) d lam,

which this module evaluates through the measures' decomposition into density,
atomic, and singular components: mutually singular components contribute
nothing, matched components pair up exactly.  Sums and the equivalence test
take d mu/d lam from ``measures`` and read it as 0 where lam vanishes.

Almost-everywhere statements are decided on a canonical grid (default 2048
points, attractor anchors for singular kinds) plus every atom.

``SigmaLift`` realizes the classes of a finite family of measures as centered
Gaussian variables on the shared coordinate space.  The family's dominating
sum lam gets one regular block, built by the ``bases`` rule for a measure's
density and atoms (``bases.regular_basis``), and one Walsh block for each
distinct singular base.  A class's regular coefficients are that basis's
inner coefficients of its representative over lam, x -> f(x) sqrt(d mu/d
lam)(x), so on a one-measure family without singular part the lift is the
Ito map of ``noise.GaussianNoiseField``.  Equivalent pairs receive identical
coefficient sequences, hence identical lifts per sample point at any
truncation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import quadrature, streams
from .bases import PiecewiseBasis, WalshBasis, regular_basis
from .measures import (
    SigmaFiniteMeasure,
    _radon_nikodym,
    _regular_derivative,
    _same_singular,
    sum_measure,
)
from .sets import BorelSet

_EQUIV_TOL = 1e-9
_WALSH_DEPTH = 10  # each singular base's Walsh block has 2**_WALSH_DEPTH functions


class SigmaFunction:
    """A representative (f, mu) of the class f sqrt(d mu)."""

    def __init__(self, f, mu: SigmaFiniteMeasure, grid=None):
        if not callable(f):
            raise TypeError("representative must be callable")
        self.f = f
        self.mu = mu
        self.grid = np.asarray(grid, dtype=float) if grid is not None else mu.canonical_grid()

    def __repr__(self):
        return f"SigmaFunction(mu={self.mu.kind})"


def _breakpoints(*measures):
    pts = set()
    for m in measures:
        lo, hi = m.support_hull()
        if math.isfinite(lo) and math.isfinite(hi):
            pts.update((lo, hi))
    return sorted(pts)


def inner_product(F1: SigmaFunction, F2: SigmaFunction) -> float:
    """<f1 sqrt(d mu1), f2 sqrt(d mu2)> via the component decomposition."""
    mu1, mu2 = F1.mu, F2.mu
    total = 0.0
    w1, w2 = mu1.density_fn(), mu2.density_fn()
    if w1 is not None and w2 is not None:
        pts = _breakpoints(mu1, mu2)
        for a, b in zip(pts[:-1], pts[1:]):
            xq, wq = quadrature.nodes_weights(a, b, 256)
            vals = (
                np.asarray(F1.f(xq), dtype=float)
                * np.asarray(F2.f(xq), dtype=float)
                * np.sqrt(
                    np.asarray(w1(xq), dtype=float) * np.asarray(w2(xq), dtype=float)
                )
            )
            total += float(vals @ wq)
    for x, m1 in mu1.atoms():
        m2 = mu2.atom_mass_at(x)
        if m2 > 0:
            f1 = float(np.asarray(F1.f(np.array([x]))).ravel()[0])
            f2 = float(np.asarray(F2.f(np.array([x]))).ravel()[0])
            total += f1 * f2 * math.sqrt(m1 * m2)
    for base1, c1 in mu1.singular_parts():
        for base2, c2 in mu2.singular_parts():
            if _same_singular(base1, base2):
                val, _ = base1.integrate(
                    lambda x: np.asarray(F1.f(x), dtype=float) * np.asarray(F2.f(x), dtype=float)
                )
                total += math.sqrt(c1 * c2) * float(val)
    return total


def _representative(F: SigmaFunction, lam, derivative=_radon_nikodym):
    """x -> f(x) sqrt(d mu/d lam)(x), the derivative read as 0 where lam vanishes."""
    rn = derivative(F.mu, lam)

    def rep(x):
        x = np.asarray(x, dtype=float)
        r = np.nan_to_num(rn(x), nan=0.0, posinf=np.inf, neginf=-np.inf)
        return np.asarray(F.f(x), dtype=float) * np.sqrt(r)

    return rep


def add(F1: SigmaFunction, F2: SigmaFunction) -> SigmaFunction:
    """Representative of the sum over the dominating measure lam = mu1 + mu2."""
    lam = sum_measure(F1.mu, F2.mu)
    g1, g2 = _representative(F1, lam), _representative(F2, lam)
    grid = np.unique(np.concatenate([F1.grid, F2.grid]))
    return SigmaFunction(lambda x: g1(x) + g2(x), lam, grid=grid)


def equivalence_residual(F1: SigmaFunction, F2: SigmaFunction) -> float:
    """max over the grid of |f1 sqrt(d mu1/d lam) - f2 sqrt(d mu2/d lam)|, lam = mu1 + mu2."""
    lam = sum_measure(F1.mu, F2.mu)
    grid = np.unique(
        np.concatenate(
            [F1.grid, F2.grid, np.asarray([x for x, _ in lam.atoms()], dtype=float)]
        )
    )
    return float(np.max(np.abs(_representative(F1, lam)(grid) - _representative(F2, lam)(grid))))


def equivalent(F1: SigmaFunction, F2: SigmaFunction, tol: float = _EQUIV_TOL) -> bool:
    """Grid test of f1 sqrt(d mu1/d lam) = f2 sqrt(d mu2/d lam), lam = mu1 + mu2."""
    return equivalence_residual(F1, F2) <= tol


# -- lifting to the Gaussian coordinate space -----------------------------------


class SigmaLift:
    """Gaussian realization of sigma-function classes over a finite measure family.

    Coefficients are taken against the family's dominating sum lam: the
    regular block is ``bases.regular_basis`` of lam's density and atom parts
    (``J_density`` density functions, one per atom), and F's coefficients
    there are that basis's inner coefficients of F's representative over
    lam, x -> f(x) sqrt(d mu/d lam)(x).  Every distinct singular base gets
    its own Walsh block on fresh coordinates.
    """

    def __init__(self, measures, J_density: int = 64):
        self.measures = list(measures)
        if not self.measures:
            raise ValueError("need at least one measure")
        self._lam = functools.reduce(sum_measure, self.measures)
        has_density = self._lam.density_fn() is not None
        self._regular_J = J_density * has_density + len(self._lam.atoms())
        self._regular = regular_basis(self._lam, self._regular_J) if self._regular_J else None
        self._singular = [
            (base, WalshBasis(base, depth=_WALSH_DEPTH))
            for base, _ in self._lam.singular_parts()
        ]
        self.total_J = self._regular_J + len(self._singular) * 2**_WALSH_DEPTH

    def coefficients(self, F: SigmaFunction) -> np.ndarray:
        out = np.zeros(self.total_J)
        if self._regular is not None:
            rep = _representative(F, self._lam, _regular_derivative)
            out[: self._regular_J] = self._regular.inner_coefficients(rep, self._regular_J)
        offset = self._regular_J
        for base, basis in self._singular:
            for part, scale in F.mu.singular_parts():
                if _same_singular(part, base):
                    c = basis.inner_coefficients(F.f, basis.size)
                    out[offset : offset + basis.size] = math.sqrt(scale) * c
            offset += basis.size
        return out

    def lift(self, F: SigmaFunction, xi) -> float:
        coords = xi.coords if hasattr(xi, "coords") else np.asarray(xi, dtype=float)
        if len(coords) < self.total_J:
            raise ValueError(f"need {self.total_J} coordinates, got {len(coords)}")
        return float(self.coefficients(F) @ coords[: self.total_J])

    def lift_samples(self, F: SigmaFunction, n: int, stream_id, first: int = 0) -> np.ndarray:
        c = self.coefficients(F)
        c[np.abs(c) <= 1e-15 * max(np.abs(c).max(), 1e-300)] = 0.0
        return streams.linear_samples(stream_id, n, c, first)


def lift(F: SigmaFunction, xi, J_density: int = 64) -> float:
    """One-measure convenience wrapper around SigmaLift."""
    return SigmaLift([F.mu], J_density=J_density).lift(F, xi)


# -- correlated copies ------------------------------------------------------------


class CorrelatedPair:
    """Two jointly Gaussian noise fields with prescribed correlation density.

    The correlation function f must be piecewise constant with |f| <= 1 on a
    declared partition; the partition's piecewise basis diagonalizes
    multiplication by f, so the second field's coordinates can be mixed
    coordinate-by-coordinate:  xi'_j = rho_j xi_j + sqrt(1 - rho_j^2) eta_j.
    Marginally both fields have covariance mu(A intersect B); across the pair
    E[W1_A W2_B] = integral_{A cap B} f d mu.
    """

    def __init__(self, mu, piece_values, edges, stream_id, per_piece: int = 8):
        vals = np.asarray(piece_values, dtype=float)
        if np.any(np.abs(vals) > 1.0 + 1e-12):
            raise ValueError("correlation function must satisfy |f| <= 1")
        self.basis = PiecewiseBasis(mu, edges, per_piece=per_piece)
        self.rho = self.basis.multiplier_eigenvalues(vals)
        self.J = self.basis.size
        self.mu = mu
        self._xi_id = streams.child_stream(stream_id, 0)
        self._eta_id = streams.child_stream(stream_id, 1)

    def sample_pair(self, A: BorelSet, n: int, first: int = 0):
        c = self.basis.indicator_coefficients(A, self.J)

        def block(row, m):
            xi = streams.normal_matrix(self._xi_id, m, self.J, row)
            eta = streams.normal_matrix(self._eta_id, m, self.J, row)
            mixed = self.rho[None, :] * xi + np.sqrt(1.0 - self.rho**2)[None, :] * eta
            return np.column_stack([streams.row_dot(xi, c), streams.row_dot(mixed, c)])

        pair = streams.emit_rows(np.empty((n, 2)), first, block)
        return tuple(pair.T.copy())

    def cross_covariance_target(self, A: BorelSet) -> float:
        total = 0.0
        for (_, (a, b), _), val in zip(self.basis.blocks, self.rho[:: self.basis.per_piece]):
            piece_A = A.clip(a, b)
            if not piece_A.is_empty:
                total += val * self.mu.measure_of(piece_A)
        return total


def correlated_pair(mu, piece_values, edges, stream_id, per_piece: int = 8) -> CorrelatedPair:
    return CorrelatedPair(mu, piece_values, edges, stream_id, per_piece=per_piece)
