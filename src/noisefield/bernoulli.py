"""Infinite Bernoulli convolutions: the random series  X = sum_k eps_k lam^k.

Fair +-1 coins come from the deterministic coordinate streams, so every
sample is replayable and two series with different ratios can be coupled on
one coin stream.  ``sample`` reduces each row's packed coin words through
per-byte tables of signed weight sums (``streams.sign_sums``, stream version
3): for lam = 1/2 every partial sum is exact, for other lam the sums are
regrouped and may move in the last bits from a term-by-term sum.
``coupled_samples`` still reduces a +-1 matrix, which its several weight
vectors share.  Closed forms implemented here: the covariance
lam*rho/(1 - lam*rho) of coupled series, the cosine-product transform
prod_n cos(lam^n t), and the geometric coefficient embedding into the
zero-at-origin Hardy space.  Statistical outputs (histogram and
Fourier-inversion density estimates, the scaling-law residual, the
square-integrability proxy curve) carry explicit truncation parameters.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature, streams

_INVERSION_NODES = 12  # Gauss nodes per panel of the Fourier-inversion density
_PROXY_NODES = 8  # Gauss nodes per panel of the square-integrability proxy


def _series_terms(lam) -> int:
    """Number K of series terms drawn: the first K with lam^K below 1e-14, at least 4."""
    return max(4, int(math.ceil(math.log(1e-14) / math.log(lam))))

class BernoulliConvolution:
    def __init__(self, lam: float, stream_id=0):
        if not 0.0 < lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")
        self.lam = float(lam)
        self.stream_id = stream_id
        self.K = _series_terms(lam)
        self._histogram = None  # (key, density) of the last ``_density_histogram`` call

    @property
    def support_radius(self) -> float:
        return self.lam / (1.0 - self.lam)

    def variance(self) -> float:
        return self.lam**2 / (1.0 - self.lam**2)

    def sample(self, n: int, first: int = 0, stream_id=None) -> np.ndarray:
        """n independent draws; sample index addresses its own coin row."""
        sid = self.stream_id if stream_id is None else stream_id
        weights = self.lam ** np.arange(1, self.K + 1)
        return streams.emit_rows(np.empty(n), first, streams.sign_sums(sid, weights))

    def _density_histogram(self, n: int, bin_width: float) -> np.ndarray:
        """Histogram density of the first n draws; the last one is kept, so reuses draw once."""
        key = (self.lam, self.stream_id, n, bin_width)
        if self._histogram is None or self._histogram[0] != key:
            _, dens = histogram_density(self.sample(n), self.support_radius, bin_width)
            self._histogram = key, dens
        return self._histogram[1]


def covariance(lam: float, rho: float) -> float:
    """E[X_lam X_rho] for series sharing one coin stream."""
    if not (0.0 < lam < 1.0 and 0.0 < rho < 1.0):
        raise ValueError("parameters must lie in (0, 1)")
    return lam * rho / (1.0 - lam * rho)


def coupled_samples(lams, n: int, stream_id) -> np.ndarray:
    """(n, len(lams)) draws of the series, all columns on one coin stream."""
    lams = np.asarray(lams, dtype=float)
    K = _series_terms(lams.max())
    powers = lams[None, :] ** np.arange(1, K + 1)[:, None]  # (K, m)

    def block(row, m):
        coins = streams.sign_matrix(stream_id, m, K, row)
        return np.column_stack([streams.row_dot(coins, p) for p in powers.T])

    return streams.emit_rows(np.empty((n, len(lams))), 0, block)


def fourier_transform(lam: float, t, n_factors: int):
    """prod_{k<=n} cos(lam^k t) and the tail bound sum_{k>n} (lam^k t)^2 / 2."""
    if n_factors < 1:
        raise ValueError("need at least one factor")
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    for k in range(1, n_factors + 1):
        out = out * np.cos(lam**k * t)
    tail = (np.asarray(t) ** 2) * lam ** (2 * (n_factors + 1)) / (2.0 * (1.0 - lam**2))
    return out, tail


def _cutoff_panels(lam, cutoff, name):
    """Product terms and panel edges of a cosine-product integral over [0, cutoff].

    The product keeps the terms with lam^n cutoff above 1e-8; the panels are
    max(2 cutoff, 64) equal pieces of [0, cutoff].
    """
    if not (cutoff > 0.0 and math.isfinite(2.0 * cutoff)):
        raise ValueError(f"{name} must be positive with 2 {name} finite, got {cutoff}")
    n0 = int(math.ceil(math.log(cutoff / 1e-8) / math.log(1.0 / lam)))
    return n0, np.linspace(0.0, cutoff, max(int(2 * cutoff), 64) + 1)


def inversion_density(lam: float, xs, cutoff: float = 200.0) -> np.ndarray:
    """Density estimate from inverting the cosine product over |t| <= cutoff."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n0, edges = _cutoff_panels(lam, cutoff, "cutoff")
    tq, wq = quadrature.panel_rule(edges, _INVERSION_NODES)
    chf, _ = fourier_transform(lam, tq, n0)
    return np.cos(np.outer(xs, tq)) @ (wq * chf) / np.pi


def histogram_density(samples: np.ndarray, radius: float, bin_width: float):
    """(centers, density) over (-radius, radius] bins of the given width."""
    n_bins = int(round(2.0 * radius / bin_width))
    edges = np.linspace(-radius, radius, n_bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts / (len(samples) * bin_width)


def density_estimate(bc: BernoulliConvolution, n: int, bin_width: float = 0.01, cutoff: float = 200.0):
    """Histogram and Fourier-inversion densities on one bin-center grid."""
    radius = bc.support_radius
    samples = bc.sample(n)
    centers, hist = histogram_density(samples, radius, bin_width)
    inv = inversion_density(bc.lam, centers, cutoff)
    return centers, hist, inv


def scaling_identity_residual(
    bc: BernoulliConvolution, n: int, bin_width: float = 0.01, weight: float = 0.5
) -> float:
    """L1-on-grid residual of D(lam x) = (weight/lam) [D(x+1) + D(x-1)].

    The density estimate is the histogram over n samples, extended by zero
    outside the support hull.  The Jacobian 1/lam balances total mass: both
    sides integrate (in x) to 1/lam when weight = 1/2.  Calls on one ``bc``
    with the same n and bin width share one draw and histogram.
    """
    lam = bc.lam
    radius = bc.support_radius
    dens = bc._density_histogram(n, bin_width)
    n_bins = len(dens)

    def lookup(x):
        x = np.asarray(x, dtype=float)
        idx = np.floor((x + radius) / bin_width).astype(int)
        ok = (idx >= 0) & (idx < n_bins)
        out = np.zeros_like(x)
        out[ok] = dens[idx[ok]]
        return out

    span = radius + 1.0
    xs = np.arange(-span + 0.5 * bin_width, span, bin_width)
    lhs = lookup(lam * xs)
    rhs = (weight / lam) * (lookup(xs + 1.0) + lookup(xs - 1.0))
    return float(np.sum(np.abs(lhs - rhs)) * bin_width)


def ac2_l2_proxy(lam: float, T: float) -> float:
    """integral_{-T}^{T} prod_n cos^2(lam^n t) dt, a square-integrability probe.

    Bounded in T exactly for the square-integrable densities; keeps growing
    for singular parameters.  Reported as a curve value, never a boolean.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    n0, edges = _cutoff_panels(lam, T, "T")

    def integrand(t):
        prod, _ = fourier_transform(lam, t, n0)
        return prod * prod

    return 2.0 * quadrature.integrate_panels(integrand, edges, _PROXY_NODES)


def hardy_coefficients(lam: float, n: int) -> np.ndarray:
    """Power-series coefficients (lam, lam^2, ..., lam^n) of the embedded kernel section."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if n < 1:
        raise ValueError("need at least one coefficient")
    return lam ** np.arange(1, n + 1)


def cross_term_bound_mc(bc: BernoulliConvolution, r: float, n: int, stream_id=None):
    """Monte Carlo check of |E[(X' - X) 1_{|X - X'| <= r}]| against Cauchy-Schwarz.

    Returns (estimate, standard error, bound) with
    bound = sqrt(2 Var X) * sqrt(P(|X - X'| <= r)).
    """
    sid = bc.stream_id if stream_id is None else stream_id

    def block(row, m):
        # the cross term in the real part, the indicator in the imaginary part
        x1, x2 = (bc.sample(m, row, streams.child_stream(sid, tag)) for tag in (0, 1))
        near = np.abs(x1 - x2) <= r
        return (x2 - x1) * near + 1j * near

    mean, (se, _) = streams.mc_mean(n, block)
    bound = math.sqrt(2.0 * bc.variance()) * math.sqrt(mean.imag)
    return mean.real, se, bound
