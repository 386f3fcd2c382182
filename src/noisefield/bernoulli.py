"""Infinite Bernoulli convolutions: the random series  X = sum_k eps_k lam^k.

Fair +-1 coins come from the deterministic coordinate streams, so every
sample is replayable and two series with different ratios can be coupled on
one coin stream.  ``sample`` reduces each row's packed coin words through
per-byte tables of signed weight sums (``streams.sign_sums``, stream version
3): for lam = 1/2 every partial sum is exact, for other lam the sums are
regrouped and may move in the last bits from a term-by-term sum.
``coupled_samples`` still reduces a +-1 matrix, which its several weight
vectors share, one ``streams._row_tiles`` tile at a time.
Closed forms implemented here: the covariance lam*rho/(1 - lam*rho) of
coupled series, the cosine-product transform prod_n cos(lam^n t), and the
geometric coefficient embedding into the zero-at-origin Hardy space.
Statistical outputs (histogram and Fourier-inversion density estimates, the
scaling-law residual, the square-integrability proxy curve) carry explicit
truncation parameters.

Every Fourier inversion of the cosine product, here and in
``measures.BernoulliMeasure``, runs through one kernel, ``_fourier_sums``:
sums of kern_j e^{i x t_j}, with an evenly spaced grid read as anchor points
plus multiples of its step, one (anchor rows) x (shift rows) complex product
per node tile.  Its memory is two fixed blocks, refilled in place for every
tile, whatever the number of points and nodes.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature, streams

_INVERSION_NODES = 12  # Gauss nodes per panel of the Fourier-inversion density
_PROXY_NODES = 8  # Gauss nodes per panel of the square-integrability proxy
# Anchor rows per block of ``_fourier_sums``: with the node tile this bounds
# its memory to a 2 MB (rows x tile) complex block whatever the number of
# points.
_INVERSION_ROWS = 64
# On a uniform grid the inversion reads s points per anchor row and walks the
# quadrature nodes in tiles.  Measured at lambda = 3/4 on the 513 points of
# one ``BernoulliMeasure`` integral (32000 nodes), one BLAS thread, best of 5:
# s = 32 and 2048-node tiles take 46 ms (s = 16: 51 ms, s = 48: 77 ms;
# 1024-node tiles: 71 ms, 8192: 71 ms), where one sine per (point, node) took
# 0.30 s.
_INVERSION_SHIFTS = 32
_INVERSION_TILE = 2048


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
        out = np.empty((m, len(lams)))
        for r, rows, coins, product in streams._row_tiles(m, K, float, float):
            coins = streams.sign_matrix(stream_id, rows, K, row + r, out=coins)
            for col, p in enumerate(powers.T):
                streams.row_dot(coins, p, out[r : r + rows, col], product)
        return out

    return streams.emit_rows(np.empty((n, len(lams))), 0, block)


def fourier_transform(lam: float, t, n_factors: int):
    """prod_{k<=n} cos(lam^k t) and the tail bound sum_{k>n} (lam^k t)^2 / 2.

    The product is taken in place, factor by factor in order of k, and each
    factor's argument and cosine in one reused buffer: a large t given fresh
    arrays per factor gets fresh pages from the allocator, faulted in on every
    factor.  A scalar t gives a scalar product.
    """
    if n_factors < 1:
        raise ValueError("need at least one factor")
    t = np.asarray(t, dtype=float)
    out, arg = np.ones_like(t), np.empty_like(t)
    for k in range(1, n_factors + 1):
        out *= np.cos(np.multiply(lam**k, t, out=arg), out=arg)
    tail = (np.asarray(t) ** 2) * lam ** (2 * (n_factors + 1)) / (2.0 * (1.0 - lam**2))
    return out[()], tail


def _cutoff_panels(lam, cutoff, name):
    """Product terms and panel edges of a cosine-product integral over [0, cutoff].

    The product keeps the terms with lam^n cutoff above 1e-8; the panels are
    max(2 cutoff, 64) equal pieces of [0, cutoff].
    """
    if not (cutoff > 0.0 and math.isfinite(2.0 * cutoff)):
        raise ValueError(f"{name} must be positive with 2 {name} finite, got {cutoff}")
    n0 = int(math.ceil(math.log(cutoff / 1e-8) / math.log(1.0 / lam)))
    return n0, np.linspace(0.0, cutoff, max(int(2 * cutoff), 64) + 1)


def _unit_phases(x, t, buf):
    """e^{i x_a t_j} as a (len(x), len(t)) view of buf; the values of exp(1j * outer(x, t)).

    Filling one buffer in place keeps the tile loop free of fresh
    allocations: at 2 MB per block, those came back from the allocator as new
    pages, one page fault per 4 kB on every tile.
    """
    out = buf[: len(x) * len(t)].reshape(len(x), len(t))
    out.real = 0.0
    np.multiply.outer(x, t, out=out.imag)
    return np.exp(out, out=out)


def _fourier_sums(t, kern, xs, step=None, split=None):
    """sum_j kern_j e^{i x t_j} at each point x of xs.

    With ``step``, xs is read as a uniform grid of that step: the sums are
    taken at the anchors x_a = xs[s a] plus b step, b < s =
    ``_INVERSION_SHIFTS``, and each node tile adds one complex product A B^T,
    with anchor rows A[a, j] = kern_j e^{i x_a t_j} and shift rows B[b, j] =
    e^{i b step t_j}, so the grid costs len(xs) / s + s rows of ``exp``
    instead of one per point.  Without it every point is its own anchor.  The
    nodes are walked in ``_INVERSION_TILE`` tiles and the anchors in
    ``_INVERSION_ROWS`` blocks, so no array grows with points x nodes.  With
    ``split``, the tile holding node ``split`` is cut there, and the sums over
    the first ``split`` nodes come back as the second value (else None).  x t
    rounds as it would in a sine or cosine per (point, node), but the
    summation order differs from such a direct sum.
    """
    xs = np.ravel(np.asarray(xs, dtype=float))
    s = 1 if step is None else _INVERSION_SHIFTS
    anchors = xs[::s]
    ends = {*range(_INVERSION_TILE, len(t), _INVERSION_TILE), len(t)}
    if split is not None:
        ends.add(split)
    ends = sorted(ends)
    shifts = (0.0 if step is None else step) * np.arange(s)
    full = np.zeros((len(anchors), s), dtype=complex)
    part = None if split is None else np.zeros_like(full)
    # one anchor block and one shift block, refilled for every tile
    width = min(_INVERSION_TILE, len(t))
    anchor_buf = np.empty(min(_INVERSION_ROWS, len(anchors)) * width, dtype=complex)
    shift_buf = np.empty(s * width, dtype=complex)
    for i in range(0, len(anchors), _INVERSION_ROWS):
        rows = slice(i, i + _INVERSION_ROWS)
        j0 = 0
        for j1 in ends:
            tile = t[j0:j1]
            anchor = _unit_phases(anchors[rows], tile, anchor_buf)
            anchor *= kern[j0:j1]
            full[rows] += anchor @ _unit_phases(shifts, tile, shift_buf).T
            if j1 == split:
                part[rows] = full[rows]
            j0 = j1
    n = len(xs)
    return full.ravel()[:n], None if part is None else part.ravel()[:n]


def _grid_step(xs):
    """The step of xs when its points lie on an even grid to a few ulps, else None."""
    if len(xs) < 2:
        return None
    step = (xs[-1] - xs[0]) / (len(xs) - 1)
    off = xs - (xs[0] + step * np.arange(len(xs)))
    return step if np.max(np.abs(off)) <= 8 * np.spacing(np.max(np.abs(xs))) else None


def inversion_density(lam: float, xs, cutoff: float = 200.0) -> np.ndarray:
    """Density estimate from inverting the cosine product over |t| <= cutoff.

    (1/pi) sum_j w_j phi(t_j) cos(x t_j) over the Gauss nodes of [0, cutoff],
    from ``_fourier_sums``.  Evenly spaced xs (such as histogram bin centers)
    are read as a grid of step (xs[-1] - xs[0]) / (len(xs) - 1), other
    points one by one.
    """
    xs = np.ravel(np.asarray(xs, dtype=float))
    n0, edges = _cutoff_panels(lam, cutoff, "cutoff")
    tq, wq = quadrature.panel_rule(edges, _INVERSION_NODES)
    chf, _ = fourier_transform(lam, tq, n0)
    chf *= wq
    sums, _ = _fourier_sums(tq, chf, xs, _grid_step(xs))
    return sums.real / np.pi


def histogram_density(samples: np.ndarray, radius: float, bin_width: float):
    """(centers, density) over (-radius, radius] bins of the given width."""
    n_bins = int(round(2.0 * radius / bin_width))
    edges = np.linspace(-radius, radius, n_bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts / (len(samples) * bin_width)


def density_estimate(bc: BernoulliConvolution, n: int, bin_width: float = 0.01, cutoff: float = 200.0):
    """Histogram and Fourier-inversion densities on one bin-center grid.

    ``bin_width`` is rounded to a whole number of bins; the inversion reads
    the centers as a grid of the bins' own spacing.
    """
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
