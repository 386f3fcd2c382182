"""Positive definite kernels with explicit feature families and their boundaries.

Each kernel ships a closed-form evaluator C(s, t) and a feature family
{phi_j} with  C(t, s) = sum_j phi_j(t) phi_j(s)*,  so the point embedding
tau(t) = (phi_j(t))_j, the metric identity

    ||tau(t) - tau(s)||^2 = C(t,t) - 2 Re C(t,s) + C(s,s),

and the associated coordinate process  X_t(xi) = sum_j xi_j phi_j(t)*  are
all computable at explicit truncations.  Implemented examples: the geometric
disk kernel 1/(1 - z w*), the path kernel min(s, t) on [0, 1] with its sine
feature family, the quartic-iteration product kernel on summable orbits, and
the exponential kernel  exp(mu(A n B) - (mu(A) + mu(B))/2)  on sets of finite
measure with its Monte Carlo isometry onto spans of exp(i W_A).

Complex scalars appear only in this module.
"""

from __future__ import annotations

import math

import numpy as np

from . import streams
from .bases import SineBasis
from .measures import SigmaFiniteMeasure
from .noise import GaussianNoiseField
from .sets import BorelSet

INSIDE = "inside"
ESCAPED = "escaped"
BUDGET_EXCEEDED = "budget-exceeded"
# julia_membership: orbit steps, escape radius, l1 budget of the orbit, and
# the contraction ratio that _TAIL_WINDOW consecutive steps must meet
_MEMBERSHIP_ITER = 64
_ESCAPE_RADIUS = 2.1
_L1_BUDGET = 1e6
_TAIL_RATIO = 0.9
_TAIL_WINDOW = 10
_JULIA_TILE = 1 << 16  # complex factors per product tile of JuliaProductKernel.gram


class PositiveDefiniteKernel:
    kind = "abstract"
    is_complex = False
    default_J = 128

    def evaluate(self, s, t):
        raise NotImplementedError

    def feature_block(self, ts, J) -> np.ndarray:
        """(len(ts), J) matrix of phi_j(t)."""
        raise NotImplementedError

    def gram(self, ts) -> np.ndarray:
        ts = list(ts)
        dtype = complex if self.is_complex else float
        G = np.empty((len(ts), len(ts)), dtype=dtype)
        for i, s in enumerate(ts):
            for j, t in enumerate(ts):
                G[i, j] = self.evaluate(s, t)
        return G


class SzegoKernel(PositiveDefiniteKernel):
    """C(z, w) = 1/(1 - z w*) on the open unit disk; features are the monomials."""

    kind = "szego"
    is_complex = True

    def evaluate(self, z, w):
        if abs(z) >= 1.0 or abs(w) >= 1.0:
            raise ValueError("points must lie strictly inside the unit disk")
        return 1.0 / (1.0 - z * np.conj(w))

    def feature_block(self, zs, J):
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        return zs[:, None] ** np.arange(J)[None, :]


class BrownianKernel(PositiveDefiniteKernel):
    """C(s, t) = min(s, t) on [0, 1]; features phi_0(t) = t, phi_k = sqrt2 sin(k pi t)/(k pi)."""

    kind = "brownian"
    default_J = 10_000

    def __init__(self):
        self._sine = SineBasis()

    def evaluate(self, s, t):
        if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
            raise ValueError("points must lie in [0, 1]")
        return min(s, t)

    def feature_block(self, ts, J):
        return self._sine.evaluate_block(ts, J)


def julia_orbit(z, n: int) -> np.ndarray:
    """(R_0(z), ..., R_{n-1}(z)) with R_0 the identity."""
    out = np.empty(n, dtype=complex)
    cur = complex(z)
    for k in range(n):
        out[k] = cur
        cur = cur**4 - 2.0 * cur**2
    return out


def julia_membership(z) -> str:
    """Trichotomy for the summable-orbit domain of the quartic iteration.

    "escaped" once the orbit leaves the escape radius 2.1 (beyond it the
    modulus grows monotonically since |R(z)| >= |z|^2 (|z|^2 - 2) > |z|);
    "inside" when the last 10 steps each contracted by 0.9, certifying a
    summable tail;  everything else, after 64 steps or once the orbit's l1
    sum passes 1e6, is reported as "budget-exceeded" rather than guessed.
    """
    cur = complex(z)
    partial = 0.0
    contractions = 0
    prev = None
    for _ in range(_MEMBERSHIP_ITER):
        mag = abs(cur)
        if mag > _ESCAPE_RADIUS:
            return ESCAPED
        partial += mag
        if partial > _L1_BUDGET:
            return BUDGET_EXCEEDED
        if prev is not None:
            if mag <= _TAIL_RATIO * prev + 1e-30:
                contractions += 1
                if contractions >= _TAIL_WINDOW:
                    return INSIDE
            else:
                contractions = 0
        prev = mag
        cur = cur**4 - 2.0 * cur**2
    return BUDGET_EXCEEDED


class JuliaProductKernel(PositiveDefiniteKernel):
    """C(z, w) = prod_n (1 + R_n(z) R_n(w)*) on summable orbits.

    Features are indexed by finite subsets of orbit positions: phi_S(z) =
    prod_{n in S} R_n(z) with S the bit pattern of the feature index, so the
    depth-m truncated feature sum reproduces the m-factor product exactly.
    """

    kind = "julia-product"
    is_complex = True
    default_J = 256

    def __init__(self, n_factors: int = 24):
        if not n_factors >= 1:
            raise ValueError(f"n_factors must be at least 1, not {n_factors}")
        self.n_factors = n_factors

    def require_member(self, z):
        verdict = julia_membership(z)
        if verdict != INSIDE:
            raise ValueError(f"point {z} is not a certified member (verdict: {verdict})")

    def evaluate(self, z, w):
        return complex(self.gram([z], [w])[0, 0])

    def gram(self, zs, ws=None) -> np.ndarray:
        """C(z, w) for each z of zs and w of ws (default zs), one orbit per member.

        Each entry is ``np.prod`` of its own row of factors.  A (1, n) orbit
        times a block of about ``_JULIA_TILE`` conjugate-orbit factors rounds
        as a lone pair's vectors do (a 1 x 1 broadcast would skip numpy's fused
        multiply-add), so no entry's bits depend on the other points.
        """
        oz = self._orbits(zs)
        ow = np.conj(oz if ws is None else self._orbits(ws))
        out = np.empty((len(oz), len(ow)), dtype=complex)
        step = max(1, _JULIA_TILE // self.n_factors)
        for i in range(len(oz)):
            for j in range(0, len(ow), step):
                out[i, j : j + step] = np.prod(1.0 + oz[i : i + 1] * ow[j : j + step], axis=1)
        return out

    def _orbits(self, zs) -> np.ndarray:
        """(len(zs), n_factors) orbits of certified members."""
        zs = list(zs)
        for z in zs:
            self.require_member(z)
        return np.array([julia_orbit(z, self.n_factors) for z in zs]).reshape(len(zs), self.n_factors)

    def tail_bound(self, z, w) -> float:
        oz = np.abs(julia_orbit(z, 2 * self.n_factors))[self.n_factors :]
        ow = np.abs(julia_orbit(w, 2 * self.n_factors))[self.n_factors :]
        return float(np.sum(oz * ow))

    def feature_block(self, zs, J):
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        depth = max((J - 1).bit_length(), 1)
        orbits = np.column_stack([julia_orbit(z, depth) for z in zs]).T  # (len, depth)
        out = np.ones((len(zs), J), dtype=complex)
        for j in range(1, J):
            cols = [k for k in range(depth) if (j >> k) & 1]
            out[:, j] = np.prod(orbits[:, cols], axis=1)
        return out


# -- embedding and boundary process ------------------------------------------


def kernel_reconstruct(kernel: PositiveDefiniteKernel, s, t, J: int):
    """Truncated feature sum  sum_{j<J} phi_j(t) phi_j(s)*."""
    block = kernel.feature_block([t, s], J)
    val = complex(block[0] @ np.conj(block[1]))
    return val if kernel.is_complex else val.real


def embed_point(kernel: PositiveDefiniteKernel, t, J: int) -> np.ndarray:
    return kernel.feature_block([t], J)[0]


def embedding_pairs(kernel: PositiveDefiniteKernel, points, J: int):
    """(i, j, ||tau(s)-tau(t)||^2, C(s,s) - 2 Re C(s,t) + C(t,t)) for s, t = points i < j."""
    points = list(points)
    if len(points) < 2:
        return
    block = kernel.feature_block(points, J)
    for i, s in enumerate(points):
        for j in range(i + 1, len(points)):
            t = points[j]
            emb = float(np.sum(np.abs(block[i] - block[j]) ** 2))
            ref = kernel.evaluate(s, s) - 2.0 * np.real(kernel.evaluate(s, t)) + kernel.evaluate(t, t)
            yield i, j, emb, float(ref.real)


def metric_identity_residual(kernel: PositiveDefiniteKernel, points, J: int) -> float:
    """max over pairs of | ||tau(t)-tau(s)||^2 - (C(t,t) - 2 Re C(t,s) + C(s,s)) |."""
    worst = 0.0
    for _i, _j, emb, ref in embedding_pairs(kernel, points, J):
        worst = max(worst, abs(emb - ref))
    return worst


def boundary_process_at(kernel: PositiveDefiniteKernel, t, coords) -> complex:
    """X_t at a fixed coordinate point:  sum_j coords_j phi_j(t)*."""
    coords = np.asarray(coords)
    feats = embed_point(kernel, t, len(coords))
    val = complex(coords @ np.conj(feats))
    return val if kernel.is_complex else val.real


def boundary_process_cov(kernel: PositiveDefiniteKernel, s, t, J: int, n: int, stream_id):
    """Monte Carlo E[X_s* X_t] over the Gaussian coordinate law, with stderr."""
    if n < 1000:
        raise ValueError("need at least 1000 samples")
    fs, ft = kernel.feature_block([s, t], J)
    # X_s* = <xi, phi(s)> and X_t = <xi, phi(t)*>
    forms = streams.linear_forms(stream_id, [fs, np.conj(ft)])
    est, se = streams.mc_mean(n, lambda row, m: np.prod(forms(row, m), axis=1))
    if not kernel.is_complex:
        est = est.real
    return est, se


def szego_boundary_integral(z, w, nodes: int = 2048) -> complex:
    """(1/2pi) integral of (1 - z e^{-i theta})^{-1} (1 - w* e^{i theta})^{-1}.

    Periodic trapezoid rule; matches 1/(1 - z w*) to spectral accuracy for
    points away from the boundary circle.
    """
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise ValueError("points must lie strictly inside the unit disk")
    if nodes < 1:
        raise ValueError(f"the trapezoid rule needs at least 1 node, not {nodes}")
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    vals = 1.0 / (1.0 - z * np.exp(-1j * theta)) / (1.0 - np.conj(w) * np.exp(1j * theta))
    return complex(vals.mean())


# -- the exponential set kernel ------------------------------------------------


def exp_set_kernel(mu: SigmaFiniteMeasure, A: BorelSet, B: BorelSet) -> float:
    """K(A, B) = exp(mu(A n B) - (mu(A) + mu(B))/2); equals 1 on the diagonal."""
    ma, mb = mu.measure_of(A), mu.measure_of(B)
    mab = mu.measure_of(A.intersect(B))
    if not (math.isfinite(ma) and math.isfinite(mb)):
        raise ValueError("the exponential set kernel needs sets of finite mass")
    return math.exp(mab - 0.5 * (ma + mb))


def exp_set_gram(mu: SigmaFiniteMeasure, sets) -> np.ndarray:
    """[K(A_i, A_j)], entry for entry ``exp_set_kernel``'s, from one mass per set and meet.

    A n B is B n A interval for interval, so G is filled from i <= j.
    """
    sets = list(sets)
    mass = [mu.measure_of(A) for A in sets]
    if not all(map(math.isfinite, mass)):
        raise ValueError("the exponential set kernel needs sets of finite mass")
    G = np.empty((len(sets), len(sets)))
    for i, A in enumerate(sets):
        for j in range(i, len(sets)):
            mab = mu.measure_of(A.intersect(sets[j]))
            G[i, j] = G[j, i] = math.exp(mab - 0.5 * (mass[i] + mass[j]))
    return G


def fourier_map_isometry(mu, sets, coeffs, n: int, stream_id, J: int = 512):
    """Norm of sum_j a_j K_{A_j} computed two ways.

    Exactly in the kernel space:  sum a_j a_k K(A_j, A_k);  and by Monte
    Carlo as E |sum_j a_j exp(i W_{A_j})|^2 over the coordinate law.
    Returns (kernel_norm, mc_estimate, mc_stderr).
    """
    sets = list(sets)
    a = np.asarray(coeffs, dtype=float)
    if len(a) != len(sets):
        raise ValueError("need one coefficient per set")
    G = exp_set_gram(mu, sets)
    kernel_norm = float(a @ G @ a)
    field = GaussianNoiseField(mu, J=J)
    forms = streams.linear_forms(stream_id, [field.coefficients(A) for A in sets])
    mean, se = streams.mc_mean(
        n, lambda row, m: np.abs(streams.row_dot(np.exp(1j * forms(row, m)), a)) ** 2
    )
    return kernel_norm, mean.real, se[0]
