"""Set-indexed Gaussian noise realized on one universal coordinate space.

A sample point is a prefix of an i.i.d. N(0,1) coordinate sequence xi,
addressed by a 64-bit stream id.  A noise field pairs a measure with an
orthonormal basis of its L2 space and evaluates

    W_A(xi) = sum_{j<J} (integral_A phi_j d mu) * xi_j,

so W_A is centered Gaussian with variance sum_j c_j(A)^2, which increases to
mu(A) with the truncation J.  The same coefficient pairing extends to
square-integrable integrands (the stochastic integral), to the coordinate
factorization (psi/gamma maps), and to the Monte Carlo functionals used by
the verification suites.

Coordinates with zero coefficient are never materialized: because every
coordinate is addressed by (stream, index), skipping them is exact, not an
approximation.

Conventions for degenerate sets: W_A = 0 when mu(A) = 0, and sets of
infinite mass are rejected (the renormalized variant is out of scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .bases import OrthonormalBasis, default_truncation, make_basis
from .measures import SigmaFiniteMeasure
from .sets import BorelSet

_COEFF_CACHE_SETS = 1024  # GaussianNoiseField keeps the coefficients of this many sets


@dataclass(frozen=True)
class UniversalSamplePoint:
    """Finite prefix of one coordinate stream; extensions are deterministic."""

    stream_id: int
    coords: np.ndarray

    @property
    def J(self) -> int:
        return len(self.coords)

    def extended(self, J: int) -> "UniversalSamplePoint":
        if J <= self.J:
            return UniversalSamplePoint(self.stream_id, self.coords[:J])
        return sample_xi(self.stream_id, J)

    def coordinate(self, j: int) -> float:
        if j < self.J:
            return float(self.coords[j])
        return float(streams.normals_at(self.stream_id, np.array([j], dtype=np.uint64))[0])


def sample_xi(seed, J: int) -> UniversalSamplePoint:
    if J < 1:
        raise ValueError("need at least one coordinate")
    return UniversalSamplePoint(seed, streams.normals(seed, J))


class GaussianNoiseField:
    def __init__(self, measure: SigmaFiniteMeasure, basis: OrthonormalBasis | None = None, J: int | None = None):
        self.measure = measure
        self.basis = basis if basis is not None else make_basis(measure, J)
        self.J = J if J is not None else default_truncation(self.basis)
        if self.basis.size is not None and self.J > self.basis.size:
            raise ValueError(f"truncation {self.J} exceeds basis size {self.basis.size}")
        self._coeff_cache: dict[tuple, np.ndarray] = {}

    # -- coefficients ---------------------------------------------------------

    def coefficients(self, A: BorelSet) -> np.ndarray:
        cached = self._coeff_cache.pop(A.intervals, None)  # a dict keeps insertion order
        if cached is None:
            cached = self.basis.indicator_coefficients(A, self.J)
            if len(self._coeff_cache) >= _COEFF_CACHE_SETS:
                del self._coeff_cache[next(iter(self._coeff_cache))]  # the least recently used
        self._coeff_cache[A.intervals] = cached  # now the most recently used
        return cached

    def ito_coefficients(self, f) -> np.ndarray:
        return self.basis.inner_coefficients(f, self.J)

    def _checked_mass(self, A: BorelSet) -> float:
        mass = self.measure.measure_of(A)
        if not math.isfinite(mass):
            raise ValueError(
                "set has infinite mass: the renormalized noise convention is out of scope"
            )
        return mass

    # -- single evaluations ----------------------------------------------------

    def noise_on_set(self, A: BorelSet, xi: UniversalSamplePoint) -> float:
        if self._checked_mass(A) == 0.0:
            return 0.0
        c = self.coefficients(A)
        return self._pair(c, xi)

    def ito_integral(self, f, xi: UniversalSamplePoint) -> float:
        return self._pair(self.ito_coefficients(f), xi)

    def _pair(self, c: np.ndarray, xi: UniversalSamplePoint) -> float:
        if xi.J < self.J:
            raise ValueError(f"sample prefix {xi.J} shorter than truncation {self.J}")
        return float(c @ xi.coords[: self.J])

    # -- vectorized Monte Carlo -------------------------------------------------

    def noise_samples(self, A: BorelSet, n: int, stream_id, first: int = 0) -> np.ndarray:
        if n < 0:
            raise ValueError(f"sample count n must be >= 0, not {n}")
        if self._checked_mass(A) == 0.0:
            return np.zeros(n)
        return streams.linear_samples(stream_id, n, self.coefficients(A), first)

    def ito_samples(self, f, n: int, stream_id, first: int = 0) -> np.ndarray:
        return streams.linear_samples(stream_id, n, self.ito_coefficients(f), first)

    def covariance_mc(self, A: BorelSet, B: BorelSet, n: int, stream_id):
        """Sample covariance of (W_A, W_B) over n coupled draws, with standard error."""
        if n < 100:
            raise ValueError("need at least 100 samples")
        forms = streams.linear_forms(stream_id, [self.coefficients(A), self.coefficients(B)])
        self._checked_mass(A), self._checked_mass(B)
        mean, se = streams.mc_mean(n, lambda row, m: np.prod(forms(row, m), axis=1))
        return mean.real, se[0]

    # -- coordinate factorization -------------------------------------------------

    def psi_map(self, xi: UniversalSamplePoint) -> np.ndarray:
        """Coordinates Z_j of the factor map, computed through the basis pairing."""
        if self.J > 2048:
            raise ValueError("factor map materializes a JxJ pairing; lower the truncation")
        if xi.J < self.J:
            raise ValueError(f"sample prefix {xi.J} shorter than truncation {self.J}")
        return self.basis.gram(self.J) @ xi.coords[: self.J]

    def gamma_map(self, coords, A: BorelSet) -> float:
        """Finitely additive set function of the coordinate sequence."""
        coords = coords.coords if isinstance(coords, UniversalSamplePoint) else np.asarray(coords)
        if len(coords) != self.J:
            raise ValueError(f"coordinate length {len(coords)} does not match truncation {self.J}")
        return float(self.coefficients(A) @ coords)


# -- functionals of the coordinate law ----------------------------------------


def characteristic_functional_mc(c, n: int, stream_id):
    """Monte Carlo E[exp(i <xi, c>)]; returns (estimate, (se_real, se_imag))."""
    forms = streams.linear_forms(stream_id, np.asarray(c, dtype=float))
    return streams.mc_mean(n, lambda row, m: np.exp(1j * forms(row, m)[:, 0]))


def characteristic_functional_target(c) -> float:
    c = np.asarray(c, dtype=float)
    return math.exp(-0.5 * float(c @ c))


def _check_coordinates(c, *indices):
    for j in indices:
        if not 0 <= j < len(c):
            raise ValueError(f"coordinate {j} is outside 0 .. {len(c) - 1}")


def moment_identity_mc(j: int, k: int, c, n: int, stream_id):
    """Monte Carlo E[xi_j xi_k exp(i <xi, c>)] with standard errors."""
    _check_coordinates(c, j, k)
    C = np.vstack([np.zeros((2, len(c))), c])  # the forms xi_j, xi_k and <xi, c>
    C[[0, 1], [j, k]] = 1.0
    forms = streams.linear_forms(stream_id, C)

    def values(row, m):
        W = forms(row, m)
        return W[:, 0] * W[:, 1] * np.exp(1j * W[:, 2])

    return streams.mc_mean(n, values)


def moment_identity_target(j: int, k: int, c) -> float:
    """(delta_jk - c_j c_k) exp(-|c|^2/2): the product rule keeps the delta term."""
    _check_coordinates(c, j, k)
    c = np.asarray(c, dtype=float)
    delta = 1.0 if j == k else 0.0
    return (delta - c[j] * c[k]) * math.exp(-0.5 * float(c @ c))


def _coordinate_chunks(seed, n: int):
    """Coordinates 0 .. n-1 of one sample point, in chunks of 2^20."""
    if n < 1:
        raise ValueError("need at least one coordinate")
    for start in range(0, n, 1 << 20):
        yield streams.normals(seed, min(1 << 20, n - start), offset=start)


def ell2_escape_ratio(seed, n: int) -> float:
    """S_n / n for S_n = sum of squared coordinates; near 1 when coordinates escape l2."""
    return sum(float(z @ z) for z in _coordinate_chunks(seed, n)) / n


def max_coordinate(seed, n: int) -> float:
    return max((float(np.abs(z).max()) for z in _coordinate_chunks(seed, n)))


class CoordinateFactorMap:
    """Measure-preserving map of the coordinate space: an orthogonal mix of the
    leading block, identity beyond it.  The pullback f -> f o Psi is positive,
    unital, and expectation preserving."""

    def __init__(self, U: np.ndarray):
        U = np.asarray(U, dtype=float)
        if np.max(np.abs(U @ U.T - np.eye(len(U)))) > 1e-10:
            raise ValueError("factor map needs an orthogonal matrix")
        self.U = U

    def apply(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        n = len(self.U)
        if len(coords) < n:
            raise ValueError("coordinate prefix shorter than the mixing block")
        out = coords.copy()
        out[:n] = self.U @ coords[:n]
        return out

    def pullback(self, f):
        return lambda coords: f(self.apply(coords))


# -- spectral variance of fractional increments --------------------------------

_FBM_PANEL_NODES = 24  # Gauss nodes per half-period panel
_FBM_TAIL_START = 3000.0  # panels run up to here; the tail beyond is closed-form


def fbm_spectral_integral(H: float, t: float):
    """integral_0^inf 2 (1 - cos(t x)) x^(-2H-1) dx with a rigorous error bound.

    Split: power series on [0, 1/t], half-period Gauss-Legendre panels up to
    the tail start, then the exact power tail plus two integration-by-parts
    terms of the cosine tail; the remainder bound is returned.
    """
    if not 0.0 < H < 1.0:
        raise ValueError("Hurst index must lie in (0, 1)")
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    s = 2.0 * H + 1.0
    eps = 1.0 / t
    series = 0.0
    term_bound = np.inf
    for m in range(1, 80):
        try:
            power = t ** (2 * m)
        except OverflowError:
            raise ValueError(f"t = {t} is too large: t^{2 * m} overflows the origin series") from None
        term = 2.0 * (-1) ** (m + 1) * power * eps ** (2 * m - 2.0 * H) / (
            math.factorial(2 * m) * (2 * m - 2.0 * H)
        )
        series += term
        term_bound = abs(term)
        if term_bound < 1e-18 * (abs(series) + 1e-30):
            break
    else:
        raise ValueError(f"series at the origin failed to converge (H={H}, t={t})")
    B = max(_FBM_TAIL_START, 2.0 * eps)
    n_panels = int(math.ceil((B - eps) * t / math.pi))
    B = eps + n_panels * math.pi / t
    edges = eps + (math.pi / t) * np.arange(n_panels + 1)
    from .quadrature import integrate_panels

    middle = integrate_panels(
        lambda x: 2.0 * (1.0 - np.cos(t * x)) * x ** (-s), edges, _FBM_PANEL_NODES
    )
    power_tail = 2.0 * B ** (1.0 - s) / (s - 1.0)
    ibp1 = -math.sin(t * B) * B ** (-s) / t
    ibp2 = -s * math.cos(t * B) * B ** (-s - 1.0) / t**2
    cos_tail = -2.0 * (ibp1 + ibp2)
    remainder = 4.0 * s * (s + 1.0) * B ** (-s - 2.0) / t**3
    value = series + middle + power_tail + cos_tail
    error = remainder + term_bound
    if not (np.isfinite(value) and error < 1e-6 * max(abs(value), 1.0)):
        raise ValueError(
            f"spectral quadrature did not converge: value={value}, bound={error}, "
            f"panels={n_panels}, tail_start={B}"
        )
    return value, error


def fbm_increment_variance(H: float, t: float) -> float:
    """V(t) normalized so V(1) = 1; scales as t^(2H)."""
    v_t, _ = fbm_spectral_integral(H, t)
    v_1, _ = fbm_spectral_integral(H, 1.0)
    return v_t / v_1
