"""Sigma-finite measures on intervals of the line and on IFS attractors.

Supported kinds: Lebesgue on an interval, weighted densities (polynomial or
callable weight), finite atomic measures, invariant measures of
non-overlapping affine IFSs, Bernoulli convolutions, and sums of two
measures.  Every kind answers ``measure_of`` on finite unions of half-open
intervals and ``integrate`` with an error estimate; kinds are also
decomposable into (Lebesgue density, atoms, singular components), which is
what the Radon-Nikodym and sigma-function machinery works with.

This module owns that decomposition: ``atom_mass_at`` is the one
atom-matching rule (``_ATOM_TOL``), ``SumMeasure`` merges atoms and singular
bases, and ``_radon_nikodym`` is the one d(mu)/d(lam), a vectorized callable
that ``radon_nikodym_on_grid`` and ``sigma`` both read.  Its atom-and-density
part, ``_regular_derivative``, is readable alone, without the singular-parts
check: ``sigma.SigmaLift`` expands through it.

Exactness: interval masses are closed-form for Lebesgue, polynomial
densities, atomic measures, and IFS invariant measures (branch-descent CDF);
polynomials integrate exactly against an IFS invariant measure, on the whole
attractor or on a cylinder C_w, where mu is p_w (tau_w)_* mu, the invariant
measure of ``ifs.pushforward_system`` applied once per digit of w; both go
through the one moment sum of ``ifs``.  Everything else is quadrature with
a node-doubling error estimate.

The cylinder code of IFS measures (cell images in digit-code order, cylinder
masses and the branch-descent CDF, vectorized over arrays) lives in
``ifs.IteratedFunctionSystem``; here cells inside a set take their cylinder
masses, and only cells straddling its endpoints difference the CDF.  Every
singular base is an ``IFSInvariantMeasure`` (a Bernoulli law with lambda <
1/2 returns its system's), so two bases are one when their systems are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from . import quadrature
from .ifs import IteratedFunctionSystem, _moment_sum, bernoulli_system, pushforward_system
from .sets import BorelSet

_ATOM_TOL = 1e-12
# rows of x per sine block in the Fourier-inversion CDF: bounds its memory
# to a few (rows x quadrature nodes) blocks whatever the number of points
_INVERSION_ROWS = 64
_INVERSION_CUTOFF = 2000.0  # frequency cutoff T of the Fourier-inversion CDF


@dataclass(frozen=True)
class SimpleFunction:
    """Finite sum  sum_i a_i * chi_{A_i}  with pairwise disjoint A_i."""

    terms: tuple  # ((coefficient, BorelSet), ...)

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((float(a), s) for a, s in self.terms)
        )
        for i, (_, s1) in enumerate(self.terms):
            for _, s2 in self.terms[i + 1 :]:
                if not s1.intersect(s2).is_empty:
                    raise ValueError("simple-function sets must be disjoint")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for a, s in self.terms:
            for lo, hi in s.intervals:
                out += a * ((x > lo) & (x <= hi))
        return out


class SigmaFiniteMeasure:
    kind = "abstract"

    # -- queries every kind answers ----------------------------------------

    def support_hull(self):
        raise NotImplementedError

    def total_mass(self) -> float:
        raise NotImplementedError

    def measure_of(self, A: BorelSet) -> float:
        raise NotImplementedError

    def integrate(self, f, A: BorelSet | None = None, nodes: int = 64):
        raise NotImplementedError

    # -- decomposition against Lebesgue ------------------------------------

    def density_fn(self):
        """Vectorized Lebesgue density of the absolutely continuous part, or None."""
        return None

    def atoms(self) -> tuple:
        return ()

    def singular_parts(self) -> tuple:
        """((base_measure, scale), ...) for singular-continuous components."""
        return ()

    def to_descriptor(self) -> dict:
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def canonical_grid(self, n: int = 2048) -> np.ndarray:
        lo, hi = self.support_hull()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("canonical grid needs a finite support hull")
        cells = np.linspace(lo, hi, n + 1)
        grid = 0.5 * (cells[:-1] + cells[1:])
        pts = [x for x, _ in self.atoms()]
        if pts:
            grid = np.unique(np.concatenate([grid, np.asarray(pts, dtype=float)]))
        return grid

    def atom_mass_at(self, x):
        """Mass of the first atom within ``_ATOM_TOL`` of x, elementwise; 0 off the atoms.

        This is the one atom-matching rule: scalar in, float out.
        """
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for a, m in reversed(self.atoms()):
            out = np.where(np.abs(a - x) <= _ATOM_TOL, m, out)
        return out if out.ndim else float(out)

    def _clipped(self, A: BorelSet) -> BorelSet:
        lo, hi = self.support_hull()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return A
        return A.clip(lo, hi)


def _reject_unbounded(values, what="integrand"):
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} is unbounded on the integration set")
    return values


class LebesgueMeasure(SigmaFiniteMeasure):
    """Lebesgue measure restricted to an interval (endpoints may be infinite)."""

    kind = "lebesgue-interval"

    def __init__(self, a: float, b: float):
        if not a < b:
            raise ValueError("need a < b")
        self.a, self.b = float(a), float(b)

    def support_hull(self):
        return self.a, self.b

    def total_mass(self) -> float:
        return self.b - self.a

    def measure_of(self, A: BorelSet) -> float:
        return self._clipped(A).total_length()

    def density_fn(self):
        a, b = self.a, self.b
        return lambda x: ((np.asarray(x) > a) & (np.asarray(x) <= b)).astype(float)

    def integrate(self, f, A=None, nodes=64):
        A = self._clipped(A) if A is not None else BorelSet.interval(self.a, self.b)
        if any(not (math.isfinite(lo) and math.isfinite(hi)) for lo, hi in A.intervals):
            raise ValueError("quadrature needs finite intervals")
        total, err = 0.0, 0.0
        for lo, hi in A.intervals:
            v, e = quadrature.integrate(lambda x: _reject_unbounded(f(x)), lo, hi, nodes)
            total, err = total + v, err + e
        return total, err

    def to_descriptor(self):
        return {"kind": self.kind, "interval": [self.a, self.b]}


class DensityMeasure(SigmaFiniteMeasure):
    """w(x) dx on a finite interval; w is a polynomial (exact) or a callable."""

    kind = "weighted-density"

    def __init__(self, a: float, b: float, density):
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError("weighted densities live on finite intervals")
        self.a, self.b = float(a), float(b)
        if callable(density):
            self.poly = None
            self._w = density
        else:
            self.poly = np.asarray(density, dtype=float)
            self._w = lambda x, c=self.poly: P.polyval(np.asarray(x, dtype=float), c)
        probe = np.asarray(self._w(np.linspace(self.a, self.b, 257)), dtype=float)
        if not np.all(np.isfinite(probe)) or np.min(probe) < -1e-12:
            raise ValueError("density must be finite and nonnegative on its interval")

    def support_hull(self):
        return self.a, self.b

    def density_fn(self):
        a, b, w = self.a, self.b, self._w
        return lambda x: np.where(
            (np.asarray(x) > a) & (np.asarray(x) <= b + _ATOM_TOL),
            np.asarray(w(x), dtype=float),
            0.0,
        )

    def total_mass(self) -> float:
        return self.measure_of(BorelSet.interval(self.a, self.b))

    def measure_of(self, A: BorelSet) -> float:
        A = self._clipped(A)
        if self.poly is not None:
            anti = P.polyint(self.poly)
            return float(
                sum(P.polyval(hi, anti) - P.polyval(lo, anti) for lo, hi in A.intervals)
            )
        return self.integrate(lambda x: np.ones_like(np.asarray(x, dtype=float)), A)[0]

    def integrate(self, f, A=None, nodes=64):
        A = self._clipped(A) if A is not None else BorelSet.interval(self.a, self.b)
        total, err = 0.0, 0.0
        for lo, hi in A.intervals:
            v, e = quadrature.integrate(
                lambda x: _reject_unbounded(f(x)) * np.asarray(self._w(x), dtype=float),
                lo,
                hi,
                nodes,
            )
            total, err = total + v, err + e
        return total, err

    def to_descriptor(self):
        if self.poly is None:
            raise ValueError("callable densities have no JSON form")
        return {
            "kind": self.kind,
            "interval": [self.a, self.b],
            "density_poly": [float(c) for c in self.poly],
        }


class AtomicMeasure(SigmaFiniteMeasure):
    """Finitely many atoms; an empty atom list is the zero measure."""

    kind = "atomic"

    def __init__(self, atoms):
        pts = []
        for x, m in atoms:
            if not m > 0:
                raise ValueError(f"atom mass {m} must be strictly positive")
            pts.append((float(x), float(m)))
        pts.sort()
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if abs(x0 - x1) <= _ATOM_TOL:
                raise ValueError("duplicate atom locations")
        self._atoms = tuple(pts)

    def support_hull(self):
        if not self._atoms:
            return 0.0, 0.0
        return self._atoms[0][0], self._atoms[-1][0]

    def atoms(self):
        return self._atoms

    def total_mass(self) -> float:
        return sum(m for _, m in self._atoms)

    def measure_of(self, A: BorelSet) -> float:
        return sum(m for x, m in self._atoms if A.contains(x))

    def integrate(self, f, A=None, nodes=64):
        total = 0.0
        for x, m in self._atoms:
            if A is None or A.contains(x):
                total += float(np.asarray(f(np.array([x]))).ravel()[0]) * m
        return total, 0.0

    def to_descriptor(self):
        return {"kind": self.kind, "atoms": [[x, m] for x, m in self._atoms]}


class IFSInvariantMeasure(SigmaFiniteMeasure):
    """The unique self-similar probability measure of a closed affine IFS."""

    kind = "ifs-invariant"

    def __init__(self, ifs: IteratedFunctionSystem):
        if not ifs.is_closed(tol=1e-9):
            raise ValueError("invariant measure needs branch weights summing to 1")
        self.ifs = ifs

    def support_hull(self):
        return self.ifs.hull

    def total_mass(self) -> float:
        return 1.0

    def singular_parts(self):
        if self.ifs.covers():
            return ()
        return ((self, 1.0),)

    def density_fn(self):
        if not self.ifs.covers():
            return None
        # covering equal-weight systems (e.g. the binary system) are Lebesgue
        probs = [float(p) for p in self.ifs.probabilities()]
        lens = [self.ifs.image(i)[1] - self.ifs.image(i)[0] for i in range(self.ifs.n_branches)]
        lo, hi = self.ifs.hull
        if all(abs(p - ln / (hi - lo)) < 1e-12 for p, ln in zip(probs, lens)):
            return lambda x: ((np.asarray(x) > lo) & (np.asarray(x) <= hi)).astype(float) / (
                hi - lo
            )
        return None

    def _word(self, A: BorelSet):
        """A's cylinder word, once A's intervals are checked to be that cylinder."""
        if A.word is not None and A.intervals != (self.ifs.cylinder_interval(A.word),):
            raise ValueError(f"set intervals {A.intervals} are not the cylinder of word {A.word}")
        return A.word

    def measure_of(self, A: BorelSet) -> float:
        if self._word(A) is not None:
            return float(self.ifs.cylinder_mass(A.word))
        ends = self.ifs.cdf(np.ravel(self._clipped(A).intervals))
        return float(sum(ends[1::2] - ends[0::2]))

    def canonical_grid(self, n: int = 2048) -> np.ndarray:
        # grid points must lie on the attractor: use cylinder left ends
        depth = max(1, int(math.ceil(math.log(n) / math.log(self.ifs.n_branches))))
        return np.sort(self.ifs.cell_images(depth, self.ifs.hull[0]))

    def cell_masses(self, A: BorelSet, depth: int) -> np.ndarray:
        """mu(A intersect cell) for all depth-``depth`` cells in digit-code order.

        A cell inside A (closed containment: there are no atoms) takes its
        product mass; only cells straddling an endpoint of A descend the CDF.
        """
        h0, h1 = self.ifs.hull
        cell_lo = np.maximum(self.ifs.cell_images(depth, h0), h0)
        cell_hi = np.minimum(self.ifs.cell_images(depth, h1), h1)
        masses = self.ifs.cylinder_masses(depth)
        out = np.zeros(len(cell_lo))
        for a, b in A.intervals:
            inside = (a <= cell_lo) & (cell_hi <= b)
            lo, hi = np.maximum(cell_lo, a), np.minimum(cell_hi, b)
            straddle = (lo < hi) & ~inside
            ends = self.ifs.cdf(np.stack([lo[straddle], hi[straddle]]))
            out[inside] += masses[inside]
            out[straddle] += ends[1] - ends[0]
        return out

    def integrate(self, f, A=None, nodes=64, depth=None):
        if not callable(f):
            return self._integrate_poly(f, A)
        k = self.ifs.n_branches
        if depth is None:
            depth = max(6, int(np.log(60000) / np.log(k)))
        coarse = self._cell_sum(f, A, depth - 2)
        fine = self._cell_sum(f, A, depth)
        return fine, abs(fine - coarse)

    def _cell_sum(self, f, A, depth):
        lo, hi = self.ifs.hull
        vals = _reject_unbounded(f(self.ifs.cell_images(depth, 0.5 * (lo + hi))))
        if A is None:
            masses = self.ifs.cylinder_masses(depth)
        else:
            masses = self.cell_masses(self._clipped(A), depth)
        return float(vals @ masses)

    def _integrate_poly(self, coeffs, A):
        coeffs = list(coeffs)
        if A is None:
            return _moment_sum(self.ifs, coeffs), 0.0
        if self._word(A) is not None:
            # exact: mu on C_w is p_w (tau_w)_* mu, the invariant measure of the
            # system conjugated by tau_w, one digit at a time in word order
            system = self.ifs
            for d in A.word:
                system = pushforward_system(system, d)
            return self.ifs.cylinder_mass(A.word) * _moment_sum(system, coeffs), 0.0
        val, err = self.integrate(
            lambda x: P.polyval(np.asarray(x, dtype=float), np.asarray([float(c) for c in coeffs])),
            A,
        )
        return val, err

    def to_descriptor(self):
        return {"kind": self.kind, "ifs": self.ifs.to_descriptor()}


class BernoulliMeasure(SigmaFiniteMeasure):
    """Law of  sum_k eps_k lam^k  with fair signs; support radius lam/(1-lam).

    For lam <= 1/2 the branch maps lam*(x +- 1) do not overlap, so interval
    masses come exactly from the IFS descent.  Beyond 1/2 the CDF is recovered
    from the cosine-product characteristic function (approximate, with a
    reported refinement error).
    """

    kind = "bernoulli-convolution"

    def __init__(self, lam: float):
        if not 0 < lam < 1:
            raise ValueError("lambda must lie in (0, 1)")
        self.lam = float(lam)
        self._ifs_measure = (
            IFSInvariantMeasure(bernoulli_system(self.lam)) if lam <= 0.5 else None
        )

    def support_hull(self):
        b = self.lam / (1.0 - self.lam)
        return -b, b

    def total_mass(self) -> float:
        return 1.0

    def density_fn(self):
        if abs(self.lam - 0.5) < 1e-15:
            return lambda x: ((np.asarray(x) > -1) & (np.asarray(x) <= 1)).astype(float) * 0.5
        return None

    def singular_parts(self):
        if self.lam < 0.5:
            return ((self._ifs_measure, 1.0),)
        return ()

    def cdf(self, x) -> float:
        if self._ifs_measure is not None:
            return self._ifs_measure.ifs.cdf(x)
        return self._cdf_inversion(x)[0]

    def _cdf_inversion(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        lam, T = self.lam, _INVERSION_CUTOFF
        n0 = int(np.ceil(np.log(T / 1e-9) / np.log(1.0 / lam)))
        edges = np.linspace(1e-9, T, max(int(2 * T), 128) + 1)
        nodes_t, weights_t = quadrature.panel_rule(edges, 8)
        chf = np.ones_like(nodes_t)
        for n in range(1, n0 + 1):
            chf = chf * np.cos(lam**n * nodes_t)
        kern = weights_t * chf / nodes_t
        half = nodes_t <= T / 2
        full, part = np.empty(len(xs)), np.empty(len(xs))
        for i in range(0, len(xs), _INVERSION_ROWS):
            sines = np.outer(xs[i : i + _INVERSION_ROWS], nodes_t)
            np.sin(sines, out=sines)
            full[i : i + _INVERSION_ROWS] = 0.5 + (sines @ kern) / np.pi
            part[i : i + _INVERSION_ROWS] = 0.5 + (sines[:, half] @ kern[half]) / np.pi
        return full, np.abs(full - part)

    def measure_of(self, A: BorelSet) -> float:
        A = self._clipped(A)
        if self._ifs_measure is not None:
            return self._ifs_measure.measure_of(A)
        total = 0.0
        for lo, hi in A.intervals:
            vals, _ = self._cdf_inversion([lo, hi])
            total += vals[1] - vals[0]
        return float(total)

    def integrate(self, f, A=None, nodes=64):
        if self._ifs_measure is not None:
            return self._ifs_measure.integrate(f, A, nodes)
        lo, hi = self.support_hull()
        A = A.clip(lo, hi) if A is not None else BorelSet.interval(lo, hi)
        total, err = 0.0, 0.0
        for a, b in A.intervals:
            # linspace(a, b, 257) is linspace(a, b, 513)[::2] bit for bit
            grid = np.linspace(a, b, 513)
            cdfs, _ = self._cdf_inversion(grid)
            fine = self._riemann(f, grid, cdfs)
            coarse = self._riemann(f, grid[::2], cdfs[::2])
            total += fine
            err += abs(fine - coarse)
        return total, err

    @staticmethod
    def _riemann(f, grid, cdfs):
        masses = np.diff(cdfs)
        mids = 0.5 * (grid[:-1] + grid[1:])
        vals = _reject_unbounded(f(mids))
        return float(vals @ masses)

    def to_descriptor(self):
        return {"kind": self.kind, "lambda": self.lam}


class SumMeasure(SigmaFiniteMeasure):
    kind = "sum-of-two"

    def __init__(self, mu1: SigmaFiniteMeasure, mu2: SigmaFiniteMeasure):
        self.mu1, self.mu2 = mu1, mu2

    @property
    def components(self):
        return self.mu1, self.mu2

    def support_hull(self):
        hulls = [m.support_hull() for m in self.components if m.total_mass() > 0]
        if not hulls:
            return self.mu1.support_hull()
        return min(h[0] for h in hulls), max(h[1] for h in hulls)

    def total_mass(self) -> float:
        return self.mu1.total_mass() + self.mu2.total_mass()

    def measure_of(self, A: BorelSet) -> float:
        return self.mu1.measure_of(A) + self.mu2.measure_of(A)

    def integrate(self, f, A=None, nodes=64):
        v1, e1 = self.mu1.integrate(f, A, nodes)
        v2, e2 = self.mu2.integrate(f, A, nodes)
        return v1 + v2, e1 + e2

    def density_fn(self):
        fns = [m.density_fn() for m in self.components]
        fns = [g for g in fns if g is not None]
        if not fns:
            return None
        return lambda x: sum(np.asarray(g(x), dtype=float) for g in fns)

    def atoms(self):
        merged = {}
        for m in self.components:
            for x, w in m.atoms():
                key = round(x / _ATOM_TOL)
                if key in merged:
                    merged[key] = (merged[key][0], merged[key][1] + w)
                else:
                    merged[key] = (x, w)
        return tuple(sorted(merged.values()))

    def singular_parts(self):
        merged = []
        for m in self.components:
            for base, scale in m.singular_parts():
                for i, (b0, s0) in enumerate(merged):
                    if _same_singular(b0, base):
                        merged[i] = (b0, s0 + scale)
                        break
                else:
                    merged.append((base, scale))
        return tuple(merged)

    def to_descriptor(self):
        return {
            "kind": self.kind,
            "parts": [self.mu1.to_descriptor(), self.mu2.to_descriptor()],
        }


def _same_singular(m1, m2) -> bool:
    """Every singular base is an ``IFSInvariantMeasure``: one base per system."""
    return m1 is m2 or m1.ifs == m2.ifs


def sum_measure(mu1: SigmaFiniteMeasure, mu2: SigmaFiniteMeasure) -> SumMeasure:
    return SumMeasure(mu1, mu2)


def radon_nikodym_on_grid(mu, lam, grid) -> np.ndarray:
    """``_radon_nikodym(mu, lam)`` on the grid; nan where lam vanishes along with mu."""
    return _radon_nikodym(mu, lam)(np.asarray(grid, dtype=float))


def _radon_nikodym(mu, lam):
    """d(mu)/d(lam) as a vectorized callable; nan where lam vanishes along with mu.

    Supported via the (density, atoms, singular) decomposition: atoms by mass
    ratio (matched by ``atom_mass_at``), densities pointwise elsewhere, and
    purely singular pairs must be multiples of one base measure (e.g. a
    measure against its own sum), in which case the derivative is the
    constant scale ratio; any other singular content raises here.
    """
    mu_sing, lam_sing = mu.singular_parts(), lam.singular_parts()
    if mu_sing or lam_sing:
        one_base = all(
            len(parts) == 1 and abs(parts[0][1] - m.total_mass()) < 1e-9
            for m, parts in ((mu, mu_sing), (lam, lam_sing))
        )
        if not (one_base and _same_singular(mu_sing[0][0], lam_sing[0][0])):
            raise ValueError(
                "no pointwise derivative: the singular parts are not multiples of one common base"
            )
        ratio = mu_sing[0][1] / lam_sing[0][1]
        return lambda x: np.full(np.shape(x), ratio)
    return _regular_derivative(mu, lam)


def _regular_derivative(mu, lam):
    """d(mu)/d(lam) of the atom and density parts, singular parts unread; nan where lam vanishes.

    The callable raises when absolute continuity visibly fails at its points:
    an atom of mu that lam does not carry, or positive mu-density where lam
    has none.
    """
    w_mu, w_lam = mu.density_fn(), lam.density_fn()

    def rn(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        mm, ml = mu.atom_mass_at(x), lam.atom_mass_at(x)
        dm = np.asarray(w_mu(x), dtype=float) if w_mu is not None else np.zeros(x.shape)
        dl = np.asarray(w_lam(x), dtype=float) if w_lam is not None else np.zeros(x.shape)
        off_atoms = ml == 0
        for bad, what in (
            (mm > 0, "atom of the numerator at {} is not an atom of the base"),
            ((dl <= 0) & (dm > 0), "numerator density positive at {} where the base vanishes"),
        ):
            if np.any(bad & off_atoms):
                raise ValueError(what.format(np.extract(bad & off_atoms, x)[0]))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(off_atoms, np.where(dl > 0, dm / dl, np.nan), mm / ml)

    return rn


def measure_from_descriptor(desc: dict) -> SigmaFiniteMeasure:
    from .ifs import ifs_from_descriptor

    kind = desc["kind"]
    if kind == "lebesgue-interval":
        return LebesgueMeasure(*desc["interval"])
    if kind == "weighted-density":
        return DensityMeasure(*desc["interval"], desc["density_poly"])
    if kind == "atomic":
        return AtomicMeasure([tuple(a) for a in desc["atoms"]])
    if kind == "ifs-invariant":
        return IFSInvariantMeasure(ifs_from_descriptor(desc["ifs"]))
    if kind == "bernoulli-convolution":
        return BernoulliMeasure(desc["lambda"])
    if kind == "sum-of-two":
        return SumMeasure(*[measure_from_descriptor(p) for p in desc["parts"]])
    raise ValueError(f"unknown measure kind {kind!r}")


def cantor_measure() -> IFSInvariantMeasure:
    from .ifs import cantor_system

    return IFSInvariantMeasure(cantor_system())
