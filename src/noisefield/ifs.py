"""Affine iterated function systems on the line.

A system is a finite family of contractive affine branches
``tau_i(x) = r_i x + s_i`` with branch weights ``p_i``, together with the
piecewise-affine left inverse ``R`` defined on the branch images.  The
attractor hull, cylinder intervals, the invariant-measure CDF, exact
polynomial moments, a deterministic chaos-game sampler, and the isometries
``S_i`` acting on depth-``d`` coefficient spaces all live here.

This module is the one owner of the cylinder code: word (b_1, ..., b_d) has
code sum_k b_k n^(k-1), and ``cell_images``, ``cylinder_masses`` and
``digits`` all use that layout; ``cdf`` works elementwise over arrays.
A set carries no word: ``cylinder_set`` is a bare interval, and
``cylinder_word`` is the one map from an interval back to the word whose
cylinder it is, bit for bit.

It also owns the self-similar integrals.  By invariance, mu restricted to a
cylinder C_w is p_w (tau_w)_* mu, and ``pushforward_system`` conjugates a
system by one branch, so its invariant measure is that branch's push-forward;
conjugating once per digit of w, in word order, gives (tau_w)_* mu.  A
polynomial integral is the one moment sum, sum_k c_k m_k over the invariant
moments, a Fraction only when the moments and every coefficient are exact.

Branch weights are allowed to not sum to one so that the closedness
diagnostics can quantify exactly how broken a system is; everything that
needs a probability measure (CDF, sampling, moments) insists on a unit sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sets import BorelSet
from . import streams

_OVERLAP_TOL = 1e-12
_CLOSEDNESS_DEPTH = 6  # closedness_residual bounds the defect of every word up to this length


def _as_exact(x):
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    return None


@dataclass(frozen=True)
class IteratedFunctionSystem:
    ratios: tuple
    shifts: tuple
    weights: tuple

    def __post_init__(self):
        k = len(self.ratios)
        if k < 2 or len(self.shifts) != k or len(self.weights) != k:
            raise ValueError("need >= 2 branches with matching ratios/shifts/weights")
        for r in self.ratios:
            if not 0 < float(r) < 1:
                raise ValueError(f"branch expansion violated: ratio {r} not in (0, 1)")
        for p in self.weights:
            if not float(p) > 0:
                raise ValueError(f"branch weight {p} must be positive")
        order = sorted(range(k), key=lambda i: float(self.image(i)[0]))
        imgs = [self.image(i) for i in order]
        for (_, hi0), (lo1, _) in zip(imgs, imgs[1:]):
            if float(lo1) < float(hi0) - _OVERLAP_TOL:
                raise ValueError(
                    f"branch images overlap: ({imgs[0]}, ...) violate non-overlap"
                )

    # -- geometry ---------------------------------------------------------

    @property
    def n_branches(self) -> int:
        return len(self.ratios)

    @property
    def hull(self):
        fixed = []
        for r, s in zip(self.ratios, self.shifts):
            re, se = _as_exact(r), _as_exact(s)
            if re is not None and se is not None:
                fixed.append(float(se / (1 - re)))
            else:
                fixed.append(float(s) / (1.0 - float(r)))
        return min(fixed), max(fixed)

    def image(self, i):
        lo, hi = self.hull
        r, s = float(self.ratios[i]), float(self.shifts[i])
        return r * lo + s, r * hi + s

    def _affine_arrays(self):
        """(ratios, shifts) as float arrays indexed by branch."""
        return (
            np.array([float(r) for r in self.ratios]),
            np.array([float(s) for s in self.shifts]),
        )

    def apply(self, i, x):
        return float(self.ratios[i]) * np.asarray(x, dtype=float) + float(self.shifts[i])

    def apply_word(self, word, x):
        """tau_{w1} o tau_{w2} o ... o tau_{wm} applied to x."""
        y = np.asarray(x, dtype=float)
        for d in reversed(word):
            y = self.apply(d, y)
        return y

    def inverse(self, x):
        """The left inverse R; defined on the branch images only."""
        x = float(x)
        for i in range(self.n_branches):
            lo, hi = self.image(i)
            if lo - _OVERLAP_TOL <= x <= hi + _OVERLAP_TOL:
                return (x - float(self.shifts[i])) / float(self.ratios[i])
        raise ValueError(f"point {x} lies in a gap: R is undefined there")

    def covers(self) -> bool:
        """True when the branch images tile the hull with no gaps."""
        imgs = sorted((self.image(i) for i in range(self.n_branches)))
        lo, hi = self.hull
        if abs(imgs[0][0] - lo) > 1e-10 or abs(imgs[-1][1] - hi) > 1e-10:
            return False
        return all(abs(a1 - b0) <= 1e-10 for (_, b0), (a1, _) in zip(imgs, imgs[1:]))

    def cylinder_interval(self, word):
        if not all(d in range(self.n_branches) for d in word):
            raise ValueError(f"cylinder word {tuple(word)} has a digit that is not a branch index")
        lo, hi = self.hull
        a = self.apply_word(word, lo)
        b = self.apply_word(word, hi)
        return float(a), float(b)

    def cylinder_word(self, a, b):
        """The word whose ``cylinder_interval`` is (a, b) bit for bit, or None.

        The midpoint of (a, b) descends through the branch images, lower
        index first where two touch, so each length has one candidate word;
        only lengths whose cylinder is within a factor of 2 as wide as b - a
        are compared, each with one ``cylinder_interval`` call.
        """
        lo, hi = self.hull
        images = [self.image(i) for i in range(self.n_branches)]
        x, width, word = 0.5 * (a + b), hi - lo, ()
        while 2 * width >= b - a > 0:
            if width <= 2 * (b - a) and self.cylinder_interval(word) == (a, b):
                return word
            i = next((i for i, (l, h) in enumerate(images) if l <= x <= h), None)
            if i is None:
                return None
            r = float(self.ratios[i])
            x, width, word = (x - float(self.shifts[i])) / r, width * r, word + (i,)
        return None

    def cylinder_set(self, word) -> BorelSet:
        """The bare interval of the cylinder of ``word``.

        Rejected where that float interval names another word or none: on
        the Cantor system, words of length >= 34 away from 0, whose interval
        is a few ulps wide.
        """
        A = BorelSet((self.cylinder_interval(word),))
        if self.cylinder_word(*A.intervals[0]) != tuple(word):
            raise ValueError(f"cylinder word {tuple(word)} is too long: its float interval "
                             f"{A.intervals[0]} does not name it")
        return A

    # -- invariant measure -------------------------------------------------

    @property
    def weight_sum(self) -> float:
        return float(sum(float(p) for p in self.weights))

    def probabilities(self):
        """Normalized branch probabilities; exact when the weights are exact."""
        exact = [_as_exact(p) for p in self.weights]
        if all(e is not None for e in exact):
            tot = sum(exact)
            return tuple(e / tot for e in exact)
        tot = self.weight_sum
        return tuple(float(p) / tot for p in self.weights)

    def is_closed(self, tol=1e-12) -> bool:
        return abs(self.weight_sum - 1.0) <= tol

    def cylinder_mass(self, word):
        probs = self.probabilities()
        mass = Fraction(1) if isinstance(probs[0], Fraction) else 1.0
        for d in word:
            mass = mass * probs[d]
        return mass

    def cdf(self, x):
        """Invariant-measure CDF by exact branch descent, elementwise over arrays.

        A scalar in gives a float out.  Each point descends through the branch
        images in left-to-right order; the descent stops in a gap, after 220
        steps, or once the remaining cylinder mass drops below 1e-18.
        """
        if not self.is_closed(tol=1e-9):
            raise ValueError("CDF requires branch weights summing to 1")
        probs = [float(p) for p in self.probabilities()]
        order = sorted(range(self.n_branches), key=lambda i: self.image(i)[0])
        branches = [
            (self.image(i), float(self.shifts[i]), float(self.ratios[i]), probs[i]) for i in order
        ]
        lo, hi = self.hull
        xs = np.asarray(x, dtype=float)
        y = xs.ravel()
        out = np.where(y >= hi, 1.0, 0.0)
        pos = np.flatnonzero(~(y < lo) & ~(y >= hi))
        y = y[pos]
        acc, scale = np.zeros(len(pos)), np.ones(len(pos))
        for _ in range(220):
            if len(pos) == 0:
                break
            undecided = ~(scale < 1e-18)
            descended = np.zeros(len(pos), dtype=bool)
            for (ilo, ihi), s, r, p in branches:
                undecided &= ~(y < ilo)  # landed in a gap: mass to the left is settled
                into = undecided & (y <= ihi)
                y = np.where(into, (y - s) / r, y)
                scale = np.where(into, scale * p, scale)
                descended |= into
                undecided &= ~into
                acc = np.where(undecided, acc + scale * p, acc)
            out[pos[~descended]] = acc[~descended]
            pos, y, acc, scale = pos[descended], y[descended], acc[descended], scale[descended]
        out[pos] = acc
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    def cell_images(self, depth, x0) -> np.ndarray:
        """tau_word(x0) for every depth-``depth`` word, in digit-code order.

        Word (b_1, ..., b_d) has code sum_k b_k n^(k-1), so code c lands in
        the cylinder of its word; the innermost branch b_d is applied first.
        """
        n = self.n_branches
        codes = np.arange(n**depth)
        ratios, shifts = self._affine_arrays()
        pts = np.full(n**depth, float(x0))
        for k in range(depth - 1, -1, -1):
            d = (codes // n**k) % n
            pts = ratios[d] * pts + shifts[d]
        return pts

    def cylinder_masses(self, depth) -> np.ndarray:
        """Product of branch probabilities of every depth-``depth`` word, in digit-code order."""
        return _word_products([float(p) for p in self.probabilities()], depth)

    def digits(self, xs, depth) -> np.ndarray:
        """(len(xs), depth) cylinder coding of attractor points; gap points are rejected.

        Branches are tried in index order, each image widened by 1e-9, so a
        point shared by two touching images takes the lower branch index.
        """
        y = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.empty((len(y), depth), dtype=np.intp)
        images = [self.image(i) for i in range(self.n_branches)]
        ratios, shifts = self._affine_arrays()
        for k in range(depth):
            d = np.full(len(y), -1, dtype=np.intp)
            for i, (lo, hi) in reversed(list(enumerate(images))):
                d[(y >= lo - 1e-9) & (y <= hi + 1e-9)] = i
            if np.any(d < 0):
                raise ValueError(
                    f"point {y[d < 0][0]} is off the attractor and carries no digit coding"
                )
            out[:, k] = d
            y = (y - shifts[d]) / ratios[d]
        return out

    def scaling_dimension(self) -> float:
        rs = {float(r) for r in self.ratios}
        if len(rs) != 1:
            raise ValueError("scaling dimension is reported for equal-ratio systems only")
        r = rs.pop()
        return np.log(self.n_branches) / (-np.log(r))

    # -- serialization ------------------------------------------------------

    def to_descriptor(self) -> dict:
        return {
            "branches": [[float(r), float(s)] for r, s in zip(self.ratios, self.shifts)],
            "weights": [float(p) for p in self.weights],
        }


def make_ifs(branches, weights) -> IteratedFunctionSystem:
    """Build a validated system from (ratio, shift) pairs and branch weights."""
    ratios = tuple(r for r, _ in branches)
    shifts = tuple(s for _, s in branches)
    return IteratedFunctionSystem(ratios, shifts, tuple(weights))


def ifs_from_descriptor(desc: dict) -> IteratedFunctionSystem:
    return make_ifs([tuple(b) for b in desc["branches"]], desc["weights"])


def cantor_system() -> IteratedFunctionSystem:
    """Middle-third system tau_0 = x/3, tau_1 = (x+2)/3 with equal weights."""
    return make_ifs(
        [(Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(2, 3))],
        [Fraction(1, 2), Fraction(1, 2)],
    )


def binary_system() -> IteratedFunctionSystem:
    """tau_0 = x/2, tau_1 = (x+1)/2; the invariant measure is Lebesgue on [0,1]."""
    return make_ifs(
        [(Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))],
        [Fraction(1, 2), Fraction(1, 2)],
    )


def bernoulli_system(lam) -> IteratedFunctionSystem:
    """tau_+- (x) = lam*(x +- 1); non-overlapping exactly when lam <= 1/2."""
    return make_ifs([(lam, -lam), (lam, lam)], [Fraction(1, 2), Fraction(1, 2)])


def pushforward_system(ifs: IteratedFunctionSystem, i: int) -> IteratedFunctionSystem:
    """System conjugated by tau_i; its invariant measure is the tau_i push-forward."""
    ri, si = ifs.ratios[i], ifs.shifts[i]
    branches = []
    for rk, sk in zip(ifs.ratios, ifs.shifts):
        branches.append((rk, si * (1 - rk) + ri * sk))
    return make_ifs(branches, ifs.weights)


# -- sampling and moments ---------------------------------------------------


def _word_products(values, depth) -> np.ndarray:
    """prod_k values[b_k] of every depth-``depth`` word, in digit-code order."""
    values = np.asarray(values, dtype=float)
    products = np.ones(1)
    for _ in range(depth):
        products = (values[:, None] * products[None, :]).ravel()
    return products


_WORD_CELLS = 256  # a chaos-game word of G digits has n^G <= 256 codes


def _guide_buckets(n_codes) -> int:
    """Guide-table size of the chaos-game word search.

    16 buckets per code: 256 buckets for the 243 words of a three-branch
    system took 1.3x as long per point (one process, 1e6 points).
    """
    return 16 * n_codes


def chaos_game_sample(ifs: IteratedFunctionSystem, n, stream_id) -> np.ndarray:
    """n independent attractor points from depth-K random digit words.

    Each sample evaluates tau_{d1} o ... o tau_{dK} at the hull midpoint, with
    K the first depth at which the largest ratio r has r^K <= 1e-15, rounded
    up to whole words of G digits, G the largest length with n^G <= 256
    (G = 1 when n > 256).  So the law matches the invariant measure up to the
    r^K contraction tail.

    Word g of a sample is drawn from column g of its ``uniform_matrix`` row, one
    uniform per word: its code is ``searchsorted`` of the uniform in the
    cumulative ``cylinder_masses(G)`` with the last edge at infinity (so a
    rounded total below 1 still picks a word), and the word acts as one affine
    map R[c] x + S[c], applied from the innermost word outward; a point that
    rounding puts past the hull is clipped back onto it.  The search
    starts from a guide table of 16 n^G buckets (Chen & Asau 1974); its size
    moves no value, so it is not part of the replay contract.
    """
    if n < 0:
        raise ValueError(f"sample count n must be >= 0, not {n}")
    if not ifs.is_closed(tol=1e-9):
        raise ValueError("sampling requires branch weights summing to 1")
    n_br = ifs.n_branches
    word = 1
    while n_br ** (word + 1) <= _WORD_CELLS:
        word += 1
    rmax = max(float(r) for r in ifs.ratios)
    groups = -(-int(np.ceil(np.log(1e-15) / np.log(rmax))) // word)
    edges = np.cumsum(ifs.cylinder_masses(word))
    edges[-1] = np.inf
    ratios, _ = ifs._affine_arrays()
    scales, offsets = _word_products(ratios, word), ifs.cell_images(word, 0.0)
    buckets = _guide_buckets(len(edges))
    # guide[b] counts the edges e with fl(e * buckets) < b; fl(. * buckets) is
    # monotone, so every u with fl(u * buckets) >= b has at least that many
    # edges below it.  The extra entry catches u * buckets rounding up to buckets.
    guide = np.searchsorted(edges * buckets, np.arange(buckets + 1))
    lo, hi = ifs.hull

    def block(row, m):
        u = streams.uniform_matrix(stream_id, m, groups, row).T.ravel()
        codes = guide[(u * buckets).astype(np.intp)]
        moving = np.flatnonzero(u > edges[codes])
        while len(moving):
            codes[moving] += 1
            moving = moving[u[moving] > edges[codes[moving]]]
        codes = codes.reshape(groups, m)
        x = np.full(m, 0.5 * (lo + hi))
        for c in codes[::-1]:
            x = scales[c] * x + offsets[c]
        return np.clip(x, lo, hi, out=x)  # R[c] x + S[c] can round an ulp past the hull

    return streams.emit_rows(np.empty(n), 0, block)


def invariant_moments(ifs: IteratedFunctionSystem, max_degree: int):
    """Moments m_k of the invariant measure, solved lowest degree first.

    m_k = sum_i p_i E[(r_i X + s_i)^k] gives a triangular linear system; the
    result is exact Fractions when the system's parameters are exact.
    """
    if not ifs.is_closed(tol=1e-9):
        raise ValueError("moments require branch weights summing to 1")
    probs = ifs.probabilities()
    exact = isinstance(probs[0], Fraction) and all(
        _as_exact(r) is not None and _as_exact(s) is not None
        for r, s in zip(ifs.ratios, ifs.shifts)
    )
    if exact:
        rs = [Fraction(r) for r in ifs.ratios]
        ss = [Fraction(s) for s in ifs.shifts]
        one = Fraction(1)
    else:
        rs = [float(r) for r in ifs.ratios]
        ss = [float(s) for s in ifs.shifts]
        probs = [float(p) for p in probs]
        one = 1.0
    from math import comb

    moments = [one]
    for k in range(1, max_degree + 1):
        lead = sum(p * r**k for p, r in zip(probs, rs))
        rhs = one * 0
        for p, r, s in zip(probs, rs, ss):
            for l in range(k):
                rhs += p * comb(k, l) * (r**l) * (s ** (k - l)) * moments[l]
        moments.append(rhs / (one - lead))
    return moments


def invariant_integrate(ifs: IteratedFunctionSystem, poly_coeffs):
    """Integral of the polynomial sum_k c_k x^k against the invariant measure."""
    coeffs = list(poly_coeffs)
    if len(coeffs) - 1 > 32:
        raise ValueError("polynomial degree capped at 32")
    return _moment_sum(ifs, coeffs)


def _moment_sum(ifs: IteratedFunctionSystem, coeffs):
    """sum_k c_k m_k over the invariant moments m_k, with no degree cap.

    A Fraction when the moments and every coefficient are exact, else a float.
    """
    moments = invariant_moments(ifs, max(len(coeffs) - 1, 0))
    if isinstance(moments[0], Fraction) and all(_as_exact(c) is not None for c in coeffs):
        return sum((Fraction(c) * m for c, m in zip(coeffs, moments)), Fraction(0))
    return float(sum(float(c) * float(m) for c, m in zip(coeffs, moments)))


def closedness_residual(ifs: IteratedFunctionSystem) -> float:
    """Max cylinder defect of mu = sum_i (weight_i) mu o tau_i^(-1), words up to length 6.

    Cylinder masses are products m(w) of the declared weights, so word w has
    defect |sum_i w_i m(w) - m(w)| = |sum_i w_i - 1| m(w), and the largest
    m(w) over lengths 0..6 is max(1, max_i w_i)^6: O(n), not a walk over the
    n^6 words.  A unit weight sum gives residual 0 exactly and a broken sum
    shows up at the root.
    """
    ws = [float(p) for p in ifs.weights]
    return abs(sum(ws) - 1.0) * max(1.0, max(ws)) ** _CLOSEDNESS_DEPTH


# -- Cuntz operators on depth-d coefficient spaces ---------------------------
#
# Functions constant on depth-d cylinders are vectors indexed by digit words;
# word (b1..bd) gets code sum_k b_k * n^(k-1).  In the orthonormal cell
# coordinates the isometries S_i f = g_i^(-1/2) chi_{tau_i(M)} (f o R) become
# scaled row maps (one entry per column), and for two equal branches the
# orthonormal coordinates coincide with Walsh coefficients via the Hadamard
# transform.


def cuntz_relation_residual(ifs: IteratedFunctionSystem, depth: int = 8):
    """Operator-norm residuals of (S_i* S_j - delta_ij I, sum_i S_i S_i* - I).

    In orthonormal cell coordinates S_i is a row map: it sends depth-(d-1)
    cell a to depth-d cell i + n*a with entry e_i = sqrt(phat_i / w_i), phat
    the branch probabilities (normalised weights if the system is not
    closed).  S_i* S_j is e_i e_j on the rows the two maps share, and none
    are shared for i != j (distinct residues mod n), so S_i* S_i - I is
    (e_i^2 - 1) I and the cross products vanish.  sum_i S_i S_i* is diagonal
    with e_i^2 on the rows of S_i.  The 2-norm of a diagonal matrix is its
    largest |entry|, so time and memory are O(n^d).
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, not {depth}")
    n = ifs.n_branches
    probs = ifs.probabilities() if ifs.is_closed(tol=1e-9) else None
    cells = np.arange(n ** (depth - 1))
    res1, diag = 0.0, np.zeros(n**depth)
    for i, w in enumerate(ifs.weights):
        phat = float(probs[i]) if probs is not None else float(w) / ifs.weight_sum
        entry = np.sqrt(phat / float(w))
        res1 = max(res1, abs(entry * entry - 1.0))
        diag[i + n * cells] += entry * entry
    return float(res1), float(np.abs(diag - 1.0).max())


def _require_walsh_pair(ifs: IteratedFunctionSystem):
    if ifs.n_branches != 2 or not ifs.is_closed(tol=1e-12):
        raise ValueError("Walsh coefficient action needs two branches with weight sum 1")
    p = [float(x) for x in ifs.probabilities()]
    if abs(p[0] - 0.5) > 1e-12:
        raise ValueError("Walsh coefficient action needs equal branch weights")


def cuntz_apply(ifs: IteratedFunctionSystem, i: int, coeffs, depth: int) -> np.ndarray:
    """Action of S_i on Walsh coefficients; input depth d-1, output depth d.

    S_i w_S = (w_{S+1} + sigma_i w_{S+1 u {1}}) / sqrt(2) with sigma_i = 1-2i,
    so in subset codes j: j -> {2j, 2j+1}.
    """
    _require_walsh_pair(ifs)
    c = np.asarray(coeffs, dtype=float)
    if len(c) != 2 ** (depth - 1):
        raise ValueError(f"expected 2^{depth - 1} coefficients, got {len(c)}")
    if depth > 24:
        raise ValueError("depth overflow")
    out = np.zeros(2**depth)
    sigma = 1.0 - 2.0 * i
    idx = np.arange(len(c))
    out[2 * idx] = c / np.sqrt(2.0)
    out[2 * idx + 1] = sigma * c / np.sqrt(2.0)
    return out


def cuntz_adjoint_apply(ifs: IteratedFunctionSystem, i: int, coeffs, depth: int) -> np.ndarray:
    """Action of S_i* on Walsh coefficients; input depth d, output depth d-1."""
    _require_walsh_pair(ifs)
    c = np.asarray(coeffs, dtype=float)
    if len(c) != 2**depth:
        raise ValueError(f"expected 2^{depth} coefficients, got {len(c)}")
    sigma = 1.0 - 2.0 * i
    even = c[0::2]
    odd = c[1::2]
    return (even + sigma * odd) / np.sqrt(2.0)
