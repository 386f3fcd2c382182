"""Orthonormal bases of L2(mu) for the supported measure kinds.

Kinds and their exactness:

* ``legendre`` -- orthonormal polynomials against Lebesgue or a weighted
  density.  Constant weights use closed-form shifted Legendre polynomials
  with exact indicator coefficients; general weights take one Householder
  QR of the weighted Legendre Vandermonde matrix at Gauss nodes (degree cap
  64), and the basis is held as Legendre coefficients for stable evaluation.
* ``walsh-cantor`` -- Rademacher products over the digit coding of a
  two-branch equal-weight IFS attractor.  Indexing: the subset S of digit
  positions is the bit pattern of the index j, ordered by (max element,
  binary code), which coincides with ordering by j.  Indicator coefficients
  transform the measure's cell masses, so cylinder coefficients are exact.
  The digit coding and the cell images come from ``ifs.IteratedFunctionSystem``.
* ``sine-brownian`` -- phi_0(t) = t, phi_k(t) = sqrt(2) sin(k pi t)/(k pi) on
  [0, 1]; orthonormal in the first-derivative inner product.  Set
  coefficients are the increments phi_j(b) - phi_j(a), which realize
  Lebesgue noise through increments of the associated path process.
* ``atomic-indicators`` -- normalized indicators of atoms.

Block sums: ``PiecewiseBasis`` takes the leading functions of sub-bases on
disjoint supports block by block.  Its Legendre blocks come from one rule,
``_density_component`` (closed form on a constant density): one per cell of
an interval partition (``partition_basis``), or the blocks of
``regular_basis``, the basis of a measure's density and atom parts (used by
``make_basis`` and ``sigma.SigmaLift``): one on each connected piece of the
density's support, so a gap or a far atom leaves every block well
conditioned, then an atom block.  Wrappers: transformed (an ONB of L2(mu)
carried to L2(lambda) by multiplying with sqrt(d mu/d lambda)) and finite
orthogonal mixes of the leading functions.

Evaluation: ``evaluate_block(xs, J)``, the (len(xs), J) values of the first
J functions, is the one evaluation every basis defines; ``evaluate(j, x)`` is
its column j.  Coefficient rules shared by several kinds live once on
``OrthonormalBasis``: a ``SimpleFunction`` pairs through its terms'
indicator coefficients (Legendre and Walsh), and indicator coefficients by
Gauss quadrature against the density serve weighted Legendre and transformed
bases.

Grams: every kind but the sine family pairs its functions in one place,
``OrthonormalBasis.gram``, over the points and weights of its
``_pairing_rule``: by default ``_density_rule``, a Gauss rule on the hull
times the density, at 512 nodes (the weighted QR reads it at 256); else
atoms and their masses, one point per Walsh cell, or the blocks' rules
concatenated.  Legendre and transformed inner coefficients pair over the
same rule.  The sine family pairs derivatives and keeps its own
panel-quadrature gram.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre as L

from . import quadrature
from .measures import (
    AtomicMeasure,
    BernoulliMeasure,
    DensityMeasure,
    IFSInvariantMeasure,
    LebesgueMeasure,
    SigmaFiniteMeasure,
    SimpleFunction,
    SumMeasure,
    _reject_unbounded,
)
from .sets import BorelSet

_GS_DEGREE_CAP = 64
_MAX_COND = 1e8
_INNER_REFINE = 3  # Walsh inner coefficients sample f at 2**_INNER_REFINE points per cell
_QUAD_NODES = 256  # Gauss nodes of the weighted QR and density indicators; pairings take twice
DEFAULT_J = {"legendre": 32, "walsh-cantor": 1024, "sine-brownian": 10_000}


class OrthonormalBasis:
    kind = "abstract"

    def __init__(self, measure):
        self.measure = measure

    @property
    def size(self):
        """Largest usable index bound, or None when unbounded."""
        return None

    def evaluate(self, j, x):
        """phi_j at the points x: column j of ``evaluate_block``."""
        return self.evaluate_block(x, j + 1)[:, j]

    def evaluate_block(self, xs, J) -> np.ndarray:
        """(len(xs), J) array of phi_j(x) for j < J, the one evaluation a basis defines."""
        raise NotImplementedError

    def indicator_coefficients(self, A: BorelSet, J) -> np.ndarray:
        raise NotImplementedError

    def inner_coefficients(self, f, J) -> np.ndarray:
        """<phi_j, f> in L2(mu) for j < J."""
        raise NotImplementedError

    def _simple_coefficients(self, f: SimpleFunction, J) -> np.ndarray:
        """<phi_j, f> for a simple function: its terms' indicator coefficients, weighted."""
        out = np.zeros(J)
        for a_i, s_i in f.terms:
            out += a_i * self.indicator_coefficients(s_i, J)
        return out

    def _density_indicator(self, A: BorelSet, J) -> np.ndarray:
        """<phi_j, 1_A> by a Gauss rule times the density on each piece of A."""
        out = np.zeros(J)
        dens = self.measure.density_fn()
        for lo, hi in A.clip(*self.measure.support_hull()).intervals:
            xq, wq = quadrature.nodes_weights(lo, hi, _QUAD_NODES)
            out += (self.evaluate_block(xq, J).T * np.asarray(dens(xq), dtype=float)) @ wq
        return out

    def _density_rule(self, nodes):
        """A ``nodes``-point Gauss rule on the support hull, its weights times the density."""
        xq, wq = quadrature.nodes_weights(*self.measure.support_hull(), nodes)
        return xq, wq * np.asarray(self.measure.density_fn()(xq), dtype=float)

    def _pair(self, f, J) -> np.ndarray:
        """<phi_j, f> for j < J, summed over the pairing rule that ``gram`` uses."""
        x, w = self._pairing_rule(J)
        return (self.evaluate_block(x, J).T * _reject_unbounded(f, x)) @ w

    def gram(self, n) -> np.ndarray:
        """<phi_j, phi_k> for j, k < n, summed over the basis's pairing rule."""
        self._check_J(n)
        x, w = self._pairing_rule(n)
        B = self.evaluate_block(x, n)
        return (B * w[:, None]).T @ B

    def _pairing_rule(self, n):
        """(points, weights) on which the first n functions pair: by default the density rule."""
        return self._density_rule(2 * _QUAD_NODES)

    def to_descriptor(self) -> dict:
        return {"kind": self.kind}

    def _check_J(self, J):
        if J < 1:
            raise ValueError("index bound must be >= 1")
        if self.size is not None and J > self.size:
            raise ValueError(f"index bound {J} exceeds basis size {self.size}")


class LegendreBasis(OrthonormalBasis):
    kind = "legendre"

    def __init__(self, measure):
        super().__init__(measure)
        if measure.atoms() or measure.singular_parts():
            raise ValueError("legendre basis needs a purely absolutely continuous measure")
        self.a, self.b = measure.support_hull()
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("legendre basis needs a finite interval")
        self._const_weight = None
        if isinstance(measure, LebesgueMeasure):
            self._const_weight = 1.0
        elif isinstance(measure, DensityMeasure) and measure.poly is not None and len(measure.poly) == 1:
            self._const_weight = float(measure.poly[0])
        elif isinstance(measure, IFSInvariantMeasure) and measure.density_fn() is not None:
            self._const_weight = 1.0 / (self.b - self.a)
        self._coeffs = None  # row j = Legendre coefficients of phi_j, built at the cap

    @property
    def size(self):
        return None if self._const_weight is not None else _GS_DEGREE_CAP

    def _u(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.a) / (self.b - self.a) - 1.0

    # -- constant-weight closed form ----------------------------------------

    def _const_block(self, xs, J):
        w0, length = self._const_weight, self.b - self.a
        V = L.legvander(self._u(xs), J - 1)
        scale = np.sqrt((2 * np.arange(J) + 1) / (w0 * length))
        return V * scale[None, :]

    def _const_indicator(self, A, J):
        w0, length = self._const_weight, self.b - self.a
        out = np.zeros(J)
        for lo, hi in A.clip(self.a, self.b).intervals:
            V = L.legvander(self._u(np.array([lo, hi])), J)
            out[0] += np.sqrt(w0 / length) * w0 * (hi - lo) / w0
            js = np.arange(1, J)
            prim = (V[:, 2 : J + 1] - V[:, 0 : J - 1]) / (2 * js + 1)[None, :]
            out[1:] += (
                np.sqrt((2 * js + 1) / (w0 * length)) * w0 * (length / 2.0) * (prim[1] - prim[0])
            )
        return out

    # -- weighted QR ------------------------------------------------------------

    def _ensure_coeffs(self):
        # Householder QR of sqrt(w) V, V the Legendre Vandermonde matrix at the
        # Gauss nodes: P_k = sum_{i<=k} R_ik phi_i, so phi = V R^-1.  Rows of R
        # flipped to diag(R) > 0 give every phi_k a positive leading
        # coefficient, the basis Gram-Schmidt on P_0, P_1, ... would give.
        if self._coeffs is not None:
            return
        xq, wq = self._density_rule(_QUAD_NODES)
        V = L.legvander(self._u(xq), _GS_DEGREE_CAP - 1)
        R = np.linalg.qr(np.sqrt(wq)[:, None] * V, mode="r")
        # past a 2-norm cond(R) of ~1e8 the coefficients of R^-1 are too large
        # to evaluate accurately off the nodes
        if not (np.all(np.isfinite(R)) and np.linalg.cond(R) <= _MAX_COND):
            raise ValueError("weight is too degenerate for this degree")
        self._coeffs = np.linalg.inv(R * np.sign(np.diag(R))[:, None]).T

    # -- public surface -------------------------------------------------------

    def evaluate_block(self, xs, J):
        self._check_J(J)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if self._const_weight is not None:
            return self._const_block(xs, J)
        self._ensure_coeffs()
        V = L.legvander(self._u(xs), _GS_DEGREE_CAP - 1)
        return V @ self._coeffs[:J].T

    def indicator_coefficients(self, A, J):
        self._check_J(J)
        if self._const_weight is not None:
            return self._const_indicator(A, J)
        return self._density_indicator(A, J)

    def inner_coefficients(self, f, J):
        self._check_J(J)
        if isinstance(f, SimpleFunction):
            return self._simple_coefficients(f, J)
        return self._pair(f, J)

    def to_descriptor(self):
        return {"kind": self.kind, "measure": self.measure.to_descriptor()}


def _fwht(v: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform, pairing (-1)^popcount(j&c)."""
    v = np.asarray(v, dtype=float)
    h = 1
    while h < len(v):
        a, b = v.reshape(-1, 2, h).transpose(1, 0, 2)
        v = np.stack([a + b, a - b], axis=1).ravel()
        h *= 2
    return v


class WalshBasis(OrthonormalBasis):
    # The digit coding and cylinder images come from the IFS layer.  Indicator
    # coefficients transform the measure's cell masses, which are exact product
    # masses for cells inside the set, so a cylinder gets exact coefficients
    # whether or not it carries its word.
    kind = "walsh-cantor"

    def __init__(self, measure: IFSInvariantMeasure, depth: int = 10):
        super().__init__(measure)
        ifs = measure.ifs
        if ifs.n_branches != 2:
            raise ValueError("walsh basis needs a two-branch system")
        p = [float(q) for q in ifs.probabilities()]
        if abs(p[0] - 0.5) > 1e-12:
            raise ValueError("walsh basis needs equal branch weights")
        if not 1 <= depth <= 24:
            raise ValueError("depth out of range")
        self.ifs = ifs
        self.depth = depth

    @property
    def size(self):
        return 2**self.depth

    def evaluate_block(self, xs, J):
        self._check_J(J)
        levels = (J - 1).bit_length()
        rad = 1.0 - 2.0 * self.ifs.digits(xs, levels)  # column k = r_{k+1}(x)
        out = np.ones((len(rad), J))
        for k in range(levels):
            h = 1 << k
            w = min(h, J - h)
            out[:, h : h + w] = out[:, :w] * rad[:, k : k + 1]
        return out

    def indicator_coefficients(self, A, J):
        self._check_J(J)
        masses = self.measure.cell_masses(A, self.depth)
        return _fwht(masses)[:J]

    def inner_coefficients(self, f, J):
        self._check_J(J)
        if isinstance(f, SimpleFunction):
            return self._simple_coefficients(f, J)
        deep = self.depth + _INNER_REFINE
        lo, hi = self.ifs.hull
        vals = _reject_unbounded(f, self.ifs.cell_images(deep, 0.5 * (lo + hi)))
        deep_masses = vals * (0.5**deep)
        cell_integrals = deep_masses.reshape(2**_INNER_REFINE, 2**self.depth).sum(axis=0)
        return _fwht(cell_integrals)[:J]

    def _pairing_rule(self, n):
        # one point per depth-`levels` cell, each of mass 2^-levels; the cell
        # midpoint codes unambiguously even where branch images touch
        levels = max((n - 1).bit_length(), 1)
        lo, hi = self.ifs.hull
        return self.ifs.cell_images(levels, 0.5 * (lo + hi)), np.full(2**levels, 2.0**-levels)

    def to_descriptor(self):
        return {"kind": self.kind, "depth": self.depth, "ifs": self.ifs.to_descriptor()}


class SineBasis(OrthonormalBasis):
    """phi_0(t) = t and phi_k(t) = sqrt(2) sin(k pi t)/(k pi) on [0, 1]."""

    kind = "sine-brownian"

    def __init__(self, measure=None):
        super().__init__(measure if measure is not None else LebesgueMeasure(0.0, 1.0))
        lo, hi = self.measure.support_hull()
        if abs(lo) > 1e-12 or abs(hi - 1.0) > 1e-12:
            raise ValueError("sine basis is built on the unit interval")

    def evaluate_block(self, xs, J):
        self._check_J(J)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ks = np.arange(1, J)
        out = np.empty((len(xs), J))
        out[:, 0] = xs
        out[:, 1:] = np.sqrt(2.0) * np.sin(np.outer(xs, ks) * np.pi) / (ks * np.pi)[None, :]
        return out

    def derivative_block(self, xs, J):
        self._check_J(J)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ks = np.arange(1, J)
        out = np.empty((len(xs), J))
        out[:, 0] = 1.0
        out[:, 1:] = np.sqrt(2.0) * np.cos(np.outer(xs, ks) * np.pi)
        return out

    def indicator_coefficients(self, A, J):
        # increment pairing: sum over pieces of phi_j(hi) - phi_j(lo)
        self._check_J(J)
        out = np.zeros(J)
        for lo, hi in A.clip(0.0, 1.0).intervals:
            vals = self.evaluate_block(np.array([lo, hi]), J)
            out += vals[1] - vals[0]
        return out

    def inner_coefficients(self, f, J):
        raise NotImplementedError(
            "the sine family is orthonormal in the derivative pairing; "
            "general integrands are not supported"
        )

    def gram(self, n):
        self._check_J(n)
        edges = np.linspace(0.0, 1.0, 4 * max(n, 2))
        D = self.derivative_block(quadrature.panel_rule(edges, 12)[0], n)
        G = np.empty((n, n))
        for j in range(n):
            for k in range(j, n):
                G[j, k] = G[k, j] = quadrature.integrate_panels(
                    lambda x, j=j, k=k: (D[:, j] * D[:, k]).reshape(x.shape), edges, 12
                )
        return G


class AtomicBasis(OrthonormalBasis):
    kind = "atomic-indicators"

    def __init__(self, measure: AtomicMeasure):
        super().__init__(measure)
        self._atoms = measure.atoms()
        if not self._atoms:
            raise ValueError("zero measure has no basis")

    @property
    def size(self):
        return len(self._atoms)

    def evaluate_block(self, xs, J):
        self._check_J(J)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        at_atom = [AtomicMeasure([atom]).atom_mass_at(xs) > 0 for atom in self._atoms[:J]]
        scale = 1.0 / np.sqrt([m for _, m in self._atoms[:J]])
        return np.where(np.column_stack(at_atom), scale, 0.0)

    def indicator_coefficients(self, A, J):
        self._check_J(J)
        return np.array(
            [math.sqrt(m) if A.contains(x) else 0.0 for x, m in self._atoms[:J]]
        )

    def inner_coefficients(self, f, J):
        self._check_J(J)
        xs, ms = np.array(self._atoms[:J]).T
        return _reject_unbounded(f, xs) * np.sqrt(ms)

    def _pairing_rule(self, n):
        return np.array([x for x, _ in self._atoms]), np.array([m for _, m in self._atoms])

    def to_descriptor(self):
        return {"kind": self.kind, "measure": self.measure.to_descriptor()}


class PiecewiseBasis(OrthonormalBasis):
    """Sub-bases on disjoint supports, their leading functions taken block by block.

    Block k is (sub-basis, support (lo, hi], count): its first ``count``
    functions at the points of the support, 0 elsewhere; the blocks come in
    index order.  ``partition_basis`` and ``regular_basis`` build them.  An
    atom block makes the basis ``composite``; the other blocks take the value
    0 at its atoms, so the blocks stay orthogonal in L2(mu).
    """

    def __init__(self, measure, blocks):
        super().__init__(measure)
        self.blocks = list(blocks)
        self._atom_block = next((b for b, _, _ in self.blocks if isinstance(b, AtomicBasis)), None)
        self.kind = "piecewise-legendre" if self._atom_block is None else "composite"

    @property
    def size(self):
        return sum(count for _, _, count in self.blocks)

    def _spans(self, J):
        """(sub-basis, support, first index, count) of each block's functions among the first J."""
        self._check_J(J)
        start = 0
        for basis, support, count in self.blocks:
            if start < J:
                yield basis, support, start, min(count, J - start)
            start += count

    def evaluate_block(self, xs, J):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros((len(xs), J))
        atoms = self._atom_block
        at_atom = None if atoms is None else atoms.measure.atom_mass_at(xs) > 0
        for basis, (lo, hi), start, n in self._spans(J):
            inside = (xs > lo) & (xs <= hi)
            if np.any(inside):
                out[inside, start : start + n] = basis.evaluate_block(xs[inside], n)
            if at_atom is not None and basis is not atoms:
                out[at_atom, start : start + n] = 0.0
        return out

    def indicator_coefficients(self, A, J):
        out = np.zeros(J)
        for basis, (lo, hi), start, n in self._spans(J):
            piece_A = A.clip(lo, hi)
            if not piece_A.is_empty:
                out[start : start + n] = basis.indicator_coefficients(piece_A, n)
        return out

    def inner_coefficients(self, f, J):
        out = np.zeros(J)
        for basis, _, start, n in self._spans(J):
            out[start : start + n] = basis.inner_coefficients(f, n)
        return out

    def _pairing_rule(self, n):
        rules = [basis._pairing_rule(count) for basis, _, count in self.blocks]
        return tuple(np.concatenate(parts) for parts in zip(*rules))

    def multiplier_eigenvalues(self, piece_values) -> np.ndarray:
        """Eigenvalues of multiplication by the function with one value per block."""
        vals = np.asarray(piece_values, dtype=float)
        if len(vals) != len(self.blocks):
            raise ValueError("need one value per piece")
        return np.repeat(vals, [count for _, _, count in self.blocks])

    def to_descriptor(self):
        blocks = [{"support": list(support), "count": count} for _, support, count in self.blocks]
        return {"kind": self.kind, "measure": self.measure.to_descriptor(), "blocks": blocks}


class TransformedBasis(OrthonormalBasis):
    """{phi_j sqrt(rho)} on L2(lambda), given an ONB {phi_j} of L2(mu), rho = d mu/d lambda."""

    kind = "transformed"

    def __init__(self, base: OrthonormalBasis, rho, lam: SigmaFiniteMeasure):
        super().__init__(lam)
        self.base = base
        self.rho = rho

    @property
    def size(self):
        return self.base.size

    def evaluate_block(self, xs, J):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return self.base.evaluate_block(xs, J) * np.sqrt(np.asarray(self.rho(xs), dtype=float))[
            :, None
        ]

    def indicator_coefficients(self, A, J):
        return self._density_indicator(A, J)

    def inner_coefficients(self, f, J):
        return self._pair(f, J)


class MixedBasis(OrthonormalBasis):
    """Finite orthogonal mix of the first n functions of a base ONB."""

    kind = "mixed"

    def __init__(self, base: OrthonormalBasis, U: np.ndarray):
        super().__init__(base.measure)
        U = np.asarray(U, dtype=float)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError("mixing matrix must be square")
        if np.max(np.abs(U @ U.T - np.eye(len(U)))) > 1e-10:
            raise ValueError("mixing matrix must be orthogonal")
        self.base = base
        self.U = U

    @property
    def size(self):
        return self.base.size

    def _mix(self, vec):
        n = len(self.U)
        out = np.array(vec, dtype=float, copy=True)
        out[:n] = self.U @ out[:n]
        return out

    def evaluate_block(self, xs, J):
        block = self.base.evaluate_block(xs, max(J, len(self.U)))
        n = len(self.U)
        out = block.copy()
        out[:, :n] = block[:, :n] @ self.U.T
        return out[:, :J]

    def indicator_coefficients(self, A, J):
        base = self.base.indicator_coefficients(A, max(J, len(self.U)))
        return self._mix(base)[:J]

    def inner_coefficients(self, f, J):
        base = self.base.inner_coefficients(f, max(J, len(self.U)))
        return self._mix(base)[:J]

    def _pairing_rule(self, n):
        return self.base._pairing_rule(max(n, len(self.U)))


def make_basis(measure: SigmaFiniteMeasure, J: int | None = None) -> OrthonormalBasis:
    """Basis for the measure's kind; J is the intended index bound."""
    if isinstance(measure, BernoulliMeasure):
        raise ValueError(
            "no orthonormal basis for kind 'bernoulli-convolution': "
            "these laws are sampled, not expanded"
        )
    if isinstance(measure, IFSInvariantMeasure):
        depth = 10 if J is None else max(1, int(math.ceil(math.log2(max(J, 2)))))
        return WalshBasis(measure, depth=depth)
    if isinstance(measure, (LebesgueMeasure, DensityMeasure, AtomicMeasure, SumMeasure)):
        if measure.singular_parts():
            raise ValueError("no basis for sums holding singular components")
        return regular_basis(measure, J)
    raise ValueError(f"no basis construction for measure kind {measure.kind!r}")


def regular_basis(measure: SigmaFiniteMeasure, J: int | None = None) -> OrthonormalBasis:
    """Basis of the measure's density and atom parts; singular parts are not read.

    A Legendre block on each connected piece of the union of the hulls of the
    parts that carry the density, then an atom block; a lone density block
    without atoms is the basis itself.  J is the intended index bound of the
    whole basis: its J - #atoms density functions (``DEFAULT_J["legendre"]``
    when J is None) are shared equally by the pieces, the first taking the
    remainder.
    """
    dens, atoms = measure.density_fn(), measure.atoms()
    if dens is None:
        return AtomicBasis(AtomicMeasure(atoms))
    if isinstance(measure, (LebesgueMeasure, DensityMeasure)):
        return LegendreBasis(measure)
    pieces = _density_pieces(measure)
    if len(pieces) == 1 and not atoms:
        return LegendreBasis(_density_component(dens, *pieces[0]))
    n_density = DEFAULT_J["legendre"] if J is None else J - len(atoms)
    if n_density < len(pieces):
        raise ValueError(
            f"{len(pieces)} density pieces and {len(atoms)} atoms need J >= {len(pieces) + len(atoms)}"
        )
    share, extra = divmod(n_density, len(pieces))
    blocks = [
        (LegendreBasis(_density_component(dens, lo, hi)), (lo, hi), share + (k == 0) * extra)
        for k, (lo, hi) in enumerate(pieces)
    ]
    if len(blocks) == 1:  # a lone density block is evaluated on the whole line, as a Legendre basis is
        blocks[0] = (blocks[0][0], (-math.inf, math.inf), n_density)
    if atoms:
        blocks.append((AtomicBasis(AtomicMeasure(atoms)), (-math.inf, math.inf), len(atoms)))
    return PiecewiseBasis(measure, blocks)


def partition_basis(measure, edges, per_piece: int = 8) -> PiecewiseBasis:
    """A Legendre block of ``per_piece`` functions per cell: cell constants multiply diagonally."""
    edges = [float(e) for e in edges]
    lo, hi = measure.support_hull()
    if abs(edges[0] - lo) > 1e-12 or abs(edges[-1] - hi) > 1e-12:
        raise ValueError("partition must span the support hull")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("partition edges must increase")
    if measure.atoms() or measure.singular_parts():
        raise ValueError("piecewise basis needs an absolutely continuous measure")
    dens = measure.density_fn()
    blocks = [(LegendreBasis(_density_component(dens, a, b)), (a, b), per_piece)
              for a, b in zip(edges[:-1], edges[1:])]
    return PiecewiseBasis(measure, blocks)


def _density_pieces(measure):
    """Connected pieces, in order, of the union of the hulls of the parts carrying the density."""
    if not isinstance(measure, SumMeasure):
        return [measure.support_hull()]
    carriers = [m for m in measure.components if m.density_fn() is not None]
    pieces = []
    for lo, hi in sorted(h for m in carriers for h in _density_pieces(m)):
        if pieces and lo <= pieces[-1][1]:
            pieces[-1] = (pieces[-1][0], max(pieces[-1][1], hi))
        else:
            pieces.append((lo, hi))
    return pieces


def _density_component(dens, lo, hi) -> DensityMeasure:
    """Wrap a density callable, recognizing constants to unlock the closed form."""
    probe = np.asarray(dens(np.linspace(lo, hi, 259)[1:-1]), dtype=float)
    if np.ptp(probe) < 1e-12 * max(np.abs(probe).max(), 1.0):
        return DensityMeasure(lo, hi, [float(probe[0])])
    return DensityMeasure(lo, hi, lambda x, d=dens: np.asarray(d(x), dtype=float))


def default_truncation(basis: OrthonormalBasis) -> int:
    if basis.kind in DEFAULT_J:
        J = DEFAULT_J[basis.kind]
        return J if basis.size is None else min(J, basis.size)
    if basis.size is not None:
        return basis.size
    return DEFAULT_J["legendre"]
