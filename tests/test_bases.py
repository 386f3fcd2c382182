import itertools
from fractions import Fraction

import numpy as np
import pytest

from noisefield import (
    AtomicMeasure,
    BernoulliMeasure,
    BorelSet,
    DensityMeasure,
    GaussianNoiseField,
    LebesgueMeasure,
    MixedBasis,
    SineBasis,
    TransformedBasis,
    WalshBasis,
    cantor_measure,
    make_basis,
    partition_basis,
    sum_measure,
)


def exact_gram_schmidt_legendre(n, a=-1, b=1, weight=(1,)):
    """Oracle: classical Gram-Schmidt on monomials in exact rationals.

    The pairing is the integral over [a, b] against the polynomial weight
    sum_i weight[i] x^i, from exact moments.  Returns (monomial coefficients,
    squared norm) of the first n orthogonal polynomials; normalization is left
    to the caller to stay exact.
    """
    a, b = Fraction(a), Fraction(b)
    weight = [Fraction(c) for c in weight]

    def moment(k):  # integral of x^k w(x) over [a, b]
        return sum(
            c * (b ** (k + i + 1) - a ** (k + i + 1)) / (k + i + 1) for i, c in enumerate(weight)
        )

    def dot(p, q):
        return sum(c * d * moment(i + j) for i, c in enumerate(p) for j, d in enumerate(q))

    polys = []
    for k in range(n):
        p = [Fraction(0)] * k + [Fraction(1)]
        for q, qn in polys:
            c = dot(p, q) / qn
            p = [u - c * (q[i] if i < len(q) else Fraction(0)) for i, u in enumerate(p)]
        polys.append((p, dot(p, p)))
    return polys


def _oracle_values(oracle, xs):
    """(len(xs), len(oracle)) orthonormal oracle values, each polynomial summed exactly."""
    def value(p, nrm2, x):
        return float(sum(c * Fraction(x) ** i for i, c in enumerate(p))) / np.sqrt(float(nrm2))

    return np.array([[value(p, nrm2, x) for p, nrm2 in oracle] for x in xs])


def test_legendre_matches_exact_gram_schmidt_oracle():
    basis = make_basis(LebesgueMeasure(-1, 1))
    oracle = exact_gram_schmidt_legendre(4)
    xs = np.array([-0.7, -0.2, 0.0, 0.3, 0.9])
    for j, (coeffs, nrm2) in enumerate(oracle):
        oracle_vals = np.array(
            [sum(float(c) * x**i for i, c in enumerate(coeffs)) for x in xs]
        ) / np.sqrt(float(nrm2))
        got = basis.evaluate_block(xs, j + 1)[:, j]
        assert np.allclose(got, oracle_vals, atol=1e-12)


def _one_plus_two_x(x):
    return 1.0 + 2.0 * np.asarray(x, dtype=float)


@pytest.mark.parametrize(
    "measure", [DensityMeasure(0, 1, [1.0, 2.0]), DensityMeasure(0, 1, _one_plus_two_x)]
)
def test_weighted_legendre_matches_exact_gram_schmidt_oracle(measure):
    basis = make_basis(measure)
    xs = np.array([0.03, 0.2, 0.5, 0.71, 0.98])
    oracle = _oracle_values(exact_gram_schmidt_legendre(8, 0, 1, (1, 2)), xs)
    assert np.abs(basis.evaluate_block(xs, 8) - oracle).max() < 1e-10


def test_weighted_legendre_rejects_degenerate_weight():
    basis = make_basis(DensityMeasure(0, 1, lambda x: (np.asarray(x) < 0.05).astype(float)))
    with pytest.raises(ValueError, match="degenerate"):
        basis.evaluate_block(np.array([0.01]), 8)


@pytest.mark.parametrize(
    "density",
    [lambda x: np.asarray(x) ** 20, lambda x: (np.asarray(x) < 0.5).astype(float)],
    ids=["x^20", "step"],
)
def test_weighted_legendre_rejects_ill_conditioned_weight(density):
    basis = make_basis(DensityMeasure(0, 1, density))
    with pytest.raises(ValueError, match="degenerate"):
        basis.evaluate_block(np.array([0.3]), 8)


@pytest.mark.parametrize(
    "density",
    [[1.0, 2.0], [0.0, 2.0], lambda x: np.exp(-20 * np.asarray(x))],
    ids=["1+2x", "2x", "exp"],
)
def test_weighted_legendre_builds_on_well_conditioned_weight(density):
    basis = make_basis(DensityMeasure(0, 1, density))
    assert np.all(np.isfinite(basis.evaluate_block(np.linspace(0, 1, 9), 64)))


def test_legendre_odd_vanishes_at_zero():
    basis = make_basis(LebesgueMeasure(-1, 1))
    assert abs(basis.evaluate(1, 0.0)[0]) < 1e-14


def _test_density(measure):
    """The density of a test measure, evaluated here rather than through the library."""
    if isinstance(measure, LebesgueMeasure):
        return np.ones_like
    if measure.poly is None:  # the one callable density among the cases
        return _one_plus_two_x
    return lambda x: np.polynomial.polynomial.polyval(x, measure.poly)


def _gram_on(basis, n, x, w):
    B = basis.evaluate_block(x, n)
    return (B * w[:, None]).T @ B


def _independent_gram(basis, n, lo, hi, density, atoms=()):
    """<phi_j, phi_k> on a 2048-node Gauss rule and a density evaluated here, not by the basis.

    ``atoms`` are (point, mass) pairs added to the rule.
    """
    u, w = np.polynomial.legendre.leggauss(2048)
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * u
    w = 0.5 * (hi - lo) * w * density(x)
    x = np.concatenate([x, [a for a, _ in atoms]])
    w = np.concatenate([w, [m for _, m in atoms]])
    return _gram_on(basis, n, x, w)


def _cantor_cell_rule(depth):
    """Midpoints of the depth-``depth`` middle-third intervals, each of Cantor mass 2^-depth."""
    words = np.array(list(itertools.product((0, 1), repeat=depth)))
    left = (2 * words) @ (3.0 ** -np.arange(1, depth + 1))
    return left + 0.5 * 3.0**-depth, np.full(len(words), 2.0**-depth)


@pytest.mark.parametrize(
    "measure,tol,n",
    [
        (LebesgueMeasure(-1, 1), 1e-10, 64),
        (LebesgueMeasure(0, 1), 1e-10, 64),
        (DensityMeasure(0, 1, [0.0, 2.0]), 1e-8, 64),
        (DensityMeasure(-1, 2, [1.0, 0.5, 0.25]), 1e-8, 48),
        (DensityMeasure(0, 1, _one_plus_two_x), 1e-8, 64),
    ],
)
def test_legendre_orthonormality(measure, tol, n):
    G = _independent_gram(make_basis(measure), n, *measure.support_hull(), _test_density(measure))
    assert np.abs(G - np.eye(n)).max() < tol


def test_parseval_residual_decreases_to_documented_level():
    # indicator spectra decay like 1/J for polynomial bases, so the
    # set-expansion truncation (512) is larger than the generic default (32)
    cases = [
        (make_basis(LebesgueMeasure(0, 1)), BorelSet.interval(0.2, 0.7), 0.5, [8, 32, 128, 512]),
        (WalshBasis(cantor_measure(), depth=10), BorelSet.interval(0, 1 / 3), 0.5, [2, 16, 256, 1024]),
        (SineBasis(), BorelSet.interval(0.1, 0.4), 0.3, [10, 100, 1000, 10_000]),
    ]
    for basis, A, mass, ladder in cases:
        coeffs = basis.indicator_coefficients(A, ladder[-1])
        resid = [abs(np.sum(coeffs[:J] ** 2) - mass) for J in ladder]
        assert all(b <= a + 1e-12 for a, b in zip(resid[:-1], resid[1:]))
        assert resid[-1] < 1e-3


def test_walsh_cylinder_coefficients():
    mu = cantor_measure()
    basis = WalshBasis(mu, depth=8)
    A = mu.ifs.cylinder_set((0,))
    c = basis.indicator_coefficients(A, 8)
    assert c[0] == pytest.approx(0.5)          # empty product
    assert c[1] == pytest.approx(0.5)          # first digit sign is +1 on the cylinder
    assert c[2] == pytest.approx(0.0)          # second digit is symmetric there
    assert np.allclose(c[3:], 0.0)


def test_walsh_orthonormality_by_cylinder_enumeration():
    # oracle: integrate w_S w_T exactly by summing over depth-d words
    mu = cantor_measure()
    depth = 5
    basis = WalshBasis(mu, depth=depth)
    words = [[(code >> k) & 1 for k in range(depth)] for code in range(2**depth)]
    mass = 0.5**depth

    def w(j, word):
        out = 1.0
        for k in range(depth):
            if (j >> k) & 1:
                out *= 1.0 - 2.0 * word[k]
        return out

    n = 16
    G = np.array([[sum(w(i, wd) * w(j, wd) * mass for wd in words) for j in range(n)] for i in range(n)])
    assert np.abs(G - np.eye(n)).max() < 1e-12
    assert np.abs(basis.gram(n) - G).max() < 1e-12


def test_walsh_empty_set_is_constant_one():
    basis = WalshBasis(cantor_measure(), depth=6)
    xs = np.array([0.0, 1 / 3, 0.5, 0.77, 1.0])
    assert np.allclose(basis.evaluate(0, xs), 1.0)


def test_walsh_rejects_gap_points_for_nonconstant_indices():
    basis = WalshBasis(cantor_measure(), depth=6)
    with pytest.raises(ValueError, match="coding"):
        basis.evaluate(1, 0.5)


def test_walsh_needs_equal_two_branch_weights():
    from noisefield import IFSInvariantMeasure, make_ifs

    lopsided = IFSInvariantMeasure(make_ifs([(1 / 3, 0.0), (1 / 3, 2 / 3)], [0.3, 0.7]))
    with pytest.raises(ValueError, match="equal"):
        WalshBasis(lopsided, depth=4)


def test_sine_point_values():
    basis = SineBasis()
    assert basis.evaluate(0, 0.5)[0] == pytest.approx(0.5)
    assert basis.evaluate(2, 0.25)[0] == pytest.approx(np.sqrt(2) * np.sin(np.pi / 2) / (2 * np.pi))


def test_sine_derivative_orthonormality():
    basis = SineBasis()
    G = basis.gram(16)
    assert np.abs(G - np.eye(16)).max() < 1e-12


def test_atomic_basis_normalization_and_identity():
    mu = AtomicMeasure([(0.0, 0.25), (1.0, 0.75)])
    basis = make_basis(mu)
    assert basis.evaluate(0, 0.0)[0] == pytest.approx(1 / 0.5)
    assert basis.evaluate(1, 1.0)[0] == pytest.approx(1 / np.sqrt(0.75))
    for x0, m in mu.atoms():
        total = sum(basis.evaluate(j, x0)[0] ** 2 for j in range(2))
        assert total == pytest.approx(1.0 / m, rel=1e-14)


def test_atomic_parseval_exact():
    mu = AtomicMeasure([(0.0, 0.25), (1.0, 0.75)])
    basis = make_basis(mu)
    A = BorelSet.interval(-0.5, 0.5)
    c = basis.indicator_coefficients(A, 2)
    assert np.sum(c**2) == pytest.approx(0.25, rel=1e-15)


def test_composite_basis_for_density_plus_atoms():
    mu = sum_measure(LebesgueMeasure(0, 1), AtomicMeasure([(0.5, 2.0)]))
    basis = make_basis(mu, J=257)
    G = _independent_gram(basis, basis.size, 0.0, 1.0, np.ones_like, atoms=[(0.5, 2.0)])
    assert np.abs(G - np.eye(basis.size)).max() < 1e-8
    c = basis.indicator_coefficients(BorelSet.interval(0.4, 0.6), 257)
    assert np.sum(c**2) == pytest.approx(mu.measure_of(BorelSet.interval(0.4, 0.6)), abs=3e-3)


def test_composite_density_block_lives_on_the_density_hull():
    # the atom lies beyond the density's interval; a Legendre block on the
    # whole hull (0, 1.5] would see a density vanishing on a third of it
    mu = sum_measure(LebesgueMeasure(0, 1), AtomicMeasure([(1.5, 1.0)]))
    field = GaussianNoiseField(mu, J=16)
    for A in (BorelSet.interval(0, 2), BorelSet.interval(1, 2)):
        c = field.coefficients(A)
        assert abs(c @ c - mu.measure_of(A)) < 1e-12
    assert np.abs(field.basis.gram(16) - np.eye(16)).max() < 1e-12


def test_density_with_a_gap_gets_a_block_per_piece():
    mu = sum_measure(LebesgueMeasure(0, 1), LebesgueMeasure(2, 3))
    field = GaussianNoiseField(mu, J=16)
    c = field.coefficients(BorelSet.interval(0, 3))
    assert abs(c @ c - 2.0) < 1e-12
    assert np.abs(field.basis.gram(16) - np.eye(16)).max() < 1e-12
    # an atom inside the gap adds its own block
    with_atom = sum_measure(mu, AtomicMeasure([(1.5, 0.5)]))
    field = GaussianNoiseField(with_atom, J=16)
    for A in (BorelSet.interval(0, 3), BorelSet.interval(1, 2), BorelSet.interval(0, 2)):
        c = field.coefficients(A)
        assert abs(c @ c - with_atom.measure_of(A)) < 1e-12
    assert np.abs(field.basis.gram(16) - np.eye(16)).max() < 1e-12
    with pytest.raises(ValueError, match="J >= 2"):
        make_basis(mu, J=1)
    with pytest.raises(ValueError, match="J >= 3"):
        make_basis(with_atom, J=2)


def test_block_counts_in_the_descriptor():
    gap = make_basis(sum_measure(LebesgueMeasure(0, 1), LebesgueMeasure(2, 3)), J=16)
    counts = [block["count"] for block in gap.to_descriptor()["blocks"]]
    assert counts == [8, 8] and sum(counts) == gap.size
    # the remainder of the density functions goes to the first piece
    odd = make_basis(sum_measure(LebesgueMeasure(0, 1), LebesgueMeasure(2, 3)), J=17)
    assert [block["count"] for block in odd.to_descriptor()["blocks"]] == [9, 8]
    composite = _basis_of_each_kind()["composite"]
    desc = composite.to_descriptor()
    assert desc["kind"] == "composite"
    assert desc["blocks"][-1]["count"] == len(composite.measure.atoms())
    assert sum(block["count"] for block in desc["blocks"]) == composite.size


def test_change_of_basis_preserves_gram():
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    legendre = MixedBasis(make_basis(LebesgueMeasure(0, 1)), U)
    walsh = MixedBasis(WalshBasis(cantor_measure(), depth=5), U)
    for G in (
        _independent_gram(legendre, 16, 0.0, 1.0, np.ones_like),
        _gram_on(walsh, 16, *_cantor_cell_rule(5)),
    ):
        assert np.abs(G - np.eye(16)).max() < 1e-10


def test_mixed_basis_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="orthogonal"):
        MixedBasis(make_basis(LebesgueMeasure(0, 1)), np.ones((3, 3)))


def test_transformed_basis_is_orthonormal_under_new_measure():
    mu = DensityMeasure(0, 1, [0.0, 2.0])
    lam = LebesgueMeasure(0, 1)
    base = make_basis(mu)
    moved = TransformedBasis(base, lambda x: 2.0 * np.asarray(x, dtype=float), lam)
    G = _independent_gram(moved, 24, 0.0, 1.0, np.ones_like)
    assert np.abs(G - np.eye(24)).max() < 1e-8


def test_piecewise_basis_diagonalizes_multiplication():
    mu = LebesgueMeasure(0, 1)
    basis = partition_basis(mu, [0.0, 0.5, 1.0], per_piece=6)
    rho = basis.multiplier_eigenvalues([1.0, -1.0])
    assert np.array_equal(rho, np.repeat([1.0, -1.0], 6))
    # functions of the first block vanish on the second piece
    vals = basis.evaluate(2, np.array([0.75, 0.9]))
    assert np.allclose(vals, 0.0)


@pytest.mark.parametrize(
    "measure,tol", [(LebesgueMeasure(0, 1), 0.0), (DensityMeasure(0, 1, _one_plus_two_x), 1e-15)]
)
def test_piecewise_coefficients_match_per_index_extraction(measure, tol):
    edges, per_piece = [0.0, 0.25, 0.5, 0.8, 1.0], 6
    basis = partition_basis(measure, edges, per_piece=per_piece)
    A = BorelSet.interval(0.1, 0.77)  # misses the last piece
    for J in (13, basis.size):
        indicator, inner = np.zeros(J), np.zeros(J)
        for j in range(J):
            piece, sub = divmod(j, per_piece)
            sub_basis = basis.blocks[piece][0]
            piece_A = A.clip(edges[piece], edges[piece + 1])
            if not piece_A.is_empty:
                indicator[j] = sub_basis.indicator_coefficients(piece_A, sub + 1)[sub]
            inner[j] = sub_basis.inner_coefficients(np.cos, sub + 1)[sub]
        assert np.abs(basis.indicator_coefficients(A, J) - indicator).max() <= tol
        # a BLAS matrix-vector product may sum a row in an order that depends on the row count
        assert np.abs(basis.inner_coefficients(np.cos, J) - inner).max() <= 1e-15


def test_partition_basis_on_a_constant_density_gets_closed_form_blocks():
    mu = DensityMeasure(0, 1, [2.0])
    basis = partition_basis(mu, [0.0, 0.25, 0.5, 1.0], per_piece=6)
    # a closed-form Legendre block has no size cap; a QR block stops at its degree cap
    assert all(sub.size is None for sub, _, _ in basis.blocks)
    # a whole cell pairs with its block's constant function alone, exactly
    A = BorelSet.interval(0.25, 1.0)
    c = basis.indicator_coefficients(A, basis.size)
    assert np.flatnonzero(c).tolist() == [6, 12]
    assert c @ c == pytest.approx(mu.measure_of(A), abs=1e-15)
    assert np.abs(basis.gram(basis.size) - np.eye(basis.size)).max() < 1e-12


def test_partition_basis_validation():
    with pytest.raises(ValueError, match="partition must span the support hull"):
        partition_basis(LebesgueMeasure(0, 1), [0.0, 0.5])
    with pytest.raises(ValueError, match="partition must span the support hull"):
        partition_basis(DensityMeasure(0, 1, [1.0, 2.0]), [-0.5, 0.5, 1.0])
    for edges in ([0.0, 0.5, 0.5, 1.0], [0.0, 0.7, 0.3, 1.0]):
        with pytest.raises(ValueError, match="partition edges must increase"):
            partition_basis(LebesgueMeasure(0, 1), edges)
    with_atom = sum_measure(LebesgueMeasure(0, 1), AtomicMeasure([(0.5, 1.0)]))
    for mu in (with_atom, cantor_measure()):
        with pytest.raises(ValueError, match="piecewise basis needs an absolutely continuous measure"):
            partition_basis(mu, [0.0, 0.5, 1.0])


def _basis_of_each_kind():
    lebesgue = LebesgueMeasure(0, 1)
    atoms = AtomicMeasure([(0.1, 0.5), (0.4, 1.5), (0.9, 0.25)])
    rotation = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    return {
        "legendre": make_basis(lebesgue),
        "legendre-weighted": make_basis(DensityMeasure(0, 1, _one_plus_two_x)),
        "walsh-cantor": WalshBasis(cantor_measure(), depth=5),
        "sine-brownian": SineBasis(),
        "atomic-indicators": make_basis(atoms),
        "composite": make_basis(sum_measure(DensityMeasure(0, 1, [1.0, 0.5]), atoms), J=12),
        "piecewise-legendre": partition_basis(
            DensityMeasure(0, 1, _one_plus_two_x), [0.0, 0.3, 0.6, 1.0], per_piece=4
        ),
        "transformed": TransformedBasis(
            make_basis(DensityMeasure(0, 1, [0.0, 2.0])), lambda x: 2.0 * np.asarray(x), lebesgue
        ),
        "mixed": MixedBasis(make_basis(lebesgue), rotation),
    }


@pytest.mark.parametrize("kind", list(_basis_of_each_kind()))
def test_evaluate_is_a_column_of_the_block(kind):
    basis = _basis_of_each_kind()[kind]
    if kind == "walsh-cantor":
        xs = cantor_measure().canonical_grid(32)
    else:
        xs = np.concatenate([np.linspace(0.0, 1.0, 41), [0.1, 0.4, 0.9]])
    J = basis.size or 12
    block = basis.evaluate_block(xs, J)
    assert block.shape == (len(xs), J)
    for j in range(J):
        assert np.array_equal(basis.evaluate(j, xs), block[:, j]), j


def test_make_basis_rejects_bernoulli_kind():
    with pytest.raises(ValueError, match="bernoulli-convolution"):
        make_basis(BernoulliMeasure(0.7))


def test_index_bound_validation():
    basis = make_basis(AtomicMeasure([(0, 1.0)]))
    with pytest.raises(ValueError, match="exceeds"):
        basis.indicator_coefficients(BorelSet.interval(-1, 1), 5)
