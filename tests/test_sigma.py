import tracemalloc

import numpy as np
import pytest

from noisefield import (
    AtomicMeasure,
    BorelSet,
    DensityMeasure,
    GaussianNoiseField,
    LebesgueMeasure,
    SigmaFunction,
    SigmaLift,
    add,
    cantor_measure,
    correlated_pair,
    equivalence_residual,
    equivalent,
    inner_product,
    lift,
    sample_xi,
    sum_measure,
)


def const(v):
    return lambda x: np.full_like(np.asarray(x, dtype=float), v)


def ident(x):
    return np.asarray(x, dtype=float)


LEB = LebesgueMeasure(0, 1)


# -- inner product -----------------------------------------------------------------


def test_inner_product_scaled_measures():
    F1 = SigmaFunction(const(1.0), LEB)
    F2 = SigmaFunction(const(1.0), DensityMeasure(0, 1, [4.0]))
    assert inner_product(F1, F2) == pytest.approx(2.0, abs=1e-12)


def test_inner_product_reduces_to_l2():
    F = SigmaFunction(ident, LEB)
    assert inner_product(F, F) == pytest.approx(1 / 3, abs=1e-12)


def test_norm_nonnegative_and_zero_function():
    Z = SigmaFunction(const(0.0), LEB)
    assert inner_product(Z, Z) == 0.0
    F = SigmaFunction(lambda x: np.cos(x), LEB)
    assert inner_product(F, F) > 0


def test_inner_product_symmetry_and_bilinearity():
    family = [
        SigmaFunction(const(1.0), LEB),
        SigmaFunction(ident, LEB),
        SigmaFunction(lambda x: np.cos(x), DensityMeasure(0, 1, [2.0, 1.0])),
        SigmaFunction(lambda x: np.sin(2 * x), DensityMeasure(0, 1, [0.5])),
        SigmaFunction(const(0.5), AtomicMeasure([(0.25, 1.0), (0.75, 2.0)])),
        SigmaFunction(ident, cantor_measure()),
    ]
    for F in family:
        for G in family:
            assert inner_product(F, G) == pytest.approx(inner_product(G, F), abs=1e-9)
    # bilinearity through add() on the absolutely continuous members
    F, G, H = family[0], family[1], family[2]
    lhs = inner_product(add(F, G), H)
    rhs = inner_product(F, H) + inner_product(G, H)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_cauchy_schwarz_on_family():
    family = [
        SigmaFunction(const(1.0), LEB),
        SigmaFunction(ident, DensityMeasure(0, 1, [0.0, 2.0])),
        SigmaFunction(lambda x: np.exp(-x), LEB),
    ]
    for F in family:
        for G in family:
            lhs = inner_product(F, G) ** 2
            rhs = inner_product(F, F) * inner_product(G, G)
            assert lhs <= rhs + 1e-10


def test_embedding_is_isometric():
    # the map f -> f sqrt(d mu) carries the L2(mu) norm over exactly
    for mu in (LEB, DensityMeasure(0, 1, [0.0, 2.0]), cantor_measure()):
        F = SigmaFunction(lambda x: np.cos(2 * x), mu)
        direct = mu.integrate(lambda x: np.cos(2 * x) ** 2)[0]
        assert inner_product(F, F) == pytest.approx(direct, abs=1e-8)


def test_mutually_singular_classes_are_orthogonal():
    F = SigmaFunction(const(1.0), cantor_measure())
    G = SigmaFunction(const(1.0), LEB)
    assert inner_product(F, G) == 0.0


# -- sums --------------------------------------------------------------------------


def test_additive_identity():
    F = SigmaFunction(lambda x: np.cos(x), LEB)
    Z = SigmaFunction(const(0.0), LEB)
    assert equivalent(add(F, Z), F)


def test_sum_of_equal_units_has_norm_four():
    F = SigmaFunction(const(1.0), LEB)
    S = add(F, F)
    assert inner_product(S, S) == pytest.approx(4.0, abs=1e-10)


def test_parallelogram_expansion():
    F1 = SigmaFunction(ident, LEB)
    F2 = SigmaFunction(const(1.0), DensityMeasure(0, 1, [2.0]))
    S = add(F1, F2)
    lhs = inner_product(S, S)
    rhs = (
        inner_product(F1, F1) + 2 * inner_product(F1, F2) + inner_product(F2, F2)
    )
    assert lhs == pytest.approx(rhs, abs=1e-9)


# -- equivalence --------------------------------------------------------------------


def test_equivalence_scaled_representative():
    F = SigmaFunction(const(1.0), LEB)
    G = SigmaFunction(const(1 / np.sqrt(2)), DensityMeasure(0, 1, [2.0]))
    assert equivalent(F, G)


def test_non_equivalent_pair():
    F = SigmaFunction(const(1.0), LEB)
    G = SigmaFunction(const(2.0), LEB)
    assert not equivalent(F, G)
    # against lam = 2 mu both carry density 1/2: residual is |1 - 2| sqrt(1/2)
    assert equivalence_residual(F, G) == pytest.approx(1 / np.sqrt(2))


def test_equivalence_reflexive():
    F = SigmaFunction(lambda x: np.sin(x), LEB)
    assert equivalent(F, F)


def test_equivalence_with_atoms():
    mu = AtomicMeasure([(0.5, 1.0)])
    F = SigmaFunction(const(1.0), mu)
    G = SigmaFunction(const(1 / np.sqrt(2)), AtomicMeasure([(0.5, 2.0)]))
    assert equivalent(F, G)


def test_equivalence_residual_reads_vanishing_lam_as_zero():
    # both canonical grids hold points off every atom, where lam = mu1 + mu2 vanishes
    F = SigmaFunction(ident, AtomicMeasure([(0.2, 1.0), (0.4, 2.0)]))
    G = SigmaFunction(lambda x: ident(x) ** 2, AtomicMeasure([(0.6, 0.5), (0.8, 3.0)]))
    assert equivalence_residual(F, G) == 0.8**2


def test_add_rejects_pair_without_pointwise_derivative():
    with pytest.raises(ValueError, match="no pointwise derivative"):
        add(SigmaFunction(const(1.0), cantor_measure()), SigmaFunction(const(1.0), LEB))


# -- lifts -------------------------------------------------------------------------


def test_lift_of_zero_class():
    F = SigmaFunction(const(0.0), LEB)
    xi = sample_xi(0, 128)
    assert lift(F, xi) == 0.0


def test_lift_second_moment_brackets_norm():
    F = SigmaFunction(ident, LEB)
    space = SigmaLift([LEB])
    n = 40_000
    vals = space.lift_samples(F, n, 5)
    m2 = float((vals**2).mean())
    se = float((vals**2).std(ddof=1) / np.sqrt(n))
    assert abs(m2 - 1 / 3) < 4 * se


def test_equivalent_representatives_lift_identically():
    two = DensityMeasure(0, 1, [2.0])
    space = SigmaLift([LEB, two])
    F = SigmaFunction(const(1.0), LEB)
    G = SigmaFunction(const(1 / np.sqrt(2)), two)
    for seed in range(20):
        xi = sample_xi(seed, space.total_J)
        assert abs(space.lift(F, xi) - space.lift(G, xi)) < 1e-9


def test_nonequivalent_lift_distance_brackets_class_distance():
    two = DensityMeasure(0, 1, [2.0])
    space = SigmaLift([LEB, two])
    F = SigmaFunction(ident, LEB)
    G = SigmaFunction(const(0.5), two)
    # ||F - G||^2 through the inner product
    target = (
        inner_product(F, F) - 2 * inner_product(F, G) + inner_product(G, G)
    )
    n = 40_000
    diff = space.lift_samples(F, n, 7) - space.lift_samples(G, n, 7)
    m2 = float((diff**2).mean())
    se = float((diff**2).std(ddof=1) / np.sqrt(n))
    assert target > 1e-3  # genuinely different classes
    assert abs(m2 - target) < 4 * se


def test_lift_covariance_matches_inner_product():
    two = DensityMeasure(0, 1, [0.0, 2.0])
    space = SigmaLift([LEB, two])
    F = SigmaFunction(const(1.0), LEB)
    G = SigmaFunction(ident, two)
    target = inner_product(F, G)
    n = 40_000
    prod = space.lift_samples(F, n, 9) * space.lift_samples(G, n, 9)
    est = float(prod.mean())
    se = float(prod.std(ddof=1) / np.sqrt(n))
    assert abs(est - target) < 4 * se


def test_lift_of_nonoverlapping_random_series_law():
    from noisefield import BernoulliMeasure

    mu = BernoulliMeasure(1 / 3)
    space = SigmaLift([mu])
    F = SigmaFunction(const(1.0), mu)
    xi = sample_xi(2, space.total_J)
    # the constant representative pairs with the leading digit function only
    assert space.lift(F, xi) == pytest.approx(xi.coords[0], abs=1e-12)


def test_lift_gives_a_bernoulli_law_and_its_system_measure_one_walsh_block():
    from noisefield import BernoulliMeasure, IFSInvariantMeasure, WalshBasis
    from noisefield.ifs import bernoulli_system

    space = SigmaLift([BernoulliMeasure(1 / 3), IFSInvariantMeasure(bernoulli_system(1 / 3))])
    assert len(space._singular) == 1 and isinstance(space._singular[0][1], WalshBasis)
    assert space.total_J == 2**10


def test_lift_expands_density_family_with_a_gap():
    # the pooled density vanishes on (1, 2]: one Legendre block on each side of the gap
    far = LebesgueMeasure(2, 3)
    space = SigmaLift([LEB, far])
    for F in (SigmaFunction(const(1.0), LEB), SigmaFunction(ident, far)):
        c = space.coefficients(F)
        assert abs(c @ c - inner_product(F, F)) < 1e-12


ONE_MEASURE_FAMILIES = {
    "lebesgue": LEB,
    "polynomial-density": DensityMeasure(0, 1, [1.0, 2.0, 0.5]),
    "density-plus-atoms": sum_measure(
        DensityMeasure(0, 1, [1.0, 0.5]), AtomicMeasure([(0.25, 0.5), (0.7, 1.25)])
    ),
}


@pytest.mark.parametrize("name", sorted(ONE_MEASURE_FAMILIES))
def test_lift_of_one_measure_family_is_its_ito_map(name):
    mu = ONE_MEASURE_FAMILIES[name]
    space = SigmaLift([mu])

    def f(x):
        return np.cos(3 * ident(x)) + ident(x)

    ito = GaussianNoiseField(mu, J=space.total_J).ito_coefficients(f)
    assert np.array_equal(space.coefficients(SigmaFunction(f, mu)), ito)


def test_lift_handles_singular_blocks():
    cm = cantor_measure()
    space = SigmaLift([cm, LEB])
    Fc = SigmaFunction(const(1.0), cm)
    Fl = SigmaFunction(const(1.0), LEB)
    n = 30_000
    prod = space.lift_samples(Fc, n, 11) * space.lift_samples(Fl, n, 11)
    est = float(prod.mean())
    se = float(prod.std(ddof=1) / np.sqrt(n))
    assert abs(est) < 4 * se  # mutually singular: orthogonal lifts


# -- correlated pairs -----------------------------------------------------------------


def test_perfect_correlation_duplicates_field():
    pair = correlated_pair(LEB, [1.0], [0.0, 1.0], 21)
    w1, w2 = pair.sample_pair(BorelSet.interval(0, 1), 500)
    assert np.array_equal(w1, w2)


def test_zero_correlation_gives_independent_copies():
    pair = correlated_pair(LEB, [0.0], [0.0, 1.0], 22)
    w1, w2 = pair.sample_pair(BorelSet.interval(0, 1), 60_000)
    prod = w1 * w2
    assert abs(prod.mean()) < 4 * prod.std(ddof=1) / np.sqrt(len(prod))


def test_half_correlation_matches_signed_measure():
    pair = correlated_pair(LEB, [0.5], [0.0, 1.0], 23)
    A = BorelSet.interval(0, 1)
    w1, w2 = pair.sample_pair(A, 60_000)
    prod = w1 * w2
    se = prod.std(ddof=1) / np.sqrt(len(prod))
    assert pair.cross_covariance_target(A) == pytest.approx(0.5)
    assert abs(prod.mean() - 0.5) < 4 * se


def test_piecewise_correlation_and_marginals():
    pair = correlated_pair(LEB, [1.0, -1.0], [0.0, 0.5, 1.0], 24, per_piece=8)
    A = BorelSet.interval(0, 1)
    w1, w2 = pair.sample_pair(A, 60_000)
    n = len(w1)
    # marginal variances still mu(A)
    for w in (w1, w2):
        se = w.var() * np.sqrt(2.0 / n)
        assert abs(w.var() - 1.0) < 4 * se
    # cross covariance integrates f over A: +0.5 - 0.5 = 0
    prod = w1 * w2
    assert abs(prod.mean() - pair.cross_covariance_target(A)) < 4 * prod.std(ddof=1) / np.sqrt(n)
    half = BorelSet.interval(0, 0.5)
    v1, v2 = pair.sample_pair(half, 60_000)
    prod = v1 * v2
    assert abs(prod.mean() - 0.5) < 4 * prod.std(ddof=1) / np.sqrt(n)


def test_correlation_bound_enforced():
    with pytest.raises(ValueError, match="<= 1"):
        correlated_pair(LEB, [1.2], [0.0, 1.0], 25)


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_sample_pair_memory_is_bounded_by_the_row_grid():
    pair = correlated_pair(LEB, [0.5, -0.3, 0.8, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0], 3, per_piece=8)
    assert pair.J == 32
    A = BorelSet.interval(0.25, 0.75)
    assert _traced_peak_mb(lambda: pair.sample_pair(A, 200_000)) < 32.0


def test_lift_samples_memory_is_bounded_by_the_row_grid():
    space = SigmaLift([LEB])
    F = SigmaFunction(ident, LEB)
    assert space.total_J == 64
    assert _traced_peak_mb(lambda: space.lift_samples(F, 200_000, 5)) < 32.0
