import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from noisefield import (
    AtomicMeasure,
    BernoulliMeasure,
    BorelSet,
    DensityMeasure,
    IFSInvariantMeasure,
    LebesgueMeasure,
    cantor_measure,
    measure_from_descriptor,
    radon_nikodym_on_grid,
    sum_measure,
)
from noisefield import quadrature
from noisefield.ifs import bernoulli_system
from noisefield.measures import _INVERSION_CUTOFF, _INVERSION_ROWS
from test_coeff_goldens import SYSTEMS


# -- BorelSet -------------------------------------------------------------------


def test_set_validation_rejects_overlap():
    with pytest.raises(ValueError):
        BorelSet(((0.0, 0.5), (0.4, 1.0)))
    with pytest.raises(ValueError):
        BorelSet(((0.5, 0.5),))


def test_set_intersection_and_union():
    A = BorelSet.from_intervals([(0.0, 0.6)])
    B = BorelSet.from_intervals([(0.4, 1.0)])
    assert A.intersect(B).intervals == ((0.4, 0.6),)
    C = BorelSet.from_intervals([(0.0, 0.2), (0.8, 1.0)])
    assert A.intersect(C).intervals == ((0.0, 0.2),)
    U = BorelSet.interval(0.0, 0.3).union_disjoint(BorelSet.interval(0.3, 0.7))
    assert U.total_length() == pytest.approx(0.7)
    with pytest.raises(ValueError):
        A.union_disjoint(B)


def test_set_membership_half_open():
    A = BorelSet.interval(0.0, 1.0)
    assert A.contains(1.0) and A.contains(0.2)
    assert not A.contains(0.0)


# -- measure_of ------------------------------------------------------------------


def test_lebesgue_length():
    mu = LebesgueMeasure(0, 1)
    assert mu.measure_of(BorelSet.interval(0, 0.6)) == pytest.approx(0.6)


def test_cantor_first_branch_mass():
    mu = cantor_measure()
    assert mu.measure_of(BorelSet.interval(0, 1 / 3)) == pytest.approx(0.5)
    assert mu.measure_of(mu.ifs.cylinder_set((0,))) == 0.5


def test_atomic_lookup():
    mu = AtomicMeasure([(0, 0.25), (1, 0.75)])
    assert mu.measure_of(BorelSet.interval(-1, 0)) == pytest.approx(0.25)
    assert mu.measure_of(BorelSet.interval(0.5, 2)) == pytest.approx(0.75)


def test_infinite_mass_reported():
    mu = LebesgueMeasure(-np.inf, np.inf)
    assert not np.isfinite(mu.total_mass())
    assert mu.measure_of(BorelSet.interval(0.0, np.inf)) == np.inf


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_additivity_on_random_disjoint_families(seed):
    rng = np.random.default_rng(seed)
    pts = np.sort(rng.uniform(0, 1, 8))
    pieces = [BorelSet.interval(a, b) for a, b in zip(pts[:-1], pts[1:])]
    union = pieces[0]
    for p in pieces[1:]:
        union = union.union_disjoint(p)
    for mu in (LebesgueMeasure(0, 1), DensityMeasure(0, 1, [1.0, 1.0]), cantor_measure()):
        total = sum(mu.measure_of(p) for p in pieces)
        assert total == pytest.approx(mu.measure_of(union), abs=1e-12)


# -- integrate -------------------------------------------------------------------


def test_lebesgue_polynomial_integral():
    mu = LebesgueMeasure(0, 1)
    val, err = mu.integrate(lambda x: x**2, BorelSet.interval(0, 1))
    assert val == pytest.approx(1 / 3, abs=1e-13)
    assert err < 1e-12


def test_cantor_moments_by_hand_recursion():
    # self-similarity fixes the moments: m1 solves 3 m1 = m1 + 1, and
    # m2 solves 9 m2 = m2 + 3, i.e. m1 = 1/2 and m2 = 3/8
    m1 = Fraction(1, 2)
    m2 = Fraction(3, 8)
    assert m1 == Fraction(1, 1) / (3 - 1)
    assert m2 == (4 * m1 + 4) / (18 - 2)
    mu = cantor_measure()
    v1, e1 = mu.integrate([0, 1])
    v2, e2 = mu.integrate([0, 0, 1])
    assert (v1, e1) == (m1, 0.0)
    assert (v2, e2) == (m2, 0.0)


def test_cantor_callable_integration_matches_moments():
    mu = cantor_measure()
    val, err = mu.integrate(lambda x: x**2)
    assert val == pytest.approx(3 / 8, abs=1e-10)
    assert err < 1e-8


def test_cantor_callable_integration_over_a_set():
    # (0, 1/2] meets the attractor in the first cylinder: (1/2) E[(X/3)^2] = 1/48
    val, _ = cantor_measure().integrate(lambda x: x**2, BorelSet.interval(0, 0.5))
    assert abs(val - 1 / 48) < 1e-7


def test_cantor_set_integral_is_within_its_error_estimate():
    val, err = cantor_measure().integrate(lambda x: x**2, BorelSet.interval(0, 0.5))
    assert abs(val - 1 / 48) <= err


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_plain_cylinder_intervals_get_product_masses(name):
    # a cell inside a set takes its product mass, so the bare intervals of a
    # cylinder give its descendants their cylinder masses bit for bit
    ifs = SYSTEMS[name]
    mu = IFSInvariantMeasure(ifs)
    k = ifs.n_branches
    for depth in (4, 6):
        masses = ifs.cylinder_masses(depth)
        codes = np.arange(k**depth)
        for word in (w for n in (1, 2, 3) for w in itertools.product(range(k), repeat=n)):
            code = sum(d * k**i for i, d in enumerate(word))
            expected = np.where(codes % k ** len(word) == code, masses, 0.0)
            plain = BorelSet(ifs.cylinder_set(word).intervals)
            assert np.array_equal(mu.cell_masses(plain, depth), expected), (word, depth)


def test_set_word_must_name_the_cylinder_of_its_intervals():
    # on the three-fraction system, the word (2,) on the intervals of branch 0
    # would give the mass of branch 2 (1/6) and its integral (206/1395)
    ifs = SYSTEMS["three-fraction"]
    mu = IFSInvariantMeasure(ifs)
    forged = BorelSet(ifs.cylinder_set((0,)).intervals, word=(2,))
    with pytest.raises(ValueError, match="not the cylinder"):
        mu.measure_of(forged)
    with pytest.raises(ValueError, match="not the cylinder"):
        mu.integrate([0, 1], forged)
    honest = ifs.cylinder_set((0,))
    assert mu.measure_of(honest) == 1 / 3
    assert mu.integrate([0, 1], honest) == (Fraction(8, 279), 0.0)


def test_cantor_cylinder_polynomial_integral_is_exact():
    mu = cantor_measure()
    cyl = mu.ifs.cylinder_set((0,))
    # integral over the first branch: x = y/3 with y distributed like x
    val, err = mu.integrate([0, 1], cyl)
    assert val == Fraction(1, 2) * Fraction(1, 2) / 3
    assert err == 0.0


def test_cantor_word_integral_composes_branches_in_word_order():
    # the cylinder of (0, 1) is tau_0(tau_1(K)) = [2/9, 1/3], not tau_1(tau_0(K))
    mu = cantor_measure()
    val, err = mu.integrate([0, 1], mu.ifs.cylinder_set((0, 1)))
    assert val == Fraction(5, 72)
    assert err == 0.0


def _three_branch_measure():
    from noisefield import IFSInvariantMeasure, make_ifs

    F = Fraction
    branches = [(F(1, 4), F(0)), (F(1, 5), F(2, 5)), (F(1, 4), F(3, 4))]
    return IFSInvariantMeasure(make_ifs(branches, [F(1, 2), F(1, 5), F(3, 10)]))


@pytest.mark.parametrize(
    "mu", [cantor_measure(), _three_branch_measure()], ids=["cantor", "three-branch"]
)
def test_word_polynomial_integrals_match_the_interval_path(mu):
    import itertools

    # depth 8 keeps the interval path to ~2e-7 here at a tenth of the default's cost
    k = mu.ifs.n_branches
    words = [w for n in (1, 2, 3) for w in itertools.product(range(k), repeat=n)]
    for deg in range(4):
        coeffs = [Fraction(1, j + 2) for j in range(deg + 1)]
        poly = np.polynomial.polynomial.Polynomial([float(c) for c in coeffs])
        for word in words:
            A = mu.ifs.cylinder_set(word)
            exact, _ = mu.integrate(coeffs, A)
            interval, _ = mu.integrate(poly, BorelSet(A.intervals), depth=8)
            assert abs(float(exact) - interval) < 1e-6, (word, deg)


def _float_three_branch_measure():
    from noisefield import make_ifs

    return IFSInvariantMeasure(make_ifs([(0.3, 0.0), (0.25, 0.5), (0.2, 0.8)], [0.2, 0.5, 0.3]))


@pytest.mark.parametrize(
    "mu", [cantor_measure(), _three_branch_measure()], ids=["cantor", "three-branch"]
)
def test_word_polynomial_integrals_add_up_exactly_over_a_level(mu):
    coeffs = [Fraction(1, 7), Fraction(2, 3), Fraction(-5, 11), Fraction(1, 13)]
    whole, _ = mu.integrate(coeffs)
    k = mu.ifs.n_branches
    for depth in (1, 2, 3):
        parts = [mu.integrate(coeffs, mu.ifs.cylinder_set(w))[0]
                 for w in itertools.product(range(k), repeat=depth)]
        assert all(isinstance(v, Fraction) for v in parts)
        assert sum(parts) == whole


def test_word_polynomial_integrals_add_up_on_a_float_system():
    mu = _float_three_branch_measure()
    coeffs = [0.5, 1.0, 2.0, -0.75]
    whole, _ = mu.integrate(coeffs)
    for depth in (1, 2, 3):
        parts = [mu.integrate(coeffs, mu.ifs.cylinder_set(w))[0]
                 for w in itertools.product(range(3), repeat=depth)]
        assert all(isinstance(v, float) for v in parts)
        assert abs(sum(parts) - whole) <= 1e-14 * abs(whole)


def test_unbounded_integrand_rejected():
    mu = LebesgueMeasure(0, 1)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unbounded"):
        mu.integrate(lambda x: np.log(x - 0.5), BorelSet.interval(0, 1))
    with pytest.raises(ValueError, match="unbounded"):
        cantor_measure().integrate(lambda x: np.full_like(np.asarray(x, dtype=float), np.inf))


def test_self_similarity_polynomials_exact():
    # invariance under the two branch maps for polynomials up to degree 8
    mu = cantor_measure()
    ifs = mu.ifs
    for deg in range(9):
        coeffs = [0] * deg + [1]
        whole = mu.integrate(coeffs)[0]
        pulled = []
        for i in (0, 1):
            r, s = Fraction(ifs.ratios[i]), Fraction(ifs.shifts[i])
            # coefficients of (r x + s)^deg by binomial expansion
            from math import comb

            sub = [comb(deg, l) * r**l * s ** (deg - l) for l in range(deg + 1)]
            pulled.append(mu.integrate(sub)[0])
        assert whole == Fraction(1, 2) * pulled[0] + Fraction(1, 2) * pulled[1]


# -- Radon-Nikodym ----------------------------------------------------------------


def test_rn_scaled_lebesgue():
    grid = np.linspace(0.05, 0.95, 7)
    vals = radon_nikodym_on_grid(LebesgueMeasure(0, 1), DensityMeasure(0, 1, [2.0]), grid)
    assert np.allclose(vals, 0.5)


def test_rn_against_own_sum():
    mu = LebesgueMeasure(0, 1)
    vals = radon_nikodym_on_grid(mu, sum_measure(mu, LebesgueMeasure(0, 1)), np.array([0.3, 0.7]))
    assert np.allclose(vals, 0.5)
    cm = cantor_measure()
    vals = radon_nikodym_on_grid(cm, sum_measure(cm, cm), np.array([0.1, 0.9]))
    assert np.allclose(vals, 0.5)


def test_rn_density_ratio():
    grid = np.array([0.25, 0.5])
    vals = radon_nikodym_on_grid(DensityMeasure(0, 1, [0, 1]), LebesgueMeasure(0, 1), grid)
    assert np.allclose(vals, grid)


def test_rn_atom_violation_detected():
    mu = AtomicMeasure([(0.5, 1.0)])
    lam = AtomicMeasure([(0.25, 1.0)])
    with pytest.raises(ValueError, match="atom"):
        radon_nikodym_on_grid(mu, lam, np.array([0.25, 0.5]))


def test_rn_density_plus_atoms_matches_pointwise_oracle():
    mu = sum_measure(DensityMeasure(0, 1, [0.0, 2.0]), AtomicMeasure([(0.25, 0.2)]))
    rest = sum_measure(LebesgueMeasure(0, 1), AtomicMeasure([(0.25, 0.5), (0.6, 1.5)]))
    lam = sum_measure(mu, rest)
    grid = np.array([-0.5, 0.0, 0.1, 0.25, 0.25 + 1e-9, 0.4, 0.6, 0.6 + 1e-13, 0.9, 1.0, 1.2])

    def oracle(x):  # lam: density 2x + 1 on (0, 1], atoms 0.7 at 0.25 and 1.5 at 0.6
        if abs(x - 0.25) <= 1e-12:
            return 0.2 / 0.7
        if abs(x - 0.6) <= 1e-12:
            return 0.0
        return 2 * x / (2 * x + 1) if 0 < x <= 1 else np.nan

    want = np.array([oracle(x) for x in grid])
    np.testing.assert_allclose(radon_nikodym_on_grid(mu, lam, grid), want, rtol=1e-15)


def test_rn_chain_rule_on_grid():
    grid = np.linspace(0.1, 0.9, 9)
    mu = DensityMeasure(0, 1, [0.0, 0.0, 3.0])
    lam = DensityMeasure(0, 1, [0.0, 2.0])
    kap = LebesgueMeasure(0, 1)
    left = radon_nikodym_on_grid(mu, lam, grid) * radon_nikodym_on_grid(lam, kap, grid)
    right = radon_nikodym_on_grid(mu, kap, grid)
    assert np.max(np.abs(left - right)) < 1e-12


def test_rn_mutually_singular_rejected():
    cm = cantor_measure()
    with pytest.raises(ValueError, match="singular"):
        radon_nikodym_on_grid(cm, LebesgueMeasure(0, 1), np.array([0.1]))


# -- sums ---------------------------------------------------------------------------


def test_sum_measure_additive():
    mu = sum_measure(LebesgueMeasure(0, 1), LebesgueMeasure(0, 1))
    assert mu.measure_of(BorelSet.interval(0, 1)) == pytest.approx(2.0)


def test_sum_with_atoms():
    mu = sum_measure(LebesgueMeasure(0, 1), AtomicMeasure([(0.5, 1.0)]))
    assert mu.measure_of(BorelSet.interval(0.4, 0.6)) == pytest.approx(1.2)


def test_sum_with_zero_atomic_is_identity():
    base = LebesgueMeasure(0, 1)
    mu = sum_measure(base, AtomicMeasure([]))
    for s in [BorelSet.interval(0, 0.3), BorelSet.interval(0.2, 0.9)]:
        assert mu.measure_of(s) == pytest.approx(base.measure_of(s))


# -- Bernoulli measure kind ----------------------------------------------------------


def test_bernoulli_half_is_uniform():
    mu = BernoulliMeasure(0.5)
    assert mu.support_hull() == (-1.0, 1.0)
    assert mu.measure_of(BorelSet.interval(-1, 0)) == pytest.approx(0.5)
    assert mu.measure_of(BorelSet.interval(0, 0.5)) == pytest.approx(0.25)


def test_bernoulli_small_lambda_bounds():
    mu = BernoulliMeasure(1 / 3)
    lo, hi = mu.support_hull()
    assert (lo, hi) == pytest.approx((-0.5, 0.5))
    assert mu.measure_of(BorelSet.interval(-0.5, 0.5)) == pytest.approx(1.0)


def test_small_lambda_bernoulli_singular_base_is_its_system_measure():
    base, scale = BernoulliMeasure(1 / 3).singular_parts()[0]
    assert isinstance(base, IFSInvariantMeasure) and scale == 1.0
    assert base.ifs == bernoulli_system(1 / 3)


def test_two_bernoulli_measures_of_one_lambda_share_one_singular_base():
    parts = sum_measure(BernoulliMeasure(0.3), BernoulliMeasure(0.3)).singular_parts()
    assert len(parts) == 1 and parts[0][1] == 2.0


def test_bernoulli_inversion_integral_memory_is_bounded():
    tracemalloc.start()
    try:
        BernoulliMeasure(0.75).integrate(lambda x: x**2)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 64.0


def _two_inversion_integral(mu, f, A):
    """The 512- and 256-cell Riemann sums, each from its own CDF inversion."""
    lo, hi = mu.support_hull()
    A = A.clip(lo, hi) if A is not None else BorelSet.interval(lo, hi)
    total, err = 0.0, 0.0
    for a, b in A.intervals:
        sums = []
        for cells in (512, 256):
            grid = np.linspace(a, b, cells + 1)
            cdfs, _ = mu._cdf_inversion(grid)
            mids = 0.5 * (grid[:-1] + grid[1:])
            sums.append(float(np.asarray(f(mids), dtype=float) @ np.diff(cdfs)))
        total += sums[0]
        err += abs(sums[0] - sums[1])
    return total, err


@pytest.mark.parametrize("lam", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("A", [None, BorelSet.interval(-0.7, 1.3)], ids=["hull", "sub"])
def test_bernoulli_integral_matches_two_inversions_bit_for_bit(lam, A):
    mu = BernoulliMeasure(lam)
    f = lambda x: np.cos(3.0 * x) + x**2
    assert mu.integrate(f, A) == _two_inversion_integral(mu, f, A)


@pytest.mark.parametrize("lam", [0.6, 0.9])
def test_bernoulli_inversion_matches_out_of_place_sine_oracle(lam):
    mu = BernoulliMeasure(lam)
    b = mu.support_hull()[1]
    xs = np.linspace(-b - 0.1, b + 0.1, 2 * _INVERSION_ROWS + 9)
    T = _INVERSION_CUTOFF
    n0 = int(np.ceil(np.log(T / 1e-9) / np.log(1.0 / lam)))
    nodes, weights = quadrature.panel_rule(np.linspace(1e-9, T, int(2 * T) + 1), 8)
    chf = np.ones_like(nodes)
    for n in range(1, n0 + 1):
        chf = chf * np.cos(lam**n * nodes)
    kern = weights * chf / nodes
    half = nodes <= T / 2
    full, part = np.empty(len(xs)), np.empty(len(xs))
    for i in range(0, len(xs), _INVERSION_ROWS):
        sines = np.sin(np.outer(xs[i : i + _INVERSION_ROWS], nodes))
        full[i : i + _INVERSION_ROWS] = 0.5 + (sines @ kern) / np.pi
        part[i : i + _INVERSION_ROWS] = 0.5 + (sines[:, half] @ kern[half]) / np.pi
    cdfs, errs = mu._cdf_inversion(xs)
    assert np.array_equal(cdfs, full)
    assert np.array_equal(errs, np.abs(full - part))


def test_bernoulli_large_lambda_inversion_cdf():
    mu = BernoulliMeasure(0.75)
    b = mu.support_hull()[1]
    assert mu.measure_of(BorelSet.interval(-b, 0)) == pytest.approx(0.5, abs=1e-4)
    assert mu.measure_of(BorelSet.interval(-b, b)) == pytest.approx(1.0, abs=1e-4)


# -- descriptors ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "mu",
    [
        LebesgueMeasure(0, 1),
        DensityMeasure(0, 1, [0.0, 2.0]),
        AtomicMeasure([(0, 0.25), (1, 0.75)]),
        cantor_measure(),
        BernoulliMeasure(0.5),
        sum_measure(LebesgueMeasure(0, 1), AtomicMeasure([(0.5, 1.0)])),
    ],
)
def test_descriptor_round_trip(mu):
    rebuilt = measure_from_descriptor(mu.to_descriptor())
    assert rebuilt.kind == mu.kind
    for s in [BorelSet.interval(0, 0.6), BorelSet.interval(-0.5, 0.25)]:
        assert rebuilt.measure_of(s) == pytest.approx(mu.measure_of(s), abs=1e-9)


def test_canonical_grid_includes_atoms():
    mu = sum_measure(LebesgueMeasure(0, 1), AtomicMeasure([(0.5, 1.0)]))
    grid = mu.canonical_grid(64)
    assert np.any(np.abs(grid - 0.5) < 1e-15)


def test_cantor_canonical_grid_lies_on_attractor():
    mu = cantor_measure()
    grid = mu.canonical_grid(128)
    # attractor points never fall in the open middle-third gap
    assert not np.any((grid > 1 / 3 + 1e-9) & (grid < 2 / 3 - 1e-9))
