import itertools

import numpy as np
import pytest
from numpy.polynomial import hermite_e

from noisefield import (
    BorelSet,
    CoordinateFactorMap,
    DensityMeasure,
    GaussianNoiseField,
    IFSInvariantMeasure,
    LebesgueMeasure,
    SimpleFunction,
    TransformedBasis,
    cantor_measure,
    characteristic_functional_mc,
    characteristic_functional_target,
    ell2_escape_ratio,
    fbm_increment_variance,
    fbm_spectral_integral,
    make_basis,
    max_coordinate,
    moment_identity_mc,
    moment_identity_target,
    sample_xi,
)
from noisefield import streams
from test_coeff_goldens import SYSTEMS, WALSH_SYSTEMS


# -- sample points -----------------------------------------------------------------


def test_sample_xi_deterministic():
    a = sample_xi(42, 3)
    b = sample_xi(42, 3)
    assert np.array_equal(a.coords, b.coords)


def test_sample_xi_extension_is_consistent():
    short = sample_xi(8, 100)
    long = sample_xi(8, 1000)
    assert np.array_equal(long.coords[:100], short.coords)
    assert short.extended(1000).coords[5] == long.coords[5]
    assert short.coordinate(700) == long.coords[700]


def test_sample_xi_empirical_variance_window():
    xi = sample_xi(1234, 100_000)
    assert 0.98 <= xi.coords.var() <= 1.02


def test_cross_stream_correlation_small():
    a = sample_xi(101, 10_000).coords
    b = sample_xi(102, 10_000).coords
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.03


# -- the noise field ------------------------------------------------------------------


def test_zero_mass_convention():
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=16)
    xi = sample_xi(0, 16)
    empty = BorelSet.empty()
    assert field.noise_on_set(empty, xi) == 0.0


@pytest.mark.parametrize("A", [BorelSet.interval(0, 0.5), BorelSet.empty()], ids=["set", "null"])
def test_noise_samples_name_a_negative_count(A):
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=16)
    with pytest.raises(ValueError, match="sample count n"):
        field.noise_samples(A, -1, 3)


def test_full_interval_reduces_to_first_coordinate():
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=32)
    xi = sample_xi(5, 32)
    A = BorelSet.interval(0, 1)
    assert field.noise_on_set(A, xi) == pytest.approx(xi.coords[0], abs=1e-12)


def test_infinite_mass_rejected():
    field = GaussianNoiseField(
        LebesgueMeasure(-np.inf, np.inf), basis=make_basis(LebesgueMeasure(0, 1)), J=8
    )
    with pytest.raises(ValueError, match="infinite mass"):
        field.noise_on_set(BorelSet.interval(0, np.inf), sample_xi(0, 8))


def test_truncated_variance_obeys_bessel():
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=64)
    A = BorelSet.interval(0.1, 0.8)
    mass = 0.7
    partial = [np.sum(field.coefficients(A)[:J] ** 2) for J in (4, 16, 64)]
    assert all(p <= mass + 1e-12 for p in partial)
    assert partial[0] <= partial[1] <= partial[2]


def test_noise_linearity_in_sets():
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=64)
    xi = sample_xi(9, 64)
    A, B = BorelSet.interval(0, 0.4), BorelSet.interval(0.4, 1.0)
    lhs = field.noise_on_set(A.union_disjoint(B), xi)
    rhs = field.noise_on_set(A, xi) + field.noise_on_set(B, xi)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize(
    "A,B,target",
    [
        ((0.0, 0.6), (0.4, 1.0), 0.2),
        ((0.0, 0.5), (0.5, 1.0), 0.0),
        ((0.2, 0.9), (0.2, 0.9), 0.7),
    ],
)
def test_covariance_mc_lebesgue(A, B, target):
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=256)
    est, se = field.covariance_mc(BorelSet.interval(*A), BorelSet.interval(*B), 30_000, 7)
    assert abs(est - target) < 4 * se + 1e-4


def test_covariance_mc_cantor_cylinder():
    mu = cantor_measure()
    field = GaussianNoiseField(mu)
    A = mu.ifs.cylinder_set((0,))
    est, se = field.covariance_mc(A, A, 30_000, 11)
    assert abs(est - 0.5) < 4 * se


@pytest.mark.parametrize("name", WALSH_SYSTEMS)
def test_coefficient_cache_serves_cylinder_words_and_plain_intervals_alike(name):
    # BorelSet equality and the cache key ignore the word, which is safe only
    # because a cylinder's bare intervals give its exact coefficients bit for
    # bit: 2^-n (-1)^|j & word| for the first 2^n indices j, 0 after them
    mu = IFSInvariantMeasure(SYSTEMS[name])
    js = np.arange(1024)
    for word in (w for n in range(1, 6) for w in itertools.product((0, 1), repeat=n)):
        wordbits = sum(d << k for k, d in enumerate(word))
        parity = np.array([bin(j & wordbits).count("1") % 2 for j in js])
        exact = np.where(js < 2 ** len(word), 0.5 ** len(word) * (1.0 - 2.0 * parity), 0.0)
        cyl = mu.ifs.cylinder_set(word)
        plain = BorelSet(cyl.intervals)
        assert plain == cyl
        fresh_cyl = GaussianNoiseField(mu, J=1024).coefficients(cyl)
        fresh_plain = GaussianNoiseField(mu, J=1024).coefficients(plain)
        assert np.array_equal(fresh_plain, fresh_cyl), word
        assert np.array_equal(fresh_plain, exact), word
        field = GaussianNoiseField(mu, J=1024)
        assert field.coefficients(cyl) is field.coefficients(plain)
        assert len(field._coeff_cache) == 1


def test_coefficient_cache_keeps_the_1024_most_recently_used_sets():
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=4)
    sets = [BorelSet.interval(0, (i + 1) / 1101) for i in range(1100)]
    first = field.coefficients(sets[0])
    for A in sets[1:]:
        field.coefficients(A)
        assert field.coefficients(sets[0]) is first  # a hit, and now the newest entry
    assert len(field._coeff_cache) == 1024
    assert sets[1].intervals not in field._coeff_cache
    assert sets[-1].intervals in field._coeff_cache


def test_sine_basis_realizes_lebesgue_noise():
    # increments of the path process give a second realization of interval
    # noise: same covariance structure as the polynomial route
    from noisefield import SineBasis

    field = GaussianNoiseField(LebesgueMeasure(0, 1), basis=SineBasis(), J=2000)
    A, B = BorelSet.interval(0.0, 0.6), BorelSet.interval(0.4, 1.0)
    est, se = field.covariance_mc(A, B, 30_000, 41)
    assert abs(est - 0.2) < 4 * se + 1e-3


def test_atomic_noise_variance_exact_and_zero_mass():
    from noisefield import AtomicMeasure

    mu = AtomicMeasure([(0.0, 0.25), (1.0, 0.75)])
    field = GaussianNoiseField(mu)
    xi = sample_xi(3, 2)
    # W of a set holding one atom is sqrt(m) times that atom's coordinate
    assert field.noise_on_set(BorelSet.interval(-1, 0), xi) == pytest.approx(
        0.5 * xi.coords[0]
    )
    assert field.noise_on_set(BorelSet.interval(0.1, 0.9), xi) == 0.0  # no atoms inside


def test_sample_partition_is_offset_invariant():
    # the worker contract: sample n depends only on (stream, n), so shards
    # started at any offset agree with the full run entry by entry
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=64)
    A = BorelSet.interval(0.1, 0.9)
    full = field.noise_samples(A, 10, 77)
    shard = field.noise_samples(A, 3, 77, first=7)
    assert np.array_equal(full[7:10], shard)
    merged = np.concatenate([field.noise_samples(A, 5, 77), field.noise_samples(A, 5, 77, first=5)])
    assert np.array_equal(full, merged)


def test_covariance_mc_sample_floor():
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=8)
    with pytest.raises(ValueError, match="100"):
        field.covariance_mc(BorelSet.interval(0, 1), BorelSet.interval(0, 1), 50, 0)


# -- stochastic integrals ----------------------------------------------------------------


def test_integral_of_basis_function_yields_its_coordinate():
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=32)
    xi = sample_xi(3, 32)
    f2 = lambda x: field.basis.evaluate_block(x, 3)[:, 2]
    assert field.ito_integral(f2, xi) == pytest.approx(xi.coords[2], abs=1e-11)


def test_simple_function_linearity():
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=64)
    xi = sample_xi(4, 64)
    A, B = BorelSet.interval(0, 0.3), BorelSet.interval(0.5, 0.9)
    f = SimpleFunction([(2.0, A), (-3.0, B)])
    lhs = field.ito_integral(f, xi)
    rhs = 2.0 * field.noise_on_set(A, xi) - 3.0 * field.noise_on_set(B, xi)
    assert lhs == pytest.approx(rhs, abs=1e-12)


FUNCTION_BATTERY = [
    lambda x: np.ones_like(np.asarray(x, dtype=float)),
    lambda x: x,
    lambda x: x * x,
    lambda x: x**3 - 0.5 * x,
    lambda x: np.sin(3 * x),
    lambda x: np.cos(2 * x),
    lambda x: np.exp(-x),
    lambda x: np.exp(x / 2),
    lambda x: 1.0 / (1.0 + x * x),
    lambda x: np.abs(np.sin(5 * x)) + 0.1,
]


def test_ito_isometry_mc_battery():
    # variance of the integral brackets the squared norm: ten integrands
    # against three measure kinds
    measures = [
        (LebesgueMeasure(0, 1), 256),
        (DensityMeasure(0, 1, [0.0, 2.0]), 64),
        (cantor_measure(), 1024),
    ]
    n = 20_000
    for m_idx, (mu, J) in enumerate(measures):
        field = GaussianNoiseField(mu, J=J)
        for f_idx, f in enumerate(FUNCTION_BATTERY):
            target = mu.integrate(lambda x: np.asarray(f(x), dtype=float) ** 2)[0]
            vals = field.ito_samples(f, n, 100 + 16 * m_idx + f_idx)
            se = target * np.sqrt(2.0 / n)
            assert abs(vals.var() - target) < 4 * se, (m_idx, f_idx)


def test_polarization_identity_mc():
    mu = LebesgueMeasure(0, 1)
    field = GaussianNoiseField(mu, J=128)
    f = lambda x: x
    g = lambda x: np.cos(x)
    target = mu.integrate(lambda x: x * np.cos(x))[0]
    n = 40_000
    wf = field.ito_samples(f, n, 55)
    wg = field.ito_samples(g, n, 55)
    prod = wf * wg
    est, se = prod.mean(), prod.std(ddof=1) / np.sqrt(n)
    assert abs(est - target) < 4 * se


def test_change_of_measure_per_sample_equality():
    # density 2x against Lebesgue: the carried basis gives the identical
    # truncated integral for every sample point, not merely in law
    mu = DensityMeasure(0, 1, [0.0, 2.0])
    lam = LebesgueMeasure(0, 1)
    rho = lambda x: 2.0 * np.asarray(x, dtype=float)
    mu_basis = make_basis(mu)
    field_mu = GaussianNoiseField(mu, basis=mu_basis, J=32)
    field_lam = GaussianNoiseField(lam, basis=TransformedBasis(mu_basis, rho, lam), J=32)
    f = lambda x: np.asarray(x, dtype=float)
    f_moved = lambda x: np.asarray(x, dtype=float) * np.sqrt(rho(x))
    worst = 0.0
    for seed in range(100):
        xi = sample_xi(seed, 32)
        worst = max(worst, abs(field_mu.ito_integral(f, xi) - field_lam.ito_integral(f_moved, xi)))
    assert worst < 1e-8


# -- factorization maps ----------------------------------------------------------------


def test_noise_values_match_frozen_goldens():
    # bit-stability contract: the recorded (seed, set, value) triples replay
    import csv
    import pathlib

    from noisefield import cantor_measure

    leb_field = GaussianNoiseField(LebesgueMeasure(0, 1), J=128)
    cm = cantor_measure()
    cantor_field = GaussianNoiseField(cm, J=256)
    sets = {
        ("lebesgue:0,1", "0,0.6"): (leb_field, BorelSet.interval(0, 0.6), 128),
        ("lebesgue:0,1", "0.25,0.5"): (leb_field, BorelSet.interval(0.25, 0.5), 128),
        ("lebesgue:0,1", "0,1"): (leb_field, BorelSet.interval(0, 1), 128),
        ("cantor", "cyl:0"): (cantor_field, cm.ifs.cylinder_set((0,)), 256),
        ("cantor", "cyl:0,1"): (cantor_field, cm.ifs.cylinder_set((0, 1)), 256),
    }
    path = pathlib.Path(__file__).parent / "data" / "noise_goldens.csv"
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            field, A, J = sets[(row["measure"], row["set"])]
            xi = sample_xi(int(row["seed"]), J)
            assert repr(field.noise_on_set(A, xi)) == row["value"]


def test_gamma_of_psi_recovers_noise():
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=32)
    xi = sample_xi(21, 32)
    z = field.psi_map(xi)
    for A in [BorelSet.interval(0, 0.6), BorelSet.interval(0.25, 0.5)]:
        assert abs(field.gamma_map(z, A) - field.noise_on_set(A, xi)) < 1e-12


def test_gamma_zero_coordinates():
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=16)
    assert field.gamma_map(np.zeros(16), BorelSet.interval(0, 0.9)) == 0.0


def test_gamma_is_finitely_additive():
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=32)
    z = field.psi_map(sample_xi(2, 32))
    A, B = BorelSet.interval(0, 0.3), BorelSet.interval(0.6, 1.0)
    lhs = field.gamma_map(z, A.union_disjoint(B))
    assert lhs == pytest.approx(field.gamma_map(z, A) + field.gamma_map(z, B), abs=1e-12)


def test_gamma_rejects_mismatched_truncation():
    field = GaussianNoiseField(LebesgueMeasure(0, 1), J=32)
    with pytest.raises(ValueError, match="truncation"):
        field.gamma_map(np.zeros(16), BorelSet.interval(0, 1))


def test_factor_map_is_markov():
    rng = np.random.default_rng(12)
    U, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    psi = CoordinateFactorMap(U)
    f = lambda coords: np.maximum(coords[0], 0.0) + 1.0  # nonnegative cylinder function
    g = psi.pullback(f)
    n = 20_000
    vals_direct = np.empty(n)
    vals_pulled = np.empty(n)
    for i in range(n):
        vals_direct[i] = f(streams.normals(streams.substream(900, i), 6))
        vals_pulled[i] = g(streams.normals(streams.substream(901, i), 6))
    assert np.all(vals_pulled >= 0.0)
    const = psi.pullback(lambda c: 1.0)
    assert const(np.zeros(6)) == 1.0
    se = np.sqrt(vals_direct.var() / n + vals_pulled.var() / n)
    assert abs(vals_direct.mean() - vals_pulled.mean()) < 4 * se


# -- coordinate-law functionals -----------------------------------------------------------


def test_characteristic_functional_at_zero():
    est, _ = characteristic_functional_mc(np.zeros(3), 1000, 0)
    assert est == 1.0


@pytest.mark.parametrize(
    "c",
    [np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]), np.array([0.3, -0.4, 0.25])],
)
def test_characteristic_functional_brackets_target(c):
    est, (sr, si) = characteristic_functional_mc(c, 60_000, 19)
    target = characteristic_functional_target(c)
    assert abs(est.real - target) < 4 * sr
    assert abs(est.imag) < 4 * si + 1e-12


def hermite_oracle_moment(j, k, c):
    """Independent oracle for E[xi_j xi_k exp(i<xi, c>)] by Gauss-Hermite quadrature."""
    nodes, weights = hermite_e.hermegauss(64)
    weights = weights / np.sqrt(2 * np.pi)

    def single(power, cj):  # E[xi^power exp(i c xi)]
        vals = nodes**power * np.exp(1j * cj * nodes)
        return np.sum(weights * vals)

    total = 1.0 + 0.0j
    dims = sorted(set(range(len(c))) | {j, k})
    for d in dims:
        power = (1 if d == j else 0) + (1 if d == k else 0)
        total *= single(power, c[d] if d < len(c) else 0.0)
    return total


@pytest.mark.parametrize("j,k", [(0, 0), (0, 1), (1, 2)])
def test_moment_identity_matches_quadrature_oracle(j, k):
    c = np.array([0.5, -0.3, 0.2])
    oracle = hermite_oracle_moment(j, k, c)
    closed = moment_identity_target(j, k, c)
    assert oracle.imag == pytest.approx(0.0, abs=1e-12)
    assert oracle.real == pytest.approx(closed, abs=1e-12)
    est, (sr, _) = moment_identity_mc(j, k, c, 60_000, 23)
    assert abs(est.real - closed) < 4 * sr


def test_ell2_escape_proxy_and_growth_bound():
    ratios = [ell2_escape_ratio(1000 + s, 20_000) for s in range(10)]
    assert all(0.9 <= r <= 1.1 for r in ratios)
    n = 20_000
    assert max_coordinate(77, n) <= 8.0 * (1.0 + np.log(n))


@pytest.mark.parametrize("j,k", [(5, 0), (0, 2), (-1, 0), (0, -3)])
def test_moment_identity_rejects_coordinates_outside_c(j, k):
    c = [0.1, 0.2]
    bad = j if not 0 <= j < len(c) else k
    for functional in (
        lambda: moment_identity_mc(j, k, c, 100, 1),
        lambda: moment_identity_target(j, k, c),
    ):
        with pytest.raises(ValueError, match=f"coordinate {bad} "):
            functional()


@pytest.mark.parametrize("walk", [ell2_escape_ratio, max_coordinate])
@pytest.mark.parametrize("n", [0, -4])
def test_coordinate_walks_need_a_coordinate(walk, n):
    with pytest.raises(ValueError, match="at least one coordinate"):
        walk(7, n)


# -- spectral variance --------------------------------------------------------------------


def test_coordinate_walks_cross_the_chunk_boundary_exactly():
    # both walks read the sample point in chunks of 2^20 coordinates
    n = (1 << 20) + 17
    head, tail = streams.normals(5, 1 << 20), streams.normals(5, 17, offset=1 << 20)
    assert ell2_escape_ratio(5, n) == (float(head @ head) + float(tail @ tail)) / n
    assert max_coordinate(5, n) == float(np.abs(np.concatenate([head, tail])).max())


def test_fbm_brownian_case_is_linear():
    assert fbm_increment_variance(0.5, 2.0) == pytest.approx(2.0, abs=1e-6)


def test_fbm_normalization():
    assert fbm_increment_variance(0.75, 1.0) == 1.0


def test_fbm_known_brownian_integral():
    # closed form: integral of 2 (1 - cos x) / x^2 over (0, inf) equals pi
    val, err = fbm_spectral_integral(0.5, 1.0)
    assert val == pytest.approx(np.pi, abs=1e-8)
    assert err < 1e-8


@pytest.mark.parametrize("H", [0.25, 0.5, 0.75])
def test_fbm_scaling_ratio(H):
    assert fbm_increment_variance(H, 4.0) == pytest.approx(4.0 ** (2 * H), abs=1e-3)


def test_fbm_domain_validation():
    with pytest.raises(ValueError):
        fbm_spectral_integral(1.5, 1.0)
    with pytest.raises(ValueError):
        fbm_spectral_integral(0.5, -1.0)


@pytest.mark.parametrize("t", [1e308, float("inf"), float("nan")])
def test_fbm_rejects_times_the_series_cannot_hold(t):
    # 1e308 overflowed t^2 with an OverflowError
    with pytest.raises(ValueError, match="t "):
        fbm_increment_variance(0.5, t)
