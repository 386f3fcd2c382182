import numpy as np
import pytest

from noisefield import (
    BUDGET_EXCEEDED,
    ESCAPED,
    INSIDE,
    BorelSet,
    BrownianKernel,
    JuliaProductKernel,
    LebesgueMeasure,
    SzegoKernel,
    boundary_process_at,
    boundary_process_cov,
    cantor_measure,
    embed_point,
    exp_set_gram,
    exp_set_kernel,
    fourier_map_isometry,
    hardy_coefficients,
    julia_membership,
    julia_orbit,
    kernel_reconstruct,
    metric_identity_residual,
    szego_boundary_integral,
)


# -- reconstruction ------------------------------------------------------------------


def test_disk_kernel_reconstruction_geometric_series():
    k = SzegoKernel()
    assert kernel_reconstruct(k, 0.0, 0.0, 1) == pytest.approx(1.0)
    assert kernel_reconstruct(k, 0.5, 0.5, 60) == pytest.approx(4 / 3, abs=1e-15)


def test_path_kernel_reconstruction():
    k = BrownianKernel()
    val = kernel_reconstruct(k, 0.5, 0.5, 10_000)
    assert abs(val - 0.5) < 3e-5


def test_reconstruction_error_monotone_in_truncation():
    k = SzegoKernel()
    pts = [0.1, 0.4 + 0.3j, -0.6, 0.2 - 0.5j]
    exact = k.gram(pts)
    errs = []
    for J in (4, 16, 64, 256):
        block = k.feature_block(pts, J)
        errs.append(np.linalg.norm(block @ block.conj().T - exact))
    assert all(b <= a + 1e-14 for a, b in zip(errs[:-1], errs[1:]))


def test_gram_matrices_positive_semidefinite():
    rng = np.random.default_rng(0)
    cases = [
        (SzegoKernel(), 0.9 * np.exp(2j * np.pi * rng.random(8)) * rng.random(8)),
        (BrownianKernel(), np.sort(rng.random(8))),
    ]
    for kernel, pts in cases:
        G = kernel.gram(list(pts))
        eig = np.linalg.eigvalsh(G)
        assert eig.min() >= -1e-9 * np.trace(G).real


# -- embedding ------------------------------------------------------------------------


def test_embedding_at_origin():
    k = BrownianKernel()
    assert np.abs(embed_point(k, 0.0, 500)).max() == 0.0
    s = SzegoKernel()
    tau = embed_point(s, 0.0, 8)
    assert tau[0] == 1.0 and np.abs(tau[1:]).max() == 0.0


def test_path_embedding_distance():
    k = BrownianKernel()
    d = embed_point(k, 0.25, 10_000) - embed_point(k, 0.75, 10_000)
    assert np.sum(d * d) == pytest.approx(0.5, abs=5e-3)


def test_metric_identity_residuals():
    k = BrownianKernel()
    assert metric_identity_residual(k, np.linspace(0, 1, 16), 10_000) < 5e-3
    s = SzegoKernel()
    ring = [0.9 * np.exp(2j * np.pi * j / 8) for j in range(8)]
    assert metric_identity_residual(s, ring, 200) < 1e-8
    assert metric_identity_residual(s, ring[:1], 50) == 0.0


def test_metric_residual_shrinks_with_truncation():
    k = BrownianKernel()
    pts = np.linspace(0, 1, 6)
    r = [metric_identity_residual(k, pts, J) for J in (10, 100, 1000)]
    assert r[0] > r[1] > r[2]


# -- coordinate process -----------------------------------------------------------------


def test_boundary_process_covariance_mc():
    k = BrownianKernel()
    est, se = boundary_process_cov(k, 0.5, 0.5, 2048, 40_000, 3)
    assert abs(est - 0.5) < 4 * se[0] + 1e-4  # small truncation slack
    est2, se2 = boundary_process_cov(k, 0.25, 0.75, 2048, 40_000, 4)
    assert abs(est2 - 0.25) < 4 * se2[0] + 1e-4


def test_boundary_process_zero_mean():
    k = SzegoKernel()
    J, n = 64, 40_000
    from noisefield import streams

    xi = streams.normal_matrix(9, n, J)
    feats = np.conj(embed_point(k, 0.3 + 0.2j, J))
    vals = xi @ feats
    assert abs(vals.mean()) < 4 * np.abs(vals).std() / np.sqrt(n)


def test_deterministic_coordinates_reproduce_kernel():
    k = SzegoKernel()
    tau = embed_point(k, 0.3, 60)
    val = boundary_process_at(k, 0.4, tau)
    assert val == pytest.approx(k.evaluate(0.3, 0.4), abs=1e-12)
    b = BrownianKernel()
    tau_b = embed_point(b, 0.5, 5000)
    assert boundary_process_at(b, 0.25, tau_b) == pytest.approx(0.25, abs=1e-4)


def test_mixed_feature_family_leaves_reconstruction_invariant():
    k = BrownianKernel()
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(rng.normal(size=(32, 32)))
    pts = [0.2, 0.45, 0.8]
    J = 128
    block = k.feature_block(pts, J)
    mixed = block.copy()
    mixed[:, :32] = block[:, :32] @ U.T
    before = block @ block.T
    after = mixed @ mixed.T
    assert np.abs(before - after).max() < 1e-12


# -- circle quadrature -------------------------------------------------------------------


def test_circle_integral_matches_closed_form():
    for z, w in [(0.0, 0.0), (0.5, 0.5), (0.5, -0.5j), (0.3 + 0.4j, -0.2 + 0.7j), (-0.9, 0.9)]:
        quad = szego_boundary_integral(z, w, 2048)
        closed = 1.0 / (1.0 - z * np.conj(w))
        assert abs(quad - closed) < 1e-8


def test_circle_integral_rejects_boundary_points():
    with pytest.raises(ValueError, match="disk"):
        szego_boundary_integral(1.0, 0.0)


@pytest.mark.parametrize("nodes", [0, -1])
def test_circle_integral_needs_a_node(nodes):
    # an empty trapezoid sum would be nan
    with pytest.raises(ValueError, match="node"):
        szego_boundary_integral(0.5, 0.5, nodes)


# -- the quartic orbit kernel -----------------------------------------------------------


def test_membership_trichotomy():
    assert julia_membership(0.0) == INSIDE
    assert julia_membership(2.0) == ESCAPED
    assert julia_membership(1.0) == BUDGET_EXCEEDED  # bounded but non-summable orbit
    assert julia_membership(0.1j) == INSIDE


def test_fixed_orbit_at_one_by_direct_iteration():
    orbit = julia_orbit(1.0, 10)
    assert orbit[0] == 1.0
    assert np.allclose(orbit[1:], -1.0)


def test_escape_by_direct_iteration():
    orbit = julia_orbit(2.0, 3)
    assert orbit[1] == pytest.approx(8.0)
    assert abs(orbit[2]) > 1e3


def test_kernel_at_origin_is_one():
    k = JuliaProductKernel()
    for w in (0.0, 0.1, -0.15, 0.1j):
        assert k.evaluate(0.0, w) == pytest.approx(1.0)


def test_kernel_diagonal_at_least_one():
    k = JuliaProductKernel()
    assert k.evaluate(0.1, 0.1).real >= 1.0
    assert k.evaluate(-0.15, -0.15).real >= 1.0


def test_kernel_rejects_non_members():
    k = JuliaProductKernel()
    with pytest.raises(ValueError, match="not a certified member"):
        k.evaluate(2.0, 0.0)
    with pytest.raises(ValueError, match="not a certified member"):
        k.evaluate(1.0, 0.0)


def test_member_gram_positive_semidefinite():
    k = JuliaProductKernel()
    members = [0.0, 0.1, -0.15, 0.1j]
    G = k.gram(members)
    eig = np.linalg.eigvalsh(G)
    assert eig.min() >= -1e-9 * np.trace(G).real


@pytest.mark.parametrize("n_factors", [1, 5, 24, 300])
def test_julia_gram_entries_are_each_pairs_own_product(n_factors):
    # one orbit per member, but every entry keeps the bits of a lone pair's product
    k = JuliaProductKernel(n_factors=n_factors)
    zs = [0.0, 0.1, -0.15, 0.1j, 0.3615293582476763 + 0.09859444327724132j, -0.2 - 0.3j]
    G = k.gram(zs)
    for i, z in enumerate(zs):
        for j, w in enumerate(zs):
            pair = complex(np.prod(1.0 + julia_orbit(z, n_factors) * np.conj(julia_orbit(w, n_factors))))
            assert G[i, j] == pair == k.evaluate(z, w)
    assert np.array_equal(k.gram(zs[:2], zs[3:]), G[:2, 3:])
    assert k.gram([]).shape == (0, 0)
    with pytest.raises(ValueError, match="not a certified member"):
        k.gram(zs + [2.0])


def test_feature_sum_reproduces_truncated_product():
    k_full = JuliaProductKernel(n_factors=6)
    val = kernel_reconstruct(JuliaProductKernel(), 0.1, -0.15, 2**6)
    assert abs(val - k_full.evaluate(0.1, -0.15)) < 1e-14


@pytest.mark.parametrize("n_factors", [0, -1])
def test_julia_kernel_needs_a_factor(n_factors):
    with pytest.raises(ValueError, match="n_factors"):
        JuliaProductKernel(n_factors=n_factors)


def test_tail_bound_small_for_members():
    k = JuliaProductKernel(n_factors=24)
    assert k.tail_bound(0.1, -0.15) < 1e-30


# -- exponential set kernel ----------------------------------------------------------------


def test_exp_kernel_diagonal_and_disjoint():
    mu = LebesgueMeasure(0, 1)
    A = BorelSet.interval(0, 0.5)
    B = BorelSet.interval(0.5, 1.0)
    assert exp_set_kernel(mu, A, A) == pytest.approx(1.0)
    assert exp_set_kernel(mu, A, B) == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_exp_kernel_nested_sets():
    mu = LebesgueMeasure(0, 1)
    val = exp_set_kernel(mu, BorelSet.interval(0, 0.25), BorelSet.interval(0, 1))
    assert val == pytest.approx(np.exp(0.25 - 0.625), abs=1e-12)


def test_exp_kernel_rejects_infinite_mass():
    mu = LebesgueMeasure(-np.inf, np.inf)
    with pytest.raises(ValueError, match="finite"):
        exp_set_kernel(mu, BorelSet.interval(0, np.inf), BorelSet.interval(0, 1))


@pytest.mark.parametrize("seed", range(5))
def test_exp_kernel_gram_psd_random_families(seed):
    rng = np.random.default_rng(seed)
    mu = LebesgueMeasure(0, 1)
    sets = []
    for _ in range(8):
        a, b = np.sort(rng.uniform(0, 1, 2))
        sets.append(BorelSet.interval(a, b + 1e-6))
    G = exp_set_gram(mu, sets)
    eig = np.linalg.eigvalsh(G)
    assert eig.min() >= -1e-9 * np.trace(G)


def test_exp_kernel_gram_on_cantor_sets():
    mu = cantor_measure()
    sets = [mu.ifs.cylinder_set(w) for w in [(0,), (1,), (0, 0), (0, 1)]]
    G = exp_set_gram(mu, sets)
    assert np.linalg.eigvalsh(G).min() >= -1e-9 * np.trace(G)


# -- the exponential isometry -----------------------------------------------------------------


def test_isometry_single_set():
    mu = LebesgueMeasure(0, 1)
    rk, mc, se = fourier_map_isometry(mu, [BorelSet.interval(0, 1)], [1.0], 40_000, 7, J=256)
    assert rk == pytest.approx(1.0)
    assert abs(mc - 1.0) <= 4 * se  # |exp(i W)|^2 is identically one here


def test_isometry_two_disjoint_unit_sets():
    mu = LebesgueMeasure(0, 2)
    sets = [BorelSet.interval(0, 1), BorelSet.interval(1, 2)]
    rk, mc, se = fourier_map_isometry(mu, sets, [1.0, -1.0], 60_000, 8, J=512)
    assert rk == pytest.approx(2 - 2 * np.exp(-1), abs=1e-12)
    assert abs(mc - rk) < 4 * se + 2e-3


def test_isometry_zero_coefficients():
    mu = LebesgueMeasure(0, 1)
    rk, mc, se = fourier_map_isometry(mu, [BorelSet.interval(0, 1)], [0.0], 1000, 9, J=64)
    assert rk == 0.0 and mc == 0.0


# -- bridge to the coefficient embedding ------------------------------------------------------


def test_disk_kernel_matches_geometric_coefficients():
    # restriction of the disk machinery to real points in [1/2, 1) reproduces
    # the coefficient-embedding Gram values lam*rho/(1 - lam*rho)
    k = SzegoKernel()
    for lam in (0.5, 0.6, 0.75):
        for rho in (0.5, 0.7):
            h1 = hardy_coefficients(lam, 400)
            h2 = hardy_coefficients(rho, 400)
            target = k.evaluate(lam, rho).real - 1.0  # drop the constant feature
            assert h1 @ h2 == pytest.approx(target, abs=1e-12)
