import tracemalloc

import numpy as np
import pytest

from noisefield import (
    BernoulliConvolution,
    ac2_l2_proxy,
    coupled_samples,
    covariance,
    cross_term_bound_mc,
    density_estimate,
    fourier_transform,
    hardy_coefficients,
    inversion_density,
    scaling_identity_residual,
)
from noisefield import quadrature, streams
from noisefield.bernoulli import (
    _INVERSION_NODES,
    _cutoff_panels,
    _grid_step,
    _unit_phases,
    histogram_density,
)

GOLDEN_INVERSE = 2.0 / (1.0 + np.sqrt(5.0))


# -- sampling ------------------------------------------------------------------------


def test_sample_mean_and_variance():
    bc = BernoulliConvolution(0.5, stream_id=1)
    x = bc.sample(100_000)
    n = len(x)
    assert abs(x.mean()) < 4 * x.std() / np.sqrt(n)
    se_var = x.var() * np.sqrt(2.0 / n)
    assert abs(x.var() - 1 / 3) < 4 * se_var


def test_sample_support_bound():
    bc = BernoulliConvolution(1 / 3, stream_id=2)
    x = bc.sample(50_000)
    assert np.all(np.abs(x) <= 0.5 + 1e-12)


def test_sample_replay():
    bc = BernoulliConvolution(0.7, stream_id=3)
    assert np.array_equal(bc.sample(100), bc.sample(100))


def test_truncation_depth_tracks_lambda():
    assert BernoulliConvolution(0.5).K >= 46
    assert BernoulliConvolution(0.9).K >= 300


# -- covariance ----------------------------------------------------------------------


def test_covariance_closed_form():
    assert covariance(0.5, 0.5) == pytest.approx(1 / 3)
    assert covariance(0.5, 0.7) == covariance(0.7, 0.5)
    assert covariance(1e-8, 0.5) == pytest.approx(5e-9, rel=1e-6)


def test_coupled_covariance_grid():
    lams = [0.3, 0.45, 0.6, 0.75]
    X = coupled_samples(lams, 60_000, 5)
    n = X.shape[0]
    for i, a in enumerate(lams):
        for j, b in enumerate(lams):
            prod = X[:, i] * X[:, j]
            se = prod.std(ddof=1) / np.sqrt(n)
            assert abs(prod.mean() - covariance(a, b)) < 4 * se


def test_gram_of_kernel_sections_matches_sampling():
    # entrywise agreement of the closed-form Gram with the coupled MC Gram
    lams = [0.5, 0.55, 0.6, 0.68, 0.75]
    X = coupled_samples(lams, 60_000, 8)
    n = X.shape[0]
    for i, a in enumerate(lams):
        for j, b in enumerate(lams):
            prod = X[:, i] * X[:, j]
            se = prod.std(ddof=1) / np.sqrt(n)
            assert abs(prod.mean() - covariance(a, b)) < 4 * se


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_coupled_samples_block_works_in_row_tiles():
    # a whole 8192 x 113 +-1 block and row_dot's product of it would take 14 MiB
    with streams.workers(1):
        assert _traced_peak_mb(lambda: coupled_samples([0.3, 0.55, 0.75], 8192, 2)) < 4.0


# -- transform -----------------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.5, 0.6, 0.75, 0.9])
def test_transform_matches_the_out_of_place_product_bit_for_bit(lam):
    t = np.linspace(-300.0, 300.0, 2001)
    want = np.ones_like(t)
    for k in range(1, 91):
        want = want * np.cos(lam**k * t)
    got, _ = fourier_transform(lam, t, 90)
    assert np.array_equal(got, want)


def test_transform_at_zero():
    val, tail = fourier_transform(0.5, 0.0, 10)
    assert val == 1.0 and tail == 0.0
    assert np.ndim(val) == 0 and not isinstance(val, np.ndarray)


def test_transform_matches_sine_ratio():
    t = np.linspace(-10, 10, 4001)
    val, _ = fourier_transform(0.5, t, 40)
    ref = np.sinc(t / np.pi)  # sin(t)/t with numpy's normalized sinc
    assert np.abs(val - ref).max() < 1e-10


def test_transform_at_pi_vanishes():
    val, _ = fourier_transform(0.5, np.pi, 40)
    assert abs(val) < 1e-10


def test_transform_tail_bound_reported():
    _, tail = fourier_transform(0.5, 5.0, 10)
    assert 0 < tail < (5.0**2) * 0.5 ** (2 * 11) / (2 * (1 - 0.25)) * 1.0000001


# -- densities -----------------------------------------------------------------------


def test_uniform_density_at_half():
    bc = BernoulliConvolution(0.5, stream_id=6)
    centers, hist, inv = density_estimate(bc, 400_000, 0.01, 200.0)
    assert np.sum(np.abs(hist - 0.5)) * 0.01 < 0.03
    assert np.sum(np.abs(inv - 0.5)) * 0.01 < 0.02
    # histogram integrates to one
    assert np.sum(hist) * 0.01 == pytest.approx(1.0, abs=0.005)


def test_density_symmetry():
    bc = BernoulliConvolution(0.7, stream_id=7)
    centers, hist, inv = density_estimate(bc, 400_000, 0.02, 150.0)
    assert np.sum(np.abs(inv - inv[::-1])) * 0.02 < 0.02
    assert np.sum(np.abs(hist - hist[::-1])) * 0.02 < 0.05


def _cosine_oracle(lam, xs, cutoff):
    """The inversion density as one cosine per (point, node)."""
    n0, edges = _cutoff_panels(lam, cutoff, "cutoff")
    tq, wq = quadrature.panel_rule(edges, _INVERSION_NODES)
    chf, _ = fourier_transform(lam, tq, n0)
    return np.cos(np.outer(xs, tq)) @ (wq * chf) / np.pi


@pytest.mark.parametrize("lam", [0.5, 0.75])
@pytest.mark.parametrize("h", [0.01, 0.013])  # 2 r / 0.013 is not a whole number of bins
def test_grid_inversion_matches_a_cosine_oracle(lam, h):
    bc = BernoulliConvolution(lam, stream_id=14)
    centers, _, inv = density_estimate(bc, 1000, h, 200.0)
    assert np.max(np.abs(inv - _cosine_oracle(lam, centers, 200.0))) <= 2e-15


def test_point_inversion_matches_a_cosine_oracle():
    xs = np.array([-1.7, -0.31, 0.0, 0.2, 1.05, 2.9])
    assert np.max(np.abs(inversion_density(0.6, xs) - _cosine_oracle(0.6, xs, 200.0))) <= 2e-15


def test_unit_phases_in_a_reused_buffer_equal_exp_of_an_outer_product():
    x = np.array([-2.5, -0.0, 0.0, 0.3, 1.7])
    t = np.linspace(0.0, 200.0, 97)
    buf = np.full(len(x) * len(t) + 3, np.nan + 1j)  # stale values must not leak
    np.testing.assert_array_equal(_unit_phases(x, t, buf), np.exp(1j * np.outer(x, t)))
    np.testing.assert_array_equal(_unit_phases(x[:2], t, buf), np.exp(1j * np.outer(x[:2], t)))


def test_inversion_reads_only_evenly_spaced_points_as_a_grid():
    centers, _ = histogram_density(np.zeros(1), 3.0, 0.013)
    assert _grid_step(centers) == pytest.approx(6.0 / len(centers), rel=1e-14)
    bent = centers.copy()
    bent[40] += 1e-9
    assert _grid_step(bent) is None
    assert np.max(np.abs(inversion_density(0.75, bent) - _cosine_oracle(0.75, bent, 200.0))) <= 2e-15


def test_density_estimate_memory_does_not_grow_with_bins_times_nodes():
    # a whole 600 x 4800 cosine matrix and its outer product would take 44 MiB
    bc = BernoulliConvolution(0.75)
    assert _traced_peak_mb(lambda: density_estimate(bc, 20_000)) < 8.0


def test_self_similarity_in_law():
    # the histogram of the equal mix of lam*(X+1) and lam*(X-1) matches X's
    bc = BernoulliConvolution(0.5, stream_id=8)
    n = 400_000
    x = bc.sample(n)
    y = bc.sample(n, first=n)
    coin = BernoulliConvolution(0.5, stream_id=9).sample(n, first=7 * n) > 0
    mixed = 0.5 * np.where(coin, y + 1.0, y - 1.0)
    _, base = histogram_density(x, 1.0, 0.02)
    _, mix = histogram_density(mixed, 1.0, 0.02)
    assert np.sum(np.abs(base - mix)) * 0.02 < 0.02


# -- scaling law ----------------------------------------------------------------------


def test_scaling_identity_uniform_case():
    bc = BernoulliConvolution(0.5, stream_id=10)
    assert scaling_identity_residual(bc, 1_000_000, 0.01) < 0.05


def test_scaling_identity_exploratory_threshold():
    bc = BernoulliConvolution(0.75, stream_id=11)
    assert scaling_identity_residual(bc, 400_000, 0.01) < 0.1


def test_scaling_identity_detects_wrong_weight():
    bc = BernoulliConvolution(0.5, stream_id=12)
    good = scaling_identity_residual(bc, 400_000, 0.01, weight=0.5)
    bad = scaling_identity_residual(bc, 400_000, 0.01, weight=1 / 3)
    assert bad >= good + 0.15


# -- square-integrability proxy ----------------------------------------------------------


def test_proxy_converges_for_uniform():
    val = ac2_l2_proxy(0.5, 200.0)
    assert 0.95 * np.pi <= val <= np.pi + 1e-9


def test_proxy_monotone_in_cutoff():
    vals = [ac2_l2_proxy(0.6, T) for T in (50.0, 100.0, 200.0)]
    assert vals[0] <= vals[1] <= vals[2]


def test_proxy_keeps_growing_for_golden_inverse():
    # diagnostic signature of the singular parameter: no plateau by T = 2000
    a = ac2_l2_proxy(GOLDEN_INVERSE, 1000.0)
    b = ac2_l2_proxy(GOLDEN_INVERSE, 2000.0)
    assert b > a + 1e-3


@pytest.mark.parametrize("T", [float("inf"), 1e308, float("nan"), 0.0])
def test_proxy_rejects_cutoffs_without_a_panel_grid(T):
    # inf and 1e308 overflowed int(2 T) with an OverflowError
    with pytest.raises(ValueError, match="T must be positive with 2 T finite"):
        ac2_l2_proxy(0.6, T)
    with pytest.raises(ValueError, match="cutoff must be positive"):
        inversion_density(0.6, [0.0], T)


# -- coefficient embedding ----------------------------------------------------------------


def test_hardy_prefix_entries():
    h = hardy_coefficients(0.5, 60)
    assert h[0] == 0.5
    assert h @ h == pytest.approx(1 / 3, abs=1e-15)


def test_hardy_cross_inner_product():
    h5 = hardy_coefficients(0.5, 60)
    h9 = hardy_coefficients(0.9, 60)
    assert h5 @ h9 == pytest.approx(0.45 / 0.55, abs=1e-3)


def test_hardy_tail_bound():
    n = 20
    h = hardy_coefficients(0.5, n)
    exact = covariance(0.5, 0.5)
    tail = 0.5**n * 0.5**n / (1 - 0.25)
    assert abs(h @ h - exact) <= tail + 1e-15


# -- the two-sample cross bound ------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.6, 0.75])
@pytest.mark.parametrize("r", [0.1, 0.5])
def test_cross_term_cauchy_schwarz_bound(lam, r):
    bc = BernoulliConvolution(lam, stream_id=13)
    est, se, bound = cross_term_bound_mc(bc, r, 100_000)
    assert abs(est) <= bound + 4 * se


def test_inversion_density_positive_mass():
    xs = np.linspace(-0.9, 0.9, 19)
    dens = inversion_density(0.5, xs, cutoff=200.0)
    assert np.all(dens > 0.4)
