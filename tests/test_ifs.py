import hashlib
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from noisefield import (
    BorelSet,
    IFSInvariantMeasure,
    binary_system,
    cantor_system,
    chaos_game_sample,
    closedness_residual,
    cuntz_adjoint_apply,
    cuntz_apply,
    cuntz_relation_residual,
    invariant_integrate,
    invariant_moments,
    make_ifs,
    pushforward_system,
    streams,
)
from noisefield import ifs as ifs_module
from noisefield.noise import GaussianNoiseField
from test_coeff_goldens import SYSTEMS


def broken_pair():
    return make_ifs([(1 / 3, 0.0), (1 / 3, 2 / 3)], [0.4, 0.4])


# -- construction ------------------------------------------------------------------


def test_cantor_system_geometry():
    ifs = cantor_system()
    assert ifs.hull == (0.0, 1.0)
    assert ifs.image(0) == pytest.approx((0.0, 1 / 3))
    assert ifs.image(1) == pytest.approx((2 / 3, 1.0))
    assert not ifs.covers()


def test_binary_system_covers():
    ifs = binary_system()
    assert ifs.covers()
    nu = IFSInvariantMeasure(ifs)
    assert nu.measure_of(BorelSet.interval(0.2, 0.7)) == pytest.approx(0.5)


def test_overlapping_branches_rejected():
    with pytest.raises(ValueError, match="overlap"):
        make_ifs([(0.8, 0.0), (0.8, 0.2)], [0.5, 0.5])


def test_expanding_branch_rejected():
    with pytest.raises(ValueError, match="expansion"):
        make_ifs([(1.2, 0.0), (0.3, 0.7)], [0.5, 0.5])


def test_cylinder_words_reject_digits_outside_the_branches():
    # negative indexing would otherwise read digit -1 as the last branch
    ifs = cantor_system()
    for word in [(-1,), (2,), (0, -1), (1, 0, 2)]:
        with pytest.raises(ValueError, match="branch index"):
            ifs.cylinder_interval(word)
        with pytest.raises(ValueError, match="branch index"):
            ifs.cylinder_set(word)
    assert ifs.cylinder_interval((1, 0)) == (2 / 3, 2 / 3 + 1 / 9)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_cylinder_word_names_every_cylinder_interval_and_nothing_else(name):
    ifs = SYSTEMS[name]
    k = ifs.n_branches
    for word in (w for n in range(6) for w in itertools.product(range(k), repeat=n)):
        assert ifs.cylinder_word(*ifs.cylinder_interval(word)) == word
    lo, hi = ifs.hull
    a, b = ifs.cylinder_interval((0,))
    for ends in [(lo - 1.0, hi), (a, a + 0.45 * (b - a)), (a, np.nextafter(b, np.inf)), (a, a)]:
        assert ifs.cylinder_word(*ends) is None, ends


def test_cylinder_set_rejects_a_word_its_float_interval_does_not_name():
    # below 3/4 this depth-34 Cantor interval is one ulp wide, not a point,
    # and does not name its word; near 0 a depth-40 interval still does
    ifs = cantor_system()
    word = (1, 0) * 17
    a, b = ifs.cylinder_interval(word)
    assert a < b and b - a == np.spacing(a)
    with pytest.raises(ValueError, match="does not name it"):
        ifs.cylinder_set(word)
    assert ifs.cylinder_set((0,) * 40).intervals == (ifs.cylinder_interval((0,) * 40),)


def test_inverse_is_left_inverse_of_branches():
    ifs = cantor_system()
    for i in (0, 1):
        for x in np.linspace(0.05, 0.95, 7):
            assert ifs.inverse(ifs.apply(i, x)) == pytest.approx(x, abs=1e-12)
    with pytest.raises(ValueError, match="gap"):
        ifs.inverse(0.5)


CDF_SYSTEMS = [
    cantor_system(),
    binary_system(),
    make_ifs([(0.6, 0.0), (0.25, 0.75)], [0.7, 0.3]),
    make_ifs(
        [(Fraction(1, 5), Fraction(0)), (Fraction(1, 4), Fraction(2, 5)), (Fraction(1, 5), Fraction(4, 5))],
        [Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)],
    ),
    make_ifs([(Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 3), Fraction(0))], [0.25, 0.75]),
]


@pytest.mark.parametrize("ifs", CDF_SYSTEMS)
def test_array_cdf_matches_scalar_calls_bit_for_bit(ifs):
    lo, hi = ifs.hull
    grid = np.concatenate(
        [
            np.linspace(lo - 0.1, hi + 0.1, 301),
            ifs.cell_images(3, lo),
            ifs.cell_images(3, hi),
            [lo, hi, np.nextafter(lo, -1.0), np.nextafter(hi, 2.0)],
        ]
    )
    got = ifs.cdf(np.stack([grid, grid[::-1]]))
    scalars = [ifs.cdf(x) for x in grid]
    assert all(isinstance(v, float) for v in scalars)
    assert got.shape == (2, len(grid))
    assert np.array_equal(got[0], scalars)
    assert np.array_equal(got[1], scalars[::-1])


@pytest.mark.parametrize("ifs", CDF_SYSTEMS)
def test_digits_of_cell_images_are_their_words(ifs):
    n, depth = ifs.n_branches, 4
    lo, hi = ifs.hull
    codes = np.arange(n**depth)
    words = np.stack([(codes // n**k) % n for k in range(depth)], axis=1)
    assert np.array_equal(ifs.digits(ifs.cell_images(depth, 0.5 * (lo + hi)), depth), words)
    assert np.array_equal(ifs.cell_images(depth, lo), [ifs.cylinder_interval(w)[0] for w in words])


def test_digits_reject_gap_points():
    ifs = cantor_system()
    assert ifs.digits([0.1, 0.9], 2).tolist() == [[0, 0], [1, 1]]
    with pytest.raises(ValueError, match="coding"):
        ifs.digits([0.1, 0.5], 2)


def test_scaling_dimension():
    assert cantor_system().scaling_dimension() == pytest.approx(np.log(2) / np.log(3), abs=1e-10)
    assert binary_system().scaling_dimension() == pytest.approx(1.0, abs=1e-12)


# -- sampling ------------------------------------------------------------------------


def test_chaos_game_cylinder_frequencies():
    ifs = cantor_system()
    pts = chaos_game_sample(ifs, 40_000, 5)
    se = np.sqrt(0.25 / len(pts))
    assert abs(np.mean(pts <= 1 / 3) - 0.5) < 4 * se
    # depth-two cylinder (0, 0)
    assert abs(np.mean(pts <= 1 / 9) - 0.25) < 4 * np.sqrt(0.25 * 0.75 / len(pts))


def test_chaos_game_binary_mean():
    pts = chaos_game_sample(binary_system(), 40_000, 6)
    se = np.sqrt(1 / 12 / len(pts))
    assert abs(pts.mean() - 0.5) < 4 * se


def test_chaos_game_replay():
    ifs = cantor_system()
    assert np.array_equal(chaos_game_sample(ifs, 100, 3), chaos_game_sample(ifs, 100, 3))


def test_chaos_game_names_a_negative_count():
    with pytest.raises(ValueError, match="sample count n"):
        chaos_game_sample(cantor_system(), -1, 3)


THREE_BRANCH = make_ifs([(0.2, 0.0), (0.2, 0.4), (0.2, 0.8)], [0.1, 0.2, 0.7])


def _searchsorted_chaos_game(system, n, stream_id):
    """The chaos game on G-digit words, by plain ``searchsorted`` and a word-by-word loop.

    Word g of a row is the clipped ``searchsorted`` code of uniform g in the
    cumulative word masses; it maps x to R[c] x + S[c], innermost word first.
    """
    k = system.n_branches
    word = max(g for g in range(1, 9) if g == 1 or k**g <= 256)
    depth = int(np.ceil(np.log(1e-15) / np.log(max(float(r) for r in system.ratios))))
    groups = -(-depth // word)
    u = streams.uniform_matrix(stream_id, n, groups)
    codes = np.searchsorted(np.cumsum(system.cylinder_masses(word)), u)
    codes = np.clip(codes, 0, k**word - 1)
    ratios, _ = system._affine_arrays()
    R = np.ones(k**word)
    for j in range(word):  # same product order as cylinder_masses: innermost digit last
        R = ratios[(np.arange(k**word) // k**j) % k] * R
    S = system.cell_images(word, 0.0)
    lo, hi = system.hull
    x = np.full(n, 0.5 * (lo + hi))
    for g in range(groups - 1, -1, -1):
        x = R[codes[:, g]] * x + S[codes[:, g]]
    return np.clip(x, lo, hi)


@pytest.mark.parametrize(
    "system",
    [cantor_system(), binary_system(), THREE_BRANCH],
    ids=["cantor", "binary", "three-branch-unequal"],
)
def test_chaos_game_digits_match_searchsorted_bit_for_bit(system):
    n = 8192 + 300
    assert np.array_equal(chaos_game_sample(system, n, 41), _searchsorted_chaos_game(system, n, 41))


@pytest.mark.parametrize("buckets", [1, 1 << 16])
@pytest.mark.parametrize("system", [cantor_system(), THREE_BRANCH], ids=["cantor", "three-branch"])
def test_chaos_game_guide_table_size_moves_no_byte(monkeypatch, system, buckets):
    monkeypatch.setattr(ifs_module, "_guide_buckets", lambda n_codes: buckets)
    n = 8192 + 300
    assert np.array_equal(chaos_game_sample(system, n, 41), _searchsorted_chaos_game(system, n, 41))


def test_chaos_game_depth_nine_cylinders_span_two_words():
    # Cantor words have 8 digits, so digit 9 comes from a second uniform.
    n = 1 << 17
    codes = cantor_system().digits(chaos_game_sample(cantor_system(), n, 12), 9) @ (2 ** np.arange(9))
    freq = np.bincount(codes, minlength=512) / n
    p = 2.0**-9
    assert np.all(np.abs(freq - p) < 4 * np.sqrt(p * (1 - p) / n))


def test_chaos_game_three_branch_depth_two_cylinders():
    n = 1 << 16
    d = THREE_BRANCH.digits(chaos_game_sample(THREE_BRANCH, n, 13), 2)
    freq = np.bincount(3 * d[:, 0] + d[:, 1], minlength=9) / n
    probs = np.array([0.1, 0.2, 0.7])
    p = np.outer(probs, probs).ravel()
    assert np.all(np.abs(freq - p) < 4 * np.sqrt(p * (1 - p) / n))


@pytest.mark.parametrize(
    "system",
    [
        make_ifs([(Fraction(1, 3), 0), (Fraction(1, 3), Fraction(2, 3))], weights)
        for weights in ([Fraction(1, 1000), Fraction(999, 1000)], [Fraction(999, 1000), Fraction(1, 1000)])
    ]
    + [THREE_BRANCH],
    ids=["cantor-light-left", "cantor-light-right", "three-branch-unequal"],
)
def test_chaos_game_points_stay_in_the_hull(system):
    lo, hi = system.hull
    pts = chaos_game_sample(system, 100_000, 14)
    assert lo <= pts.min() and pts.max() <= hi


@pytest.mark.parametrize(
    "system, digest",
    [
        (cantor_system(), "67599a3cf23ad2bbd6461cd5f5c57303c91362cd4b10b01a18a5c2a00f22545c"),
        (THREE_BRANCH, "89dda108a9d43bf835ccae6b7fa99887baadce61ccdd660094c95f2ddacb6db7"),
    ],
    ids=["cantor", "three-branch"],
)
def test_chaos_game_layout_is_pinned(system, digest):
    # A change to the word layout must change this digest deliberately.
    pts = chaos_game_sample(system, 8192 + 300, 41)
    assert hashlib.sha256(pts.astype("<f8").tobytes()).hexdigest() == digest


def test_chaos_game_requires_unit_weights():
    with pytest.raises(ValueError, match="summing to 1"):
        chaos_game_sample(broken_pair(), 10, 0)


# -- moments ---------------------------------------------------------------------------


def test_cantor_moments_exact_rationals():
    m = invariant_moments(cantor_system(), 2)
    assert m[1] == Fraction(1, 2) and isinstance(m[1], Fraction)
    assert m[2] == Fraction(3, 8) and isinstance(m[2], Fraction)


def test_probability_normalization():
    for ifs in (cantor_system(), binary_system()):
        assert invariant_integrate(ifs, [1]) == 1


def test_binary_moments_match_uniform():
    m = invariant_moments(binary_system(), 4)
    # uniform on [0,1]: m_k = 1/(k+1)
    assert m[:5] == [Fraction(1, k + 1) for k in range(5)]


def test_moment_degree_cap():
    with pytest.raises(ValueError, match="degree"):
        invariant_integrate(cantor_system(), [0] * 34)


# -- closedness --------------------------------------------------------------------------


def test_closedness_zero_for_unit_weights():
    assert closedness_residual(cantor_system()) == 0.0
    assert closedness_residual(binary_system()) == 0.0


def test_closedness_detects_broken_weights():
    assert closedness_residual(broken_pair()) == pytest.approx(0.2, abs=1e-12)


def _walked_closedness_residual(ifs, depth=6):
    """The defect of every word up to ``depth``, walked one word at a time."""
    ws = [float(p) for p in ifs.weights]
    worst, level = 0.0, [1.0]
    for _ in range(depth + 1):
        worst = max([worst] + [abs(sum(w * m for w in ws) - m) for m in level])
        level = [w * m for m in level for w in ws]
    return worst


@pytest.mark.parametrize("weights", [[0.4, 0.4], [0.9, 0.9], [1.2, 0.1], [0.3, 0.5, 0.4],
                                     [1 / 6] * 6, [0.1, 0.2, 0.7]])
def test_closedness_matches_the_word_walk(weights):
    n = len(weights)
    ifs = make_ifs([(1 / (2 * n), k / n) for k in range(n)], weights)
    assert closedness_residual(ifs) == pytest.approx(_walked_closedness_residual(ifs), abs=1e-15)


def test_pushforward_two_routes_agree():
    # mass of a set under the push-forward: cylinder-shift route (the
    # conjugated system) versus preimage route on the original measure
    mu = IFSInvariantMeasure(cantor_system())
    for i in (0, 1):
        push = IFSInvariantMeasure(pushforward_system(cantor_system(), i))
        for word in [(0,), (1,), (0, 1)]:
            target = push.ifs.cylinder_set(word)
            shifted = mu.measure_of(mu.ifs.cylinder_set(word))
            lo, hi = target.intervals[0]
            r, s = 1 / 3, (0.0 if i == 0 else 2 / 3)
            pre = BorelSet.interval((lo - s) / r, (hi - s) / r)
            assert push.measure_of(target) == pytest.approx(shifted)
            assert mu.measure_of(pre) == pytest.approx(shifted, abs=1e-9)


# -- Cuntz operators -----------------------------------------------------------------------


def test_isometry_and_annihilation_on_walsh_coefficients():
    ifs = cantor_system()
    rng = np.random.default_rng(1)
    f = rng.normal(size=2**5)
    lifted = cuntz_apply(ifs, 0, f, 6)
    assert np.allclose(cuntz_adjoint_apply(ifs, 0, lifted, 6), f, atol=1e-14)
    assert np.abs(cuntz_adjoint_apply(ifs, 1, lifted, 6)).max() < 1e-14
    # isometry: norms agree
    assert np.linalg.norm(lifted) == pytest.approx(np.linalg.norm(f))


def test_completeness_on_depth_six_coefficients():
    ifs = cantor_system()
    rng = np.random.default_rng(2)
    g = rng.normal(size=2**6)
    total = np.zeros_like(g)
    for i in (0, 1):
        down = cuntz_adjoint_apply(ifs, i, g, 6)
        total += cuntz_apply(ifs, i, down, 6)
    assert np.allclose(total, g, atol=1e-13)


@pytest.mark.parametrize("system", [cantor_system(), binary_system()])
def test_relation_residuals_exact_systems(system):
    r1, r2 = cuntz_relation_residual(system, depth=8)
    assert r1 < 1e-10 and r2 < 1e-10


@pytest.mark.parametrize("depth", [0, -1])
def test_relation_residual_rejects_depth_below_one(depth):
    with pytest.raises(ValueError, match="depth must be at least 1"):
        cuntz_relation_residual(cantor_system(), depth)


def test_relation_residual_detects_non_closed():
    r1, r2 = cuntz_relation_residual(broken_pair(), depth=6)
    assert r2 >= abs(1 - 0.8) - 1e-12


def _dense_isometry(ifs, i, depth):
    """S_i as a dense n^d x n^(d-1) matrix in orthonormal cell coordinates."""
    n = ifs.n_branches
    closed = ifs.is_closed(tol=1e-9)
    phat = float(ifs.probabilities()[i]) if closed else float(ifs.weights[i]) / ifs.weight_sum
    cols = np.arange(n ** (depth - 1))
    mat = np.zeros((n**depth, n ** (depth - 1)))
    mat[i + n * cols, cols] = np.sqrt(phat / float(ifs.weights[i]))
    return mat


def _dense_residuals(ifs, depth):
    mats = [_dense_isometry(ifs, i, depth) for i in range(ifs.n_branches)]
    eye_lo, eye_hi = np.eye(mats[0].shape[1]), np.eye(mats[0].shape[0])
    r1 = max(
        np.linalg.norm(si.T @ sj - (eye_lo if i == j else 0.0), 2)
        for i, si in enumerate(mats)
        for j, sj in enumerate(mats)
    )
    r2 = np.linalg.norm(sum(si @ si.T for si in mats) - eye_hi, 2)
    return float(r1), float(r2)


def three_branch():
    return make_ifs([(0.2, 0.0), (0.2, 0.4), (0.2, 0.8)], [0.15, 0.25, 0.55])


@pytest.mark.parametrize("depth", [4, 6])
@pytest.mark.parametrize(
    "system",
    [
        cantor_system(),
        binary_system(),
        broken_pair(),
        make_ifs([(1 / 3, 0.0), (1 / 3, 2 / 3)], [0.3, 0.6]),
        three_branch(),
    ],
    ids=["cantor", "binary", "broken_pair", "weights-0.3-0.6", "three-branch"],
)
def test_relation_residuals_equal_the_dense_operator_norms(system, depth):
    assert cuntz_relation_residual(system, depth) == _dense_residuals(system, depth)


def test_relation_residuals_hold_no_dense_operator():
    tracemalloc.start()
    try:
        cuntz_relation_residual(three_branch(), depth=7)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 4.0  # one dense 3^7 x 3^7 product alone is 36 MiB


def test_depth_overflow_rejected():
    with pytest.raises(ValueError, match="depth overflow"):
        cuntz_apply(cantor_system(), 0, np.zeros(2**24), 25)


def test_pushforward_integration_isometry():
    # variance of the stochastic integral is preserved by (f, mu) ->
    # (f o R, push-forward by tau_i), with R the original inverse map
    orig = cantor_system()
    mu = IFSInvariantMeasure(orig)
    field = GaussianNoiseField(mu, J=256)
    f = lambda x: np.cos(2.0 * x)
    target = mu.integrate(lambda x: np.cos(2.0 * x) ** 2)[0]
    n = 30_000
    vals = field.ito_samples(f, n, 31)
    se = target * np.sqrt(2.0 / n)
    assert abs(vals.var() - target) < 4 * se
    for i in (0, 1):
        push = IFSInvariantMeasure(pushforward_system(orig, i))
        push_field = GaussianNoiseField(push, J=256)
        fR = lambda x: np.cos(2.0 * np.asarray([orig.inverse(v) for v in np.atleast_1d(x)]))
        vals_i = push_field.ito_samples(fR, n, 33 + i)
        assert abs(vals_i.var() - target) < 4 * se
