"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Monte Carlo criteria bracket their targets at four standard errors under
fixed seeds; exact criteria assert at the stated tolerances.  Truncations are
pinned here: set-indexed expansions use the documented set-expansion
truncations (Legendre 512, Walsh depth 10, sine 10^4), which keep truncation
bias far below the Monte Carlo resolution.
"""

import hashlib
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import noisefield as nf
from noisefield import BorelSet
from noisefield.cli import main as cli_main


def report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_covariance_law():
    t0 = time.monotonic()
    field = nf.GaussianNoiseField(nf.LebesgueMeasure(0, 1), J=512)
    est, se = field.covariance_mc(BorelSet.interval(0, 0.6), BorelSet.interval(0.4, 1.0), 100_000, 7)
    elapsed = time.monotonic() - t0
    ok = abs(est - 0.2) < 4 * se and elapsed < 10.0
    report(1, "covariance law", ok, f"est={est:.5f} se={se:.5f} target=0.2 time={elapsed:.1f}s")


def test_criterion_02_cantor_variance():
    mu = nf.cantor_measure()
    field = nf.GaussianNoiseField(mu, basis=nf.WalshBasis(mu, depth=10), J=1024)
    A = mu.ifs.cylinder_set((0,))  # the set (0, 1/3]
    est, se = field.covariance_mc(A, A, 100_000, 11)
    ok = abs(est - 0.5) < 4 * se
    report(2, "cantor variance", ok, f"est={est:.5f} se={se:.5f} target=0.5")


def test_criterion_03_ito_isometry():
    field = nf.GaussianNoiseField(nf.LebesgueMeasure(0, 1), J=512)
    n = 100_000
    vals = field.ito_samples(lambda x: x, n, 13)
    est = float(vals.var())
    se = (1 / 3) * np.sqrt(2.0 / n)
    ok = abs(est - 1 / 3) < 4 * se
    report(3, "stochastic-integral isometry", ok, f"var={est:.5f} target={1 / 3:.5f}")


def test_criterion_04_change_of_measure():
    mu = nf.DensityMeasure(0, 1, [0.0, 2.0])
    lam = nf.LebesgueMeasure(0, 1)
    rho = lambda x: 2.0 * np.asarray(x, dtype=float)
    mu_basis = nf.make_basis(mu)
    field_mu = nf.GaussianNoiseField(mu, basis=mu_basis, J=32)
    field_lam = nf.GaussianNoiseField(lam, basis=nf.TransformedBasis(mu_basis, rho, lam), J=32)
    f = lambda x: np.asarray(x, dtype=float)
    f_moved = lambda x: np.asarray(x, dtype=float) * np.sqrt(rho(x))
    worst = max(
        abs(field_mu.ito_integral(f, xi) - field_lam.ito_integral(f_moved, xi))
        for xi in (nf.sample_xi(seed, 32) for seed in range(100))
    )
    ok = worst < 1e-8
    report(4, "change of measure, per-sample", ok, f"max diff={worst:.2e} tol=1e-8")


def test_criterion_05_gamma_psi_identity():
    worst = 0.0
    cases = [
        (nf.GaussianNoiseField(nf.LebesgueMeasure(0, 1), J=32),
         [BorelSet.interval(0, 0.6), BorelSet.interval(0.25, 0.5), BorelSet.interval(0.1, 1.0)]),
        (nf.GaussianNoiseField(nf.cantor_measure(), J=64),
         [nf.cantor_measure().ifs.cylinder_set(w) for w in [(0,), (1,), (0, 1)]]),
    ]
    for field, sets in cases:
        for seed in range(5):
            xi = nf.sample_xi(seed, field.J)
            z = field.psi_map(xi)
            for A in sets:
                worst = max(worst, abs(field.gamma_map(z, A) - field.noise_on_set(A, xi)))
    ok = worst < 1e-12
    report(5, "factorization identity", ok, f"max |Gamma(Psi(xi))(A) - W_A(xi)|={worst:.2e}")


def test_criterion_06_characteristic_functional():
    c = np.zeros(8)
    c[0] = 1.0
    est, (sr, si) = nf.characteristic_functional_mc(c, 100_000, 17)
    target = np.exp(-0.5)
    ok = abs(est.real - target) < 4 * sr and abs(est.imag) < 4 * si
    report(6, "characteristic functional", ok, f"est={est.real:.5f} target={target:.5f}")


def test_criterion_07_corrected_moment_identity():
    ok, details = True, []
    cases = [
        (0, 0, np.array([0.5, -0.3, 0.2])),
        (0, 1, np.array([0.5, -0.3, 0.2])),
        (1, 2, np.array([0.0, 1.0, 1.0])),
    ]
    for j, k, c in cases:
        target = nf.moment_identity_target(j, k, c)
        est, (sr, _) = nf.moment_identity_mc(j, k, c, 100_000, 19 + j + k)
        ok = ok and abs(est.real - target) < 4 * sr
        details.append(f"({j},{k}): est={est.real:+.4f} target={target:+.4f}")
    report(7, "second-moment identity under the phase", ok, "; ".join(details))


def test_criterion_08_l2_escape_proxy():
    t0 = time.monotonic()
    good = sum(0.9 <= nf.ell2_escape_ratio(1000 + s, 100_000) <= 1.1 for s in range(100))
    elapsed = time.monotonic() - t0
    ok = good >= 99 and elapsed < 30.0
    report(8, "square-sum escape proxy", ok, f"{good}/100 seeds in window, time={elapsed:.1f}s")


def test_criterion_09_atom_identity():
    measures = [
        nf.AtomicMeasure([(0.0, 0.25), (1.0, 0.75)]),
        nf.AtomicMeasure([(-1.0, 0.5), (0.0, 1.5), (2.0, 2.0)]),
        nf.AtomicMeasure([(0.3, 0.1)]),
    ]
    worst = 0.0
    for mu in measures:
        basis = nf.make_basis(mu)
        for x0, m in mu.atoms():
            total = sum(basis.evaluate(j, x0)[0] ** 2 for j in range(len(mu.atoms())))
            worst = max(worst, abs(total * m - 1.0))
    ok = worst < 1e-12
    report(9, "atom identity", ok, f"max relative defect={worst:.2e}")


def test_criterion_10_cuntz_relations():
    t0 = time.monotonic()
    residuals = [nf.cuntz_relation_residual(sys_, depth=8) for sys_ in (nf.cantor_system(), nf.binary_system())]
    elapsed = time.monotonic() - t0
    worst = max(max(r) for r in residuals)
    ok = worst < 1e-10 and elapsed < 5.0
    report(10, "isometry relations", ok, f"max residual={worst:.2e} time={elapsed:.1f}s")


def test_criterion_11_cantor_moments_exact():
    m = nf.invariant_moments(nf.cantor_system(), 2)
    ok = m[1] == Fraction(1, 2) and m[2] == Fraction(3, 8)
    report(11, "exact attractor moments", ok, f"m1={m[1]} m2={m[2]}")


def test_criterion_12_bernoulli_covariance_grid():
    lams = [0.3, 0.45, 0.55, 0.65, 0.75]
    X = nf.coupled_samples(lams, 100_000, 23)
    n = X.shape[0]
    worst_z = 0.0
    for i, a in enumerate(lams):
        for j, b in enumerate(lams):
            prod = X[:, i] * X[:, j]
            se = prod.std(ddof=1) / np.sqrt(n)
            worst_z = max(worst_z, abs(prod.mean() - nf.covariance(a, b)) / se)
    ok = worst_z < 4.0
    report(12, "random-series covariance grid", ok, f"worst |z|={worst_z:.2f} over 5x5 grid")


def test_criterion_13_cosine_product_vs_sine():
    t = np.linspace(-10, 10, 4001)
    val, _ = nf.fourier_transform(0.5, t, 40)
    err = float(np.abs(val - np.sinc(t / np.pi)).max())
    ok = err < 1e-10
    report(13, "cosine product consistency", ok, f"max err={err:.2e}")


def test_criterion_14_half_parameter_density():
    bc = nf.BernoulliConvolution(0.5, stream_id=29)
    _, hist, _ = nf.density_estimate(bc, 1_000_000, 0.01, 200.0)
    l1 = float(np.sum(np.abs(hist - 0.5)) * 0.01)
    ok = l1 < 0.02
    report(14, "uniform density at lambda=1/2", ok, f"L1 error={l1:.4f} tol=0.02")


def test_criterion_15_scaling_identity():
    bc = nf.BernoulliConvolution(0.5, stream_id=31)
    good = nf.scaling_identity_residual(bc, 1_000_000, 0.01, weight=0.5)
    bad = nf.scaling_identity_residual(bc, 1_000_000, 0.01, weight=1 / 3)
    ok = good < 0.05 and bad >= good + 0.15
    report(15, "scaling law residual", ok, f"residual={good:.4f} corrupted={bad:.4f}")


def test_criterion_16_cross_term_bound():
    ok, details = True, []
    for lam in (0.6, 0.75):
        bc = nf.BernoulliConvolution(lam, stream_id=37)
        for r in (0.1, 0.5):
            est, se, bound = nf.cross_term_bound_mc(bc, r, 200_000)
            ok = ok and abs(est) + 4 * se <= bound
            details.append(f"lam={lam} r={r}: |est|+4se={abs(est) + 4 * se:.4f} bound={bound:.4f}")
    report(16, "cross-term bound", ok, "; ".join(details))


def test_criterion_17_circle_quadrature():
    pts = [(0.0, 0.0), (0.5, 0.5), (0.5, -0.5j), (0.3 + 0.4j, -0.2 + 0.7j), (-0.9, 0.9)]
    worst = max(
        abs(nf.szego_boundary_integral(z, w, 2048) - 1.0 / (1.0 - z * np.conj(w)))
        for z, w in pts
    )
    ok = worst < 1e-8
    report(17, "disk boundary integral", ok, f"max err={worst:.2e}")


def test_criterion_18_path_embedding():
    t0 = time.monotonic()
    res = nf.metric_identity_residual(nf.BrownianKernel(), np.linspace(0, 1, 16), 10_000)
    elapsed = time.monotonic() - t0
    ok = res < 5e-3 and elapsed < 20.0
    report(18, "path-kernel embedding metric", ok, f"residual={res:.2e} time={elapsed:.1f}s")


def test_criterion_19_exponential_set_kernel():
    mu = nf.LebesgueMeasure(0, 1)
    worst_eig = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sets = []
        for _ in range(8):
            a, b = np.sort(rng.uniform(0, 1, 2))
            sets.append(BorelSet.interval(a, b + 1e-6))
        G = nf.exp_set_gram(mu, sets)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(G).min() / np.trace(G)))
    mu2 = nf.LebesgueMeasure(0, 2)
    rk, mc, se = nf.fourier_map_isometry(
        mu2, [BorelSet.interval(0, 1), BorelSet.interval(1, 2)], [1.0, -1.0], 100_000, 41, J=512
    )
    ok = worst_eig >= -1e-9 and abs(mc - rk) < 4 * se + 2e-3
    report(
        19,
        "exponential set kernel",
        ok,
        f"min eig/trace={worst_eig:.1e}; isometry mc={mc:.4f} vs {rk:.4f} (se={se:.4f})",
    )


def test_criterion_20_quartic_orbit_example():
    checks = [
        nf.julia_membership(0.0) == nf.INSIDE,
        nf.julia_membership(2.0) == nf.ESCAPED,
        nf.julia_membership(1.0) != nf.INSIDE,  # bounded but non-summable orbit
    ]
    kernel = nf.JuliaProductKernel()
    members = [0.0, 0.1, -0.15, 0.1j]
    checks.append(all(kernel.evaluate(0.0, w) == pytest.approx(1.0) for w in members))
    G = kernel.gram(members)
    checks.append(np.linalg.eigvalsh(G).min() >= -1e-9 * np.trace(G).real)
    ok = all(checks)
    report(20, "quartic orbit kernel", ok, f"checks={checks}")


def test_criterion_21_spectral_variance_scaling():
    worst = max(
        abs(nf.fbm_increment_variance(H, 4.0) - 4.0 ** (2 * H)) for H in (0.25, 0.5, 0.75)
    )
    ok = worst < 1e-3
    report(21, "fractional increment scaling", ok, f"max |V(4)/V(1) - 4^2H|={worst:.2e}")


ACCEPTANCE_RUNS = [
    ["sample-path", "--measure", "lebesgue:0,1", "--A", "0,0.6", "--N", "500", "--J", "64",
     "--seed", "3", "--out", "sample-path.csv"],
    ["covariance", "--measure", "lebesgue:0,1", "--A", "0,0.6", "--B", "0.4,1", "--N", "5000",
     "--J", "128", "--seed", "7", "--out", "covariance.csv"],
    ["ito-isometry", "--measure", "lebesgue:0,1", "--poly", "0,1", "--N", "5000", "--J", "64",
     "--seed", "5", "--out", "ito.csv"],
    ["sigma-inner", "--f1", "1", "--mu1", "lebesgue:0,1", "--f2", "1", "--mu2", "density:0,1:4",
     "--out", "inner.csv"],
    ["equivalence", "--f1", "1", "--mu1", "lebesgue:0,1", "--f2", "0.7071067811865476",
     "--mu2", "density:0,1:2", "--out", "equiv.csv"],
    ["ifs-moments", "--ifs", "cantor", "--degree", "6", "--out", "moments.csv"],
    ["cuntz-check", "--ifs", "cantor", "--depth", "8", "--out", "cuntz.csv"],
    ["bernoulli-density", "--lambda", "0.5", "--N", "20000", "--h", "0.05", "--seed", "11",
     "--out", "density.csv"],
    ["bernoulli-density", "--lambda", "0.75", "--N", "20000", "--h", "0.05", "--seed", "11",
     "--out", "density-0.75.csv"],
    ["bernoulli-scaling", "--lambda", "0.5", "--N", "20000", "--h", "0.05",
     "--weights", "0.5,0.3333333333333333", "--seed", "13", "--out", "scaling.csv"],
    ["ac2-proxy", "--lambda", "0.5", "--T-values", "50,100,200", "--out", "proxy.csv"],
    ["boundary-embed", "--kernel", "brownian", "--points", "8", "--J", "2000",
     "--out", "embed.csv"],
    ["szego-check", "--nodes", "1024", "--out", "szego.csv"],
    ["julia-kernel", "--points", "0;2;1;0.1", "--out", "julia.csv"],
    ["set-kernel", "--measure", "lebesgue:0,1", "--sets", "0,0.5|0.5,1|0,0.25",
     "--out", "setk.csv"],
    ["fourier-isometry", "--measure", "lebesgue:0,2", "--sets", "0,1|1,2", "--coeffs", "1,-1",
     "--N", "5000", "--J", "128", "--seed", "17", "--out", "isometry.csv"],
    ["fbm-variance", "--hurst", "0.25,0.5,0.75", "--times", "1,4", "--out", "fbm.csv"],
]


def test_criterion_22_replay_determinism(tmp_path):
    driver = tmp_path / "driver.py"
    driver.write_text(
        "import sys\nfrom noisefield.cli import main\n"
        "outdir = sys.argv[1]\n"
        f"runs = {ACCEPTANCE_RUNS!r}\n"
        "for argv in runs:\n"
        "    argv = list(argv)\n"
        "    argv[argv.index('--out') + 1] = outdir + '/' + argv[argv.index('--out') + 1]\n"
        "    rc = main(argv)\n"
        "    assert rc == 0, (rc, argv)\n"
    )
    dirs = []
    for tag in ("first", "second"):
        outdir = tmp_path / tag
        outdir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(driver), str(outdir)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        dirs.append(outdir)
    mismatched = []
    names = sorted(p.name for p in dirs[0].iterdir())
    for name in names:
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
            mismatched.append(name)
    ok = not mismatched and len(names) == len(ACCEPTANCE_RUNS)
    report(22, "replay determinism", ok, f"{len(names)} artifacts byte-identical, mismatches={mismatched}")


GOLDENS = Path(__file__).parent / "data" / "cli_goldens.sha256"


def _acceptance_digests(outdir) -> dict:
    digests = {}
    for argv in ACCEPTANCE_RUNS:
        argv = list(argv)
        name = argv[argv.index("--out") + 1]
        argv[argv.index("--out") + 1] = str(outdir / name)
        assert cli_main(argv) == 0, argv
        digests[name] = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
    return digests


def test_acceptance_artifact_goldens(tmp_path):
    """Every acceptance artifact keeps its recorded SHA-256.

    A refactor keeps these digests.  A deliberate format or stream-layout
    change updates tests/data/cli_goldens.sha256 and says why in CHANGES.md.
    """
    expected = dict(
        reversed(line.split()) for line in GOLDENS.read_text().splitlines() if line.strip()
    )
    got = _acceptance_digests(tmp_path)
    assert len(got) == len(ACCEPTANCE_RUNS)
    assert got == expected
