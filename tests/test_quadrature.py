"""The stored Gauss-Legendre rules: the bits of ``leggauss``, every size the library uses."""

import math

import numpy as np
import pytest

from noisefield import bases, bernoulli, noise, quadrature, sigma
from noisefield.cli import main
from noisefield.measures import BernoulliMeasure, DensityMeasure

leggauss = np.polynomial.legendre.leggauss


@pytest.fixture
def table_only(monkeypatch):
    """Rules from the table alone: ``leggauss`` raises, and the rule caches start empty."""

    def refuse(n):
        raise AssertionError(f"leggauss({n}) called; {n} is not tabulated")

    quadrature._rule.cache_clear()
    quadrature._table.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    yield
    quadrature._rule.cache_clear()


@pytest.mark.parametrize("n", quadrature._TABULATED)
def test_each_tabulated_rule_is_leggauss_bit_for_bit(n):
    x, w = quadrature._rule(n)
    lx, lw = leggauss(n)
    assert x.dtype == w.dtype == np.float64
    assert x.tobytes() == lx.tobytes() and w.tobytes() == lw.tobytes()


@pytest.mark.parametrize("n", quadrature._TABULATED)
def test_each_tabulated_rule_is_a_gauss_legendre_rule(n):
    x, w = quadrature._rule(n)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) <= 4 * math.ulp(2.0)


def test_every_rule_size_the_library_names_is_tabulated():
    named = {
        bases._QUAD_NODES, 2 * bases._QUAD_NODES,  # density indicators and pairings
        bernoulli._PROXY_NODES, bernoulli._INVERSION_NODES,
        noise._FBM_PANEL_NODES,
        64, 128,  # quadrature.integrate's default n and 2n
    }
    assert named <= set(quadrature._TABULATED)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_library_runs_on_the_table_alone(table_only):
    # the literal sizes: the sine gram's 12, the Bernoulli measure's 8, sigma's 256
    assert np.allclose(bases.SineBasis().gram(4), np.eye(4), atol=1e-12)
    assert BernoulliMeasure(0.75).integrate(lambda x: x * x)[0] > 0
    mu = DensityMeasure(0.0, 1.0, [1.0, 2.0])
    F = sigma.SigmaFunction(lambda x: np.ones_like(x), mu)
    assert sigma.inner_product(F, F) == pytest.approx(2.0)
    # the named constants, and integrate's n and 2n
    assert bernoulli.ac2_l2_proxy(0.6, 10.0) > 0
    assert np.all(np.isfinite(bernoulli.inversion_density(0.5, np.linspace(-1, 1, 5))))
    assert noise.fbm_increment_variance(0.5, 1.0) == pytest.approx(1.0, rel=1e-6)
    assert mu.integrate(lambda x: x)[0] == pytest.approx(7 / 6)


def test_ito_isometry_runs_on_the_table_alone(table_only, tmp_path):
    out = tmp_path / "ito.csv"
    argv = ["ito-isometry", "--measure", "density:0,1:1,2", "--poly", "1,1", "--N", "1000"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "variance,stderr,target"


def test_an_untabulated_size_goes_to_leggauss():
    assert 20 not in quadrature._TABULATED
    x, w = quadrature._rule(20)
    lx, lw = leggauss(20)
    assert np.array_equal(x, lx) and np.array_equal(w, lw)
    v, err = quadrature.integrate(lambda t: t**39, 0.0, 1.0, n=20)
    assert v == pytest.approx(1 / 40, rel=1e-13) and err < 1e-13
