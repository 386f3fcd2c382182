"""Byte-level goldens for the IFS cylinder layer and the basis pairings.

None of the CLI goldens reach ``ifs.cdf``, so this file pins the SHA-256 of
the CDF, cell masses, set masses (bare cylinder intervals and a union of two
among them), canonical grids, cell-sum integrals, Walsh coefficients and
evaluations, the Legendre, Walsh, atomic, transformed, composite, piecewise
and mixed grams, the evaluation blocks of the atomic, composite and piecewise
bases, the indicator coefficients of the weighted Legendre, transformed and
composite bases, the inner coefficients of the composite basis and of a
simple function, and ``psi_map``.  A refactor keeps
every digest.  A deliberate change
of values regenerates tests/data/coeff_goldens.sha256 with

    PYTHONPATH=src python tests/test_coeff_goldens.py > tests/data/coeff_goldens.sha256

and says why in CHANGES.md.
"""

import hashlib
import itertools
from fractions import Fraction as F
from pathlib import Path

import numpy as np

from noisefield import (
    AtomicBasis,
    AtomicMeasure,
    BorelSet,
    DensityMeasure,
    GaussianNoiseField,
    IFSInvariantMeasure,
    LebesgueMeasure,
    MixedBasis,
    SimpleFunction,
    SineBasis,
    TransformedBasis,
    WalshBasis,
    binary_system,
    cantor_system,
    make_basis,
    make_ifs,
    partition_basis,
    sample_xi,
    sum_measure,
)
from noisefield.ifs import bernoulli_system

GOLDENS = Path(__file__).parent / "data" / "coeff_goldens.sha256"

SYSTEMS = {
    "cantor": cantor_system(),
    "binary": binary_system(),
    "bernoulli-0.3": bernoulli_system(0.3),
    "three-fraction": make_ifs(
        [(F(1, 5), F(0)), (F(1, 4), F(2, 5)), (F(1, 5), F(4, 5))], [F(1, 3), F(1, 2), F(1, 6)]
    ),
    "lopsided-float": make_ifs([(0.6, 0.0), (0.25, 0.75)], [0.7, 0.3]),
    # branch 0 lies right of branch 1
    "reversed": make_ifs([(F(1, 3), F(2, 3)), (F(1, 3), F(0))], [F(1, 4), F(3, 4)]),
}
WALSH_SYSTEMS = ("cantor", "binary", "bernoulli-0.3")


def _f(x):
    x = np.asarray(x, dtype=float)
    return np.cos(3.0 * x) + x**2


def _ifs_outputs(name, ifs):
    lo, hi = ifs.hull
    w = hi - lo
    ends = [ifs.cylinder_interval(word) for word in itertools.product(range(ifs.n_branches), repeat=3)]
    grid = np.concatenate(
        [np.linspace(lo - 0.05 * w, hi + 0.05 * w, 401), np.ravel(ends), [lo, hi]]
    )
    mu = IFSInvariantMeasure(ifs)
    A = BorelSet(((lo + 0.13 * w, lo + 0.41 * w), (lo + 0.58 * w, lo + 0.9 * w)))
    sets = [A, BorelSet.interval(lo - 1.0, lo + 0.5 * w), ifs.cylinder_set((1, 0)), BorelSet.empty()]
    out = {
        f"{name}/cdf": [ifs.cdf(x) for x in grid],
        f"{name}/cell_masses": mu.cell_masses(A, 4),
        f"{name}/measure_of": [mu.measure_of(s) for s in sets],
        f"{name}/canonical_grid": mu.canonical_grid(100),
        f"{name}/integrate": mu.integrate(_f, depth=6),
        f"{name}/integrate_set": mu.integrate(_f, A, depth=6),
    }
    if name in WALSH_SYSTEMS:
        basis = WalshBasis(mu, depth=6)
        out[f"{name}/walsh_indicator"] = basis.indicator_coefficients(A, 64)
        out[f"{name}/walsh_inner"] = basis.inner_coefficients(np.cos, 64)
        out[f"{name}/walsh_evaluate_block"] = basis.evaluate_block(mu.canonical_grid(64), 64)
        out[f"{name}/walsh_gram"] = basis.gram(64)
        out[f"{name}/walsh_gram_37"] = basis.gram(37)
    return out


def outputs() -> dict:
    out = {}
    for name, ifs in SYSTEMS.items():
        out.update(_ifs_outputs(name, ifs))
    out["legendre_gram"] = make_basis(LebesgueMeasure(0, 1)).gram(16)
    out["legendre_gs_gram"] = make_basis(DensityMeasure(-1, 2, [1.0, 0.5, 0.25])).gram(16)
    atoms = AtomicMeasure([(0.1, 0.5), (0.4, 1.5), (0.9, 0.25)])
    out["atomic_gram"] = AtomicBasis(atoms).gram(3)
    moved = TransformedBasis(
        make_basis(DensityMeasure(0, 1, [0.0, 2.0])),
        lambda x: 2.0 * np.asarray(x, dtype=float),
        LebesgueMeasure(0, 1),
    )
    out["transformed_gram"] = moved.gram(24)
    out.update(_wrapper_outputs(moved))
    cantor = IFSInvariantMeasure(cantor_system())
    out["walsh_psi_map"] = GaussianNoiseField(cantor, J=64).psi_map(sample_xi(7, 64))
    sine = GaussianNoiseField(LebesgueMeasure(0, 1), basis=SineBasis(), J=16)
    out["sine_psi_map"] = sine.psi_map(sample_xi(7, 16))
    for name, ifs in SYSTEMS.items():
        out[f"{name}/measure_of_bare_cylinders"] = _bare_cylinder_masses(ifs)
    return out


def _bare_cylinder_masses(ifs) -> list:
    """measure_of the bare depth-3 cylinder intervals, then of the first and last as one set."""
    ends = [ifs.cylinder_interval(word) for word in itertools.product(range(ifs.n_branches), repeat=3)]
    sets = [BorelSet((end,)) for end in ends] + [BorelSet.from_intervals([ends[0], ends[-1]])]
    mu = IFSInvariantMeasure(ifs)
    return [mu.measure_of(s) for s in sets]


def _wrapper_outputs(moved) -> dict:
    xs = np.concatenate([np.linspace(-0.1, 1.1, 61), [0.1, 0.25, 0.4, 0.5, 0.7, 0.9, 1.0]])
    A = BorelSet(((0.1, 0.3), (0.45, 0.77)))
    simple = SimpleFunction(((2.0, BorelSet.interval(0.1, 0.4)), (-1.0, BorelSet.interval(0.5, 0.9))))
    weighted = make_basis(DensityMeasure(-1, 2, [1.0, 0.5, 0.25]))
    atomic = AtomicBasis(AtomicMeasure([(0.1, 0.5), (0.4, 1.5), (0.9, 0.25)]))
    composites = {
        "poly_atoms": make_basis(
            sum_measure(DensityMeasure(0, 1, [1.0, 0.5, 0.25]), AtomicMeasure([(0.25, 0.5), (0.7, 1.25)])),
            J=20,
        ),
        "lebesgue_atom": make_basis(sum_measure(LebesgueMeasure(0, 1), AtomicMeasure([(0.5, 2.0)])), J=17),
    }
    edges = [0.0, 0.25, 0.5, 0.8, 1.0]
    piecewise = {
        "lebesgue": partition_basis(LebesgueMeasure(0, 1), edges, per_piece=6),
        "density": partition_basis(
            DensityMeasure(0, 1, lambda x: 1.0 + 2.0 * np.asarray(x, dtype=float)), edges, per_piece=6
        ),
    }
    v = np.arange(1.0, 6.0)
    householder = np.eye(5) - 2.0 * np.outer(v, v) / (v @ v)
    out = {
        "legendre_gs_indicator": weighted.indicator_coefficients(A, 16),
        "legendre_simple_inner": make_basis(LebesgueMeasure(0, 1)).inner_coefficients(simple, 16),
        "transformed_indicator": moved.indicator_coefficients(A, 24),
        "atomic_evaluate_block": atomic.evaluate_block(xs, 3),
        "mixed_gram": MixedBasis(make_basis(LebesgueMeasure(0, 1)), householder).gram(12),
    }
    for name, basis in composites.items():
        out[f"composite_{name}_gram"] = basis.gram(basis.size)
        out[f"composite_{name}_evaluate_block"] = basis.evaluate_block(xs, basis.size)
        out[f"composite_{name}_indicator"] = basis.indicator_coefficients(A, basis.size)
        out[f"composite_{name}_inner"] = basis.inner_coefficients(np.cos, basis.size)
    for name, basis in piecewise.items():
        out[f"piecewise_{name}_gram"] = basis.gram(basis.size)
        out[f"piecewise_{name}_evaluate_block"] = basis.evaluate_block(xs, basis.size)
    return out


def digests() -> dict:
    out = {}
    for name, value in outputs().items():
        arr = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
        out[name] = hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()
    return out


def test_coefficient_goldens():
    expected = dict(
        reversed(line.split()) for line in GOLDENS.read_text().splitlines() if line.strip()
    )
    got = digests()
    changed = sorted(k for k in expected.keys() | got.keys() if got.get(k) != expected.get(k))
    assert not changed, f"digests changed: {changed}"


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f"{digest}  {name}")
