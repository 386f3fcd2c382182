"""Self-test of the benchmark's tracer.

Usage (from the repository root): python3 bench/selftest.py [WORKLOAD ...]

1. In process: every public callable of the traced modules is replaced by a
   wrapper, including names bound by ``from ... import`` in other modules
   (``noise.make_basis``, ``kernels.GaussianNoiseField``) and the ``ndtri``
   name ``streams`` calls; every per-layer metric of BENCHMARK.json names a
   wrapped callable; ``uninstall`` restores every original.
2. Per workload (all four by default): one untraced and one traced pass.
   Every job passes its check, traced artifacts are byte-identical to
   untraced ones, and each callable named by a per-layer metric shows
   ``calls > 0`` on the workload predicted for it in CALLED_ON.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
import tempfile
import types
from pathlib import Path

import run
from tracer import CALLS, MODULES, Tracer

# The workload on which each callable named by a per-layer metric must run.
CALLED_ON = {
    "streams.normal_matrix_at": "gauss_mc",
    "streams.ndtri": "gauss_mc",
    "streams.row_dot": "gauss_mc",
    "streams.normals": "fractal_coeffs",
    "streams.normal_matrix": "sigma_lift",
    "streams.sign_matrix": "coin_series",
    "bernoulli.sample": "coin_series",
    "bernoulli.coupled_samples": "coin_series",
    "bernoulli.inversion_density": "coin_series",
    "ifs.chaos_game_sample": "coin_series",
    "noise.coefficients": "gauss_mc",
    "noise.psi_map": "fractal_coeffs",
    "ifs.cdf": "fractal_coeffs",
    "measures.cell_masses": "fractal_coeffs",
    "measures.measure_of": "fractal_coeffs",
    "measures.integrate": "fractal_coeffs",
    "bases.walsh.indicator_coefficients": "fractal_coeffs",
    "bases.legendre.indicator_coefficients": "fractal_coeffs",
    "bases.legendre.inner_coefficients": "fractal_coeffs",
    "bases.piecewise.indicator_coefficients": "sigma_lift",
    "bases.gram": "fractal_coeffs",
    "ifs.cuntz_relation_residual": "fractal_coeffs",
    "quadrature.nodes_weights": "gauss_mc",
    "quadrature.integrate_panels": "fractal_coeffs",
    "sigma.lift_samples": "sigma_lift",
    "sigma.sample_pair": "sigma_lift",
    "sigma.coefficients": "sigma_lift",
    "kernels.boundary_process_cov": "gauss_mc",
    "kernels.fourier_map_isometry": "gauss_mc",
    "kernels.feature_block": "gauss_mc",
    "bases.make_basis": "gauss_mc",  # reached through noise's from-import binding
    "cli.main": "gauss_mc",
}
SPECIAL = {"noise.coeff_cache_hit_ratio", "noise.coeff_nonzero_ratio", "trace_overhead_s"}


def named_callables(spec) -> set[str]:
    """'module.callable' or 'module.kind.callable' of every per-layer metric naming one."""
    out = set()
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in SPECIAL:
            continue
        _module, *middle, _stat = name.split(".")
        if middle:
            out.add(name.rsplit(".", 1)[0])
    return out


def calls(spans, callable_name) -> int:
    module, *middle = callable_name.split(".")
    return sum(v[CALLS] for v in run.select(spans, module, middle))


def check_interception(spec) -> list[str]:
    sys.path.insert(0, str(run.ROOT / "src"))
    import noisefield as nf
    import noisefield.cli  # noqa: F401
    from noisefield import bases, kernels, noise, streams

    errors = []
    originals = {m: dict(vars(sys.modules[f"noisefield.{m}"])) for m in MODULES}
    tracer = Tracer().install()
    try:
        for short in MODULES:
            mod = sys.modules[f"noisefield.{short}"]
            for name, obj in vars(mod).items():
                was = originals[short][name]
                if name.startswith("_") or not isinstance(was, types.FunctionType):
                    continue
                if was.__module__.startswith("noisefield.") and not hasattr(obj, "__wrapped__"):
                    errors.append(f"{short}.{name} is not intercepted")
        if getattr(streams.ndtri, "__wrapped__", None) is not originals["streams"]["ndtri"]:
            errors.append("streams.ndtri is not intercepted")
        if noise.make_basis is not bases.make_basis or not hasattr(noise.make_basis, "__wrapped__"):
            errors.append("noise.make_basis is not bound to the traced bases.make_basis")
        if not hasattr(kernels.GaussianNoiseField.coefficients, "__wrapped__"):
            errors.append("kernels.GaussianNoiseField.coefficients is not intercepted")
        for name in sorted(named_callables(spec)):
            module, *middle = name.split(".")
            if not run.select(tracer.stats, module, middle):
                errors.append(f"metric callable {name} matches no traced callable")
            if name not in CALLED_ON:
                errors.append(f"metric callable {name} has no predicted workload")
        noise.GaussianNoiseField(nf.LebesgueMeasure(0, 1), J=8)
        kernels.fourier_map_isometry(
            nf.LebesgueMeasure(0, 2), [nf.BorelSet.interval(0, 1)], [1.0], 1000, 1, J=8
        )
        for key in ("bases:make_basis", "noise:GaussianNoiseField.__init__",
                    "noise:GaussianNoiseField.coefficients", "streams:ndtri"):
            if tracer.stats[key][CALLS] == 0:
                errors.append(f"{key} recorded no call")
    finally:
        tracer.uninstall()
    for short in MODULES:
        for name, obj in vars(sys.modules[f"noisefield.{short}"]).items():
            if name in originals[short] and obj is not originals[short][name]:
                errors.append(f"{short}.{name} was not restored")
    return errors


def check_workload(workload: str) -> list[str]:
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="selftest-") as tmp:
        untraced = run.run_pass(workload, 0, False, Path(tmp))
        traced = run.run_pass(workload, 0, True, Path(tmp))
    errors = [f"{workload}/{r['job']}: {r.get('error') or r.get('detail')}"
              for r in untraced + traced if not r["ok"]]
    errors += [f"{workload}/{e}" for e in run.consistency_errors([untraced, traced])]
    spans = run.merged_spans(traced)
    for name, expected in CALLED_ON.items():
        if expected == workload and calls(spans, name) == 0:
            errors.append(f"{workload}: {name} shows no calls")
    return errors


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    errors = check_interception(spec)
    for workload in sys.argv[1:] or list(run.jobs.WORKLOADS):
        errors += check_workload(workload)
        print(f"checked {workload}", flush=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
