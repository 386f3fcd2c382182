"""The benchmark's per-layer metrics must keep naming callables the tracer can wrap.

A refactor that deletes or renames a method that a metric in BENCHMARK.json
names would otherwise fail only the benchmark self-test (bench/selftest.py),
which runs every workload.  This runs its in-process interception check alone.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_metrics_name_traced_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from selftest import check_interception

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert check_interception(spec) == []


def test_sigma_lift_jobs_call_the_predicted_callables(monkeypatch):
    # Small in-process runs of the sigma_lift jobs, traced: every callable that
    # CALLED_ON predicts for sigma_lift must record calls.  The full check,
    # `python3 bench/selftest.py sigma_lift`, runs the workload's job processes.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import jobs
    from selftest import CALLED_ON, calls
    from tracer import Tracer

    from noisefield import measures, sets, sigma

    tracer = Tracer().install()
    try:
        for build in (jobs._three_part_lift, jobs._two_density_lift):
            lifter, F = build()
            lifter.lift_samples(F, 1000, 1)
        pair = sigma.CorrelatedPair(measures.LebesgueMeasure(0, 1), *jobs.PAIR_PIECES, 1)
        pair.sample_pair(sets.BorelSet.interval(0.25, 0.75), 1000)
    finally:
        tracer.uninstall()
    predicted = sorted(name for name, workload in CALLED_ON.items() if workload == "sigma_lift")
    assert predicted == [
        "bases.piecewise.indicator_coefficients",
        "sigma.coefficients",
        "sigma.lift_samples",
        "sigma.sample_pair",
        "streams.normal_matrix",
    ]
    assert [name for name in predicted if calls(tracer.stats, name) == 0] == []
