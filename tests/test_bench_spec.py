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
