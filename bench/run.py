"""noisefield benchmark: one workload, closed loop, one job process at a time.

Usage (from the repository root):

    python3 bench/run.py --workload gauss_mc --seed 0 --seconds 20 --trace 0

Each pass runs every job of the workload once, in order, each in a fresh
``bench/worker.py`` process (a CLI user pays the import and the first-use
quadrature-rule builds on every call).  Passes repeat until ``--seconds``
have elapsed; every pass replays the same inputs, derived from ``--seed``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
untraced.  ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics from the traced ones, with ``trace_overhead_s`` the
traced minus the untraced ``wall_s``.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a full record (jobs, checks, SHA-256 of each artifact, run
environment) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
from tracer import CALLS, ERRORS, LEAF, NONZERO, SELF, SIZE, VALUES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
JOB_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0  # no new pass starts if it would end after this
# One BLAS thread per job: with one job process at a time this matches the
# default on an idle 2-core machine and keeps spinning BLAS threads from
# stretching jobs when other processes share the cores.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
STATS = {"calls": CALLS, "self_s": SELF, "values": VALUES, "errors": ERRORS}

# Largest arrays each workload allocates, from the library's block sizes
# (noise: 2^14 rows, kernels: 2^13 rows, bernoulli: 2^24 coins, chaos game:
# 2^22 digits; sigma samplers are unblocked).  Computed, not measured.
BLOCKS = {
    "gauss_mc": [("covariance/ito/characteristic/moment block", 16384, 512),
                 ("fourier-isometry block", 8192, 512),
                 ("boundary_process_cov block", 8192, 1000),
                 ("sample-path block", 16384, 64)],
    "fractal_coeffs": [("walsh gram / cuntz matrix", 1024, 1024),
                       ("covariance block at N=1000", 1000, 1024)],
    "coin_series": [("sign_matrix block (2^24 coins)", 1 << 24, 1),
                    ("chaos-game digit block (2^22)", 1 << 22, 1)],
    "sigma_lift": [("lift_samples three-part, unblocked", 50_000, 1089),
                   ("lift_samples two-density, unblocked", 200_000, 64),
                   ("sample_pair xi or eta, unblocked", 1_000_000, 32)],
}


def environment(workload: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_jobs": BLAS_THREADS,
    }
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in lscpu.splitlines():
            key, _, val = line.partition(":")
            if key.strip() in ("Model name", "L2 cache", "L3 cache"):
                env[key.strip()] = val.strip()
    except (OSError, subprocess.SubprocessError):
        env["lscpu"] = "unavailable"
    env["bytes_per_block_computed"] = {
        label: f"{rows}x{cols} float64 = {rows * cols * 8 / 2**20:.1f} MiB"
        for label, rows, cols in BLOCKS[workload]
    }
    return env


def run_job(workload: str, index: int, seed: int, traced: bool, tmp: Path) -> dict:
    job = jobs.WORKLOADS[workload][index]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_THREADS)
    spawned = time.perf_counter()
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(index), str(seed),
            "1" if traced else "0", str(tmp), repr(spawned)]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"job": job.name, "seed": seed, "ok": False, "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"job": job.name, "seed": seed, "ok": False,
                "error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def run_pass(workload: str, seed: int, traced: bool, tmp: Path) -> list[dict]:
    return [
        run_job(workload, i, jobs.job_seed(workload, job.name, seed), traced, tmp)
        for i, job in enumerate(jobs.WORKLOADS[workload])
    ]


def merged_spans(records) -> dict:
    total: dict[str, list] = {}
    for rec in records:
        for key, vals in rec.get("spans", {}).items():
            acc = total.setdefault(key, [0] * len(vals))
            for i, v in enumerate(vals):
                acc[i] += v
    return total


def select(spans: dict, module: str, middle: list[str]) -> list[list]:
    """Spans of ``module``; of one callable name; or of one basis kind's method."""
    out = []
    for key, vals in spans.items():
        mod, qualname = key.split(":")
        if mod != module:
            continue
        if len(middle) == 1 and qualname.split(".")[-1] != middle[0]:
            continue
        if len(middle) == 2 and qualname != f"{middle[0].capitalize()}Basis.{middle[1]}":
            continue
        out.append(vals)
    return out


def layer_value(spans: dict, name: str) -> float:
    if name == "noise.coeff_cache_hit_ratio":
        sel = select(spans, "noise", ["coefficients"])
        calls = sum(v[CALLS] for v in sel)
        return sum(v[LEAF] for v in sel) / calls if calls else 0.0
    if name == "noise.coeff_nonzero_ratio":
        size = sum(v[SIZE] for v in spans.values())
        return sum(v[NONZERO] for v in spans.values()) / size if size else 0.0
    module, *middle, stat = name.split(".")
    return float(sum(v[STATS[stat]] for v in select(spans, module, middle)))


def wall(records) -> float:
    return sum(r["job_s"] for r in records)


def end_to_end(passes) -> dict:
    records = [r for p in passes for r in p]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "wall_s": statistics.median(wall(p) for p in passes),
        "samples_per_s": statistics.median(sum(r["rows"] for r in p) / wall(p) for p in passes),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024.0,
    }


def per_layer(untraced, traced, names) -> dict:
    per_pass = [merged_spans(p) for p in traced]
    out = {}
    for name in names:
        if name == "trace_overhead_s":
            out[name] = (statistics.median(wall(p) for p in traced)
                         - statistics.median(wall(p) for p in untraced))
        else:
            out[name] = statistics.median(layer_value(s, name) for s in per_pass)
    return out


def consistency_errors(passes) -> list[str]:
    """Every pass, traced or not, must replay each job's artifact byte for byte."""
    errors = []
    for i, first in enumerate(passes[0]):
        digests = {p[i].get("sha256") for p in passes}
        if len(digests) != 1:
            errors.append(f"{first['job']}: artifact differs between passes {sorted(map(str, digests))}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "noisefield" / "__init__.py").is_file():
        print(f"no noisefield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = OUT / f"tmp-{tag}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    untraced, traced = [], []
    try:
        while True:
            t0 = time.monotonic()
            untraced.append(run_pass(args.workload, args.seed, False, tmp))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, True, tmp))
            now = time.monotonic()
            if now - start >= args.seconds or (now - start) + (now - t0) > RUN_LIMIT_S:
                break
    finally:
        for leftover in tmp.iterdir():
            leftover.unlink()
        tmp.rmdir()

    passes = untraced + traced
    records = [r for p in passes for r in p]
    failed = sum(not r["ok"] for r in records)
    problems = [f"{r['job']}: {r.get('error') or r.get('detail')}" for r in records if not r["ok"]]
    problems += consistency_errors(passes)
    correct = not problems
    if correct:
        values = per_layer(untraced, traced, units) if args.trace else end_to_end(untraced)
    else:
        values = {}
    metrics = {name: {"value": values.get(name, 0.0), "unit": units[name]} for name in units}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(untraced),
        "elapsed_s": time.monotonic() - start,
        "error_rate": failed / len(records),
        "environment": environment(args.workload),
        "jobs": [{k: v for k, v in r.items() if k != "spans"} for r in untraced[0]],
        "job_seconds": {r["job"]: [p[i].get("job_s") for p in untraced]
                        for i, r in enumerate(untraced[0])},
        "problems": problems,
        "metrics": metrics,
    }
    if args.trace:
        result["spans"] = merged_spans(traced[0])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    for r in untraced[0]:
        print(f"{'ok  ' if r['ok'] else 'FAIL'} {r['job']:<32} {r.get('job_s', 0.0):8.3f} s  "
              f"{r.get('detail') or r.get('error', '')}".rstrip())
    for problem in problems:
        print(f"problem: {problem}")
    print(f"error_rate {result['error_rate']:.4f} ratio ({failed}/{len(records)} jobs, "
          f"{len(untraced)} passes)")
    counts = {"setup_s": f"median of {len(records)} job processes",
              "wall_s": f"median of {len(untraced)} passes",
              "samples_per_s": f"median of {len(untraced)} passes",
              "peak_rss_mb": f"max of {len(records)} job processes"}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']} ({counts.get(name, f'median of {len(traced)} traced passes')})")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
