"""Run one benchmark job in a fresh interpreter and print its record as JSON.

Usage: python3 bench/worker.py WORKLOAD JOB_INDEX JOB_SEED TRACE OUTDIR SPAWN_TIME

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process; perf_counter reads the system-wide monotonic clock on Linux,
so ``setup_s`` spans interpreter start-up plus the import of ``noisefield``
and ``noisefield.cli``, which a CLI user pays on every call.
"""

import sys
import time

import noisefield
import noisefield.cli

T_READY = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import jobs  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, index: int, seed: int, traced: bool, outdir: Path) -> dict:
    job = jobs.WORKLOADS[workload][index]
    record = {"job": job.name, "seed": seed, "rows": job.rows, "ok": False}
    artifact = outdir / f"{workload}-{index}.out"
    tracer = Tracer().install() if traced else None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if job.call is not None:
            value = job.call(seed)
        else:
            argv = [a.replace("{seed}", str(seed)) for a in job.argv]
            rc = noisefield.cli.main(argv + ["--out", str(artifact)])
            if rc != 0:
                raise RuntimeError(f"cli exited with code {rc}")
    except Exception:
        record["error"] = traceback.format_exc(limit=3)
    finally:
        record["job_s"] = time.perf_counter() - t0
        record["cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
            record["spans"] = tracer.stats
    record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if "error" in record:
        return record
    try:
        if job.call is not None:
            output, data = value, jobs.encode(value)
        else:
            data = artifact.read_bytes()
            output = data.decode()
            artifact.unlink()
        record["sha256"] = hashlib.sha256(data).hexdigest()
        record["ok"], record["detail"] = job.check(output, seed=seed)
    except Exception:
        record["error"] = traceback.format_exc(limit=3)
    return record


def main() -> int:
    workload, index, seed, trace, outdir, spawned = sys.argv[1:7]
    if not Path(noisefield.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"noisefield imported from {noisefield.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    record = run(workload, int(index), int(seed), trace == "1", Path(outdir))
    record["setup_s"] = T_READY - float(spawned)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
