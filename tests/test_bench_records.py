"""Every committed ``BENCH_<pr>.json`` perf record parses and holds the pair-run fields.

A record keeps, per workload, the seeds, which side ran first in each pair,
the ``wall_s`` pairs (parent, change), the median and quartiles of each
end-to-end metric of BENCHMARK.json, the win count, whether a gain is
claimed and the jobs whose SHA-256 moved.  Backfilled records may hold null
where the source listed no value, but the pairs and the ``wall_s`` medians
must agree, and a claimed gain must meet the pair rule: the change wins at
least 9 in 10 pairs and its median beats the parent's by more than the
parent's interquartile range.

A workload may claim a gain on another end-to-end metric: its optional
``claimed_metric`` (default ``wall_s``) names it, and its pairs are then kept
as ``<metric>_pairs`` beside the ``wall_s`` pairs.  The win count and the
pair rule read the claimed metric, with "better" taken from BENCHMARK.json.

A record marked ``"summary": true`` is backfilled from a source that lists
medians and quartiles but no pairs: its pairs, win counts and run order are
null, and it claims no gain, since the pair rule needs the pairs.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"] for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = {"seeds", "first", "wall_s_pairs", "metrics", "wins", "claimed", "moved_sha256"}


def test_some_records_exist():
    assert RECORDS


def _number_or_null(x):
    return x is None or (isinstance(x, (int, float)) and np.isfinite(x))


def _claimed_pairs(w):
    """(metric, (parent, change) pairs, per-pair change wins) of a workload's claimed metric."""
    metric = w.get("claimed_metric", "wall_s")
    pairs = np.array(w[f"{metric}_pairs"], dtype=float)
    if BETTER[metric] == "lower":
        return metric, pairs, pairs[:, 1] < pairs[:, 0]
    return metric, pairs, pairs[:, 1] > pairs[:, 0]


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_has_the_pair_fields(path):
    rec = json.loads(path.read_text())
    assert rec["pr"] == int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))
    for key in ("parent", "change", "command"):
        assert isinstance(rec[key], str) and rec[key]
    assert rec["workloads"] and set(rec["workloads"]) <= WORKLOADS
    assert rec.get("summary", False) in (True, False)
    for name, w in rec["workloads"].items():
        assert set(w) >= FIELDS, name
        assert set(w["metrics"]) == METRICS, name
        for metric, sides in w["metrics"].items():
            for side in ("parent", "change"):
                stats = sides[side]
                assert set(stats) == {"median", "q1", "q3"}, (name, metric, side)
                assert all(_number_or_null(v) for v in stats.values()), (name, metric, side)
                if None not in stats.values():
                    assert stats["q1"] <= stats["median"] <= stats["q3"], (name, metric, side)
        assert isinstance(w["claimed"], bool), name
        if rec.get("summary"):
            assert w["wall_s_pairs"] is None and w["wins"] is None and w["first"] is None, name
            assert w["seeds"] is None or all(isinstance(s, int) for s in w["seeds"]), name
            assert w["moved_sha256"] is None or all(isinstance(j, str) for j in w["moved_sha256"])
            assert not w["claimed"], name
            wall = w["metrics"]["wall_s"]
            assert wall["parent"]["median"] is not None and wall["change"]["median"] is not None
            continue
        assert w.get("claimed_metric", "wall_s") in METRICS, name
        metric, claimed, wins = _claimed_pairs(w)
        for pairs_metric in {"wall_s", metric}:
            pairs = np.array(w[f"{pairs_metric}_pairs"], dtype=float)
            assert pairs.ndim == 2 and pairs.shape[1] == 2 and np.all(pairs > 0), name
            assert len(pairs) == len(claimed), name
            stats = w["metrics"][pairs_metric]
            for col, side in enumerate(("parent", "change")):
                # wall_s pairs may be rounded to 0.01 s in a backfilled record
                assert abs(np.median(pairs[:, col]) - stats[side]["median"]) <= 0.01, (name, side)
        for key in ("seeds", "first"):
            assert w[key] is None or len(w[key]) == len(claimed), (name, key)
        assert w["first"] is None or set(w["first"]) <= {"parent", "change"}, name
        assert w["wins"] == int(np.sum(wins)), name
        assert all(isinstance(job, str) for job in w["moved_sha256"]), name


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_a_claimed_gain_meets_the_pair_rule(path):
    rec = json.loads(path.read_text())
    for name, w in rec["workloads"].items():
        if not w["claimed"]:
            continue
        metric, pairs, wins = _claimed_pairs(w)
        stats = w["metrics"][metric]
        assert len(pairs) >= 10, name
        assert w["wins"] == int(np.sum(wins)) >= 0.9 * len(pairs), name
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gain = stats["parent"]["median"] - stats["change"]["median"]
        assert (gain if BETTER[metric] == "lower" else -gain) > iqr, name
