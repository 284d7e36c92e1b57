"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The smoke run takes about a minute: every workload, plain and traced, at
tiny sizes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, candidate_count, check_audit, check_scan

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from squarepoint.search import enumerate_candidates  # noqa: E402


def test_candidate_count_matches_enumeration():
    for z in range(1, 130):
        assert candidate_count(z) == sum(1 for _ in enumerate_candidates(z, dedup=True)), z


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_scan_check_catches_a_missing_known_point():
    hits = {"hits": [{"x": 297, "y": 304, "z": 700, "count": 3}]}
    problems = check_scan(json.dumps(hits).encode(), 1, 700, 3)
    assert problems == ["known three-distance point (7, 24, 52) missing"]


def test_audit_check_catches_a_failed_recheck():
    summary = {"per_z": [[5, 3, 0, {"boundary": 3}]], "rechecked": 3,
               "recheck_failures": 1, "four_distance_hits": [], "hits_not_surviving": 0}
    assert check_audit(json.dumps(summary).encode(), [5]) == [
        "1 witnesses failed their recheck"]


@pytest.mark.parametrize("seed", [0, 5])
def test_seed_moves_only_the_low_end(seed):
    for w in WORKLOADS.values():
        z_min, z_max = w.window(w.variant(seed))
        assert z_max == w.z_max and w.z_min_base <= z_min < z_max


def test_compute_s_sums_each_units_fastest_time():
    passes = [[["z/1", 0.3], ["z/2", 0.5]], [["z/1", 0.2], ["z/2", 0.7]]]
    assert run.fastest_units(passes) == {"z/1": 0.2, "z/2": 0.5}


def test_smoke_run_is_correct():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 2 * len(WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0
    per_layer = [r for r in results if "trace.overhead_ratio" in r["metrics"]]
    assert {m for r in per_layer for m in r["metrics"]} == set(run.per_layer_units())
