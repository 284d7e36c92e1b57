"""The witness-audit workload: a library loop, run as its own process.

    PYTHONPATH=src python3 perfbench/audit.py --z-min 1 --z-max 150 --out audit.json

For each z it sieves every candidate in first-hit mode and rechecks every
elimination witness, then checks that every four-distance point of the
window survived (the oracle scans one z at a time).  It writes a
deterministic JSON summary and exits 2 when a witness fails its recheck or
a four-distance point was eliminated.
"""

from __future__ import annotations

import argparse
import json
import sys

from squarepoint.filters import FilterConfig, recheck_witness, run_pipeline
from squarepoint.search import ScanRequest, enumerate_candidates, oracle_scan

from workloads import FILTER_IDS


def untimed(_label: str, func, *args):
    return func(*args)


def audit_z(z: int, cfg: FilterConfig) -> tuple[list, set, int, int]:
    """One z: its per_z row, its survivors, and how many witnesses were
    rechecked and failed."""
    eliminated = dict.fromkeys(FILTER_IDS, 0)
    survivors = set()
    candidates = rechecked = failures = 0
    for c in enumerate_candidates(z, dedup=True):
        candidates += 1
        attribution = run_pipeline(c, cfg, "first")
        if attribution.eliminated_by is None:
            survivors.add(c)
            continue
        ((fid, verdict),) = attribution.entries
        eliminated[fid.value] += 1
        rechecked += 1
        if not recheck_witness(c, fid, verdict.witness):
            failures += 1
    return [z, candidates, len(survivors), eliminated], survivors, rechecked, failures


def audit(z_min: int, z_max: int, timed=untimed) -> dict:
    """Per-z candidate, survivor and elimination counts, recheck totals and
    the window's four-distance points.  timed(label, func, *args) makes
    each call of the loop; timed.py passes one that times it."""
    cfg = FilterConfig()
    per_z = []
    survivors_by_z = {}
    rechecked = failures = 0
    for z in range(z_min, z_max + 1):
        row, survivors_by_z[z], n, bad = timed(f"audit_z/{z}", audit_z, z, cfg)
        per_z.append(row)
        rechecked += n
        failures += bad
    four = [
        hit
        for z in range(z_min, z_max + 1)
        for hit in timed(f"oracle_scan/{z}", oracle_scan,
                         ScanRequest(z_min=z, z_max=z, min_count=4)).hits
    ]
    return {
        "per_z": per_z,
        "rechecked": rechecked,
        "recheck_failures": failures,
        "four_distance_hits": [list(h.candidate) for h in four],
        "hits_not_surviving": sum(
            h.candidate not in survivors_by_z[h.candidate.z] for h in four
        ),
    }


def render(summary: dict) -> bytes:
    return (json.dumps(summary, sort_keys=True) + "\n").encode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--z-min", type=int, required=True)
    parser.add_argument("--z-max", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    summary = audit(args.z_min, args.z_max)
    with open(args.out, "wb") as fh:
        fh.write(render(summary))
    return 2 if summary["recheck_failures"] or summary["hits_not_surviving"] else 0


if __name__ == "__main__":
    sys.exit(main())
