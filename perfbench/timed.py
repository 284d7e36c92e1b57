"""One timed pass of a workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/timed.py --workload oracle-scan \
        --z-min 1 --z-max 800 --out scan.json --times times.json

A pass makes the library calls the workload's command makes, one unit at a
time, and writes the bytes that command writes (for hunt-mod12, those of a
one-worker run) to --out, so that every pass is checked like a run of the
command.  The units are:

  hunt-mod12     sieve_z of each z, then serialize of the whole range
  oracle-scan    oracle_scan of each z, then serialize of the whole report
  witness-audit  audit_z of each z, oracle_scan of each z, then the summary

--times gets a JSON list of [unit, seconds].  run.py keeps each unit's
fastest time over the passes of a run: a unit lasts milliseconds, so on a
shared machine, whose speed swings within seconds and drifts over minutes,
some pass of it runs unhindered.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from squarepoint.filters import FIRST_HIT, FilterConfig
from squarepoint.report import serialize
from squarepoint.search import ScanReport, ScanRequest, oracle_scan, sieve_z

import audit as audit_workload
from workloads import ORACLE_BUDGET, WORKLOADS


class UnitTimer:
    def __init__(self):
        self.times: list[list] = []

    def __call__(self, label: str, func, *args):
        t0 = perf_counter()
        out = func(*args)
        self.times.append([label, perf_counter() - t0])
        return out


def timed_pass(name: str, z_min: int, z_max: int, timed: UnitTimer) -> bytes:
    """The workload's output bytes, made one timed unit at a time."""
    if name == "hunt-mod12":
        cfg = FilterConfig()
        results = [timed(f"sieve_z/{z}", sieve_z, z, cfg, FIRST_HIT)
                   for z in WORKLOADS[name].zs(z_min, z_max)]
        return timed("serialize", serialize, results, "json")
    if name == "oracle-scan":
        hits = []
        for z in range(z_min, z_max + 1):
            req = ScanRequest(z_min=z, z_max=z, min_count=3, budget=ORACLE_BUDGET)
            hits.extend(timed(f"oracle_scan/{z}", oracle_scan, req).hits)
        whole = ScanRequest(z_min=z_min, z_max=z_max, min_count=3, budget=ORACLE_BUDGET)
        return timed("serialize", serialize, ScanReport(whole, tuple(hits)), "json")
    summary = audit_workload.audit(z_min, z_max, timed)
    return timed("render", audit_workload.render, summary)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--z-min", type=int, required=True)
    parser.add_argument("--z-max", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--times", required=True)
    args = parser.parse_args()
    timed = UnitTimer()
    data = timed_pass(args.workload, args.z_min, args.z_max, timed)
    with open(args.out, "wb") as fh:
        fh.write(data)
    with open(args.times, "w") as fh:
        json.dump(timed.times, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
