"""One in-process pass of a workload, plain or traced, in a fresh process.

    PYTHONPATH=src python3 perfbench/tracing.py --workload hunt-mod12 \
        --z-min 12 --z-max 480 --pass traced --out result.json

A pass does the work of the workload's command through the public library
API: `search_range` and `serialize` for hunt-mod12, `oracle_scan` and
`serialize` for oracle-scan, the audit loop for witness-audit.

The plain pass runs unwrapped and gives the denominator of the tracing
overhead; for hunt-mod12 it first times `search_range` on two workers
(before the serial pass warms any cache the forked workers would inherit).

The traced pass wraps public functions of arith, model, filters, search and
report from here, by rebinding their names in the modules that call them:
coarse calls (sieve_z, oracle_scan, serialize) record a span each, hot
calls only a count and their summed time, and the arith leaves the set of
arguments they saw.  After the pass, with the wrappers removed, it replays
the filters one by one in first-hit order, times candidate enumeration and
times the arith functions without their caches on the recorded arguments.
Layers a workload does not reach report 0.
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import sys
from contextlib import ExitStack, contextmanager
from time import perf_counter, perf_counter_ns

from squarepoint import arith, filters, model, report, search
from squarepoint.filters import FilterConfig, FilterId
from squarepoint.search import ScanRequest

import audit as audit_workload
from workloads import FILTER_IDS, HUNT_THREADS, ORACLE_BUDGET, WORKLOADS

# Every module a pass runs code of; the wrappers rebind names in these.
MODULES = (arith, model, filters, search, report, audit_workload)

# Public filter functions in first-hit (FilterId) order.
FILTER_FUNCS = (
    (FilterId.BOUNDARY, filters.filter_boundary),
    (FilterId.LEMMA3, filters.filter_lemma3),
    (FilterId.PARITY_RESIDUE, filters.filter_parity_residue),
    (FilterId.THEOREM1, filters.filter_theorem1),
    (FilterId.THEOREM2, filters.filter_theorem2),
    (FilterId.THEOREM3, filters.filter_theorem3),
    (FilterId.THEOREM4, filters.filter_theorem4),
    (FilterId.THEOREM5, filters.filter_theorem5),
    (FilterId.COROLLARY52, filters.filter_cor52),
    (FilterId.THEOREM6, filters.filter_theorem6),
)
assert tuple(fid for fid, _ in FILTER_FUNCS) == tuple(FilterId)
assert tuple(fid.value for fid in FilterId) == FILTER_IDS

ARITH = ("factorize", "is_prime", "pythagorean_partners")
UNCACHED_SAMPLE = 1000


class Tracer:
    """Spans (id, parent, name, start, end) and per-name counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.ns: dict[str, int] = {}
        self.args: dict[str, set] = {}
        self.witnesses: dict[str, int] = {}
        self.cache: dict[str, tuple[int, int, int]] = {}  # calls, hits, evictions
        self.hits = 0
        self.serialized_bytes = 0

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, parent, name, perf_counter_ns(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = perf_counter_ns()

    def spanned(self, name: str, func, inspect=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if inspect:
                inspect(result)
            return result
        return wrapper

    def timed(self, name: str, func, inspect=None):
        self.calls[name] = self.ns[name] = 0

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            result = func(*args, **kwargs)
            self.ns[name] += perf_counter_ns() - t0
            self.calls[name] += 1
            if inspect:
                inspect(name, result)
            return result
        return wrapper

    def recorded(self, name: str, func):
        seen = self.args[name] = set()

        def wrapper(n):
            seen.add(n)
            return func(n)
        return wrapper

    def count_witnesses(self, name: str, attribution) -> None:
        built = sum(v.witness is not None for _, v in attribution.entries)
        self.witnesses[name] = self.witnesses.get(name, 0) + built

    def span_seconds(self, name: str) -> list[float]:
        return [(s[4] - s[3]) / 1e9 for s in self.spans if s[2] == name]

    def dump_spans(self) -> list[dict]:
        child_ns = [0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        return [
            {"id": sid, "parent": parent, "name": name, "start_ns": start,
             "end_ns": end, "self_ns": end - start - child_ns[sid]}
            for sid, parent, name, start, end in self.spans
        ]


@contextmanager
def rebound(name: str, wrapper, original, modules=MODULES):
    """Point every `name` in modules that refers to original at wrapper."""
    touched = [m for m in modules if getattr(m, name, None) is original]
    for m in touched:
        setattr(m, name, wrapper)
    try:
        yield
    finally:
        for m in touched:
            setattr(m, name, original)


def run_workload(name: str, z_min: int, z_max: int, tracer: Tracer):
    """The work of one workload command, in process; returns its result."""
    if name == "hunt-mod12":
        with tracer.span("search.search_range"):
            results = search.search_range(z_min, z_max, workers=1, mod12_only=True)
        report.serialize(results, "json")
        return results
    if name == "oracle-scan":
        req = ScanRequest(z_min=z_min, z_max=z_max, min_count=3, budget=ORACLE_BUDGET)
        report.serialize(search.oracle_scan(req), "json")
        return None
    with tracer.span("audit"):
        return audit_workload.audit(z_min, z_max)


def plain_pass(name: str, z_min: int, z_max: int) -> dict:
    """The workload without wrappers; only the pass-level spans are timed."""
    out = {}
    if name == "hunt-mod12":
        t0 = perf_counter()
        search.search_range(z_min, z_max, workers=HUNT_THREADS, mod12_only=True)
        out["w2_s"] = perf_counter() - t0
    tracer = Tracer()
    t0 = perf_counter()
    run_workload(name, z_min, z_max, tracer)
    out["pass_s"] = perf_counter() - t0
    out["search_range_s"] = sum(tracer.span_seconds("search.search_range"))
    return out


def traced_pass(name: str, z_min: int, z_max: int, tracer: Tracer):
    """Run the workload with every wrapper in place; returns (seconds, result)."""
    originals = {fn: getattr(arith, fn) for fn in ARITH}
    before = {fn: originals[fn].cache_info() for fn in ARITH}

    def count_hits(scan_report):
        tracer.hits += len(scan_report.hits)

    def count_bytes(data):
        tracer.serialized_bytes += len(data)

    with ExitStack() as stack:
        for fn in ARITH:
            stack.enter_context(rebound(fn, tracer.recorded(fn, originals[fn]), originals[fn]))
        for fn in ("distance_profile", "canonicalize"):
            original = getattr(model, fn)
            stack.enter_context(rebound(fn, tracer.timed(f"model.{fn}", original), original))
        # run_pipeline only where a caller sieves; full_attribution calls it too
        stack.enter_context(rebound(
            "run_pipeline",
            tracer.timed("filters.run_pipeline", filters.run_pipeline, tracer.count_witnesses),
            filters.run_pipeline, (search, audit_workload)))
        stack.enter_context(rebound(
            "full_attribution",
            tracer.timed("filters.full_attribution", filters.full_attribution,
                         tracer.count_witnesses),
            filters.full_attribution))
        stack.enter_context(rebound(
            "recheck_witness", tracer.timed("filters.recheck_witness", filters.recheck_witness),
            filters.recheck_witness))
        stack.enter_context(rebound(
            "sieve_z", tracer.spanned("search.sieve_z", search.sieve_z), search.sieve_z))
        stack.enter_context(rebound(
            "oracle_scan", tracer.spanned("search.oracle_scan", search.oracle_scan, count_hits),
            search.oracle_scan))
        stack.enter_context(rebound(
            "serialize", tracer.spanned("report.serialize", report.serialize, count_bytes),
            report.serialize))
        t0 = perf_counter()
        with tracer.span("pass"):
            result = run_workload(name, z_min, z_max, tracer)
        seconds = perf_counter() - t0

    for fn in ARITH:
        info = originals[fn].cache_info()
        hits = info.hits - before[fn].hits
        misses = info.misses - before[fn].misses
        evictions = misses - (info.currsize - before[fn].currsize)
        tracer.cache[fn] = (hits + misses, hits, evictions)
    return seconds, result


def uncached_us(func, args: set) -> float:
    """Mean microseconds of func.__wrapped__ over a spread sample of args."""
    if not args:
        return 0.0
    ordered = sorted(args)
    sample = ordered[:: max(1, len(ordered) // UNCACHED_SAMPLE)]
    body = func.__wrapped__
    runs = []
    for _ in range(3):
        t0 = perf_counter()
        for a in sample:
            body(a)
        runs.append((perf_counter() - t0) / len(sample) * 1e6)
    return statistics.median(runs)


def replay_filters(zs: list[int]) -> tuple[dict, float]:
    """First-hit replay over every candidate through the public filter_*
    functions; returns per-filter stats and enumeration ns per candidate."""
    cfg = FilterConfig()
    evals = dict.fromkeys(FILTER_IDS, 0)
    elims = dict.fromkeys(FILTER_IDS, 0)
    ns = dict.fromkeys(FILTER_IDS, 0)
    candidates = []
    t0 = perf_counter_ns()
    for z in zs:
        candidates.extend(search.enumerate_candidates(z, dedup=True))
    enum_ns = perf_counter_ns() - t0
    for c in candidates:
        for fid, func in FILTER_FUNCS:
            t0 = perf_counter_ns()
            verdict = func(c, cfg)
            ns[fid.value] += perf_counter_ns() - t0
            evals[fid.value] += 1
            if verdict.filter_id is not None:
                elims[fid.value] += 1
                break
    stats = {"evals": evals, "elims": elims, "ns": ns}
    return stats, enum_ns / len(candidates) if candidates else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(name: str, z_min: int, z_max: int) -> dict:
    """Run the traced pass and the replays; return raw per-layer figures."""
    workload = WORKLOADS[name]
    zs = workload.zs(z_min, z_max)
    tracer = Tracer()
    pass_s, result = traced_pass(name, z_min, z_max, tracer)
    m: dict[str, float] = {}

    for fn in ARITH:
        calls, hits, _ = tracer.cache[fn]
        m[f"arith.{fn}.calls"] = calls
        m[f"arith.{fn}.hit_ratio"] = _ratio(hits, calls)
        m[f"arith.{fn}.us_uncached"] = uncached_us(getattr(arith, fn), tracer.args[fn])
    m["arith.pythagorean_partners.evictions"] = tracer.cache["pythagorean_partners"][2]

    m["model.distance_profile.calls"] = tracer.calls["model.distance_profile"]
    m["model.distance_profile.ns"] = _ratio(tracer.ns["model.distance_profile"],
                                            tracer.calls["model.distance_profile"])
    m["model.canonicalize.calls"] = tracer.calls["model.canonicalize"]

    sieves = name != "oracle-scan"
    stats, enum_ns = replay_filters(zs) if sieves else (None, 0.0)
    for fid in FILTER_IDS:
        evals = stats["evals"][fid] if stats else 0
        elims = stats["elims"][fid] if stats else 0
        m[f"filters.{fid}.evals"] = evals
        m[f"filters.{fid}.elims"] = elims
        m[f"filters.{fid}.hit_rate"] = _ratio(elims, evals)
        m[f"filters.{fid}.ns_per_eval"] = _ratio(stats["ns"][fid], evals) if stats else 0.0
    for fn in ("run_pipeline", "full_attribution", "recheck_witness"):
        key = f"filters.{fn}"
        per_call = _ratio(tracer.ns[key], tracer.calls[key])
        if fn == "run_pipeline":
            m[f"{key}.ns_per_candidate"] = per_call
        else:
            m[f"{key}.calls"] = tracer.calls[key]
            m[f"{key}.ns"] = per_call
    built = sum(tracer.witnesses.values())
    # witnesses read: every rechecked one, plus the survivors' full
    # attributions, which the JSON report prints
    read = tracer.calls["filters.recheck_witness"]
    if name == "hunt-mod12":
        read += tracer.witnesses.get("filters.full_attribution", 0)
    m["filters.witnesses_built"] = built
    m["filters.witness_use_ratio"] = _ratio(read, built)

    m["search.enumerate.ns_per_candidate"] = enum_ns
    sieve_spans = tracer.span_seconds("search.sieve_z")
    m["search.sieve_z.serial_s"] = sum(sieve_spans)
    m["search.sieve_z.max_z_s"] = max(sieve_spans, default=0.0)
    if name == "hunt-mod12":
        candidates = sum(r.candidates for r in result)
        survivors = sum(len(r.survivors) for r in result)
        pickle_bytes = sum(len(pickle.dumps(r)) for r in result)
    elif name == "witness-audit":
        candidates = sum(row[1] for row in result["per_z"])
        survivors = sum(row[2] for row in result["per_z"])
        pickle_bytes = 0
    else:
        candidates = survivors = pickle_bytes = 0
    m["search.survivor_ratio"] = _ratio(survivors, candidates)
    m["search.search_range.result_pickle_bytes"] = pickle_bytes
    scan_spans = tracer.span_seconds("search.oracle_scan")
    m["search.oracle_scan.s"] = sum(scan_spans)
    pairs = sum((z - 1) ** 2 for z in range(z_min, z_max + 1))
    m["search.oracle_scan.pairs"] = pairs if scan_spans else 0
    m["search.oracle_scan.hits"] = tracer.hits

    m["report.serialize.s"] = sum(tracer.span_seconds("report.serialize"))
    m["report.serialize.bytes"] = tracer.serialized_bytes
    return {
        "pass_s": pass_s,
        "metrics": m,
        "elims": stats["elims"] if stats else None,
        "spans": tracer.dump_spans(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--z-min", type=int, required=True)
    parser.add_argument("--z-max", type=int, required=True)
    parser.add_argument("--pass", dest="kind", choices=("plain", "traced"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.kind == "plain":
        out = plain_pass(args.workload, args.z_min, args.z_max)
    else:
        out = layer_metrics(args.workload, args.z_min, args.z_max)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
