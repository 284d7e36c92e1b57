"""The squarepoint benchmark.

Run from the repository root; it needs only the sources under src/:

    python3 perfbench/run.py --workload hunt-mod12 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke           # every workload, plain and traced, tiny sizes
    python3 perfbench/run.py --record-digests  # rewrite perfbench/digests.json

Workloads (see workloads.py for the windows):

  hunt-mod12     `squarepoint search --mod12-only --threads 2 --format json`:
                 all ten filters, survivor profiling, the worker pool and
                 JSON serialization.
  oracle-scan    `squarepoint three-distance --min-count 3 --format json`:
                 no filter runs; pythagorean_partners, canonicalize,
                 distance_profile and the oracle's per-z loop.
  witness-audit  audit.py: first-hit sieve of every z, every elimination
                 witness rechecked, then every four-distance point checked
                 to survive.  Reads every witness the filters build.

With --trace 0 a run does three kinds of fresh process:

  - the workload's command, at the start and at the end: its peak RSS
    (of the whole process tree) is peak_rss_mb; its wall and CPU time are
    printed as comments only, because on a shared machine they swing by a
    third between runs of the same code;
  - timed passes (timed.py), one after another until --seconds is used
    up: each makes the command's library calls one unit at a time (one z,
    or the output rendering) and times every unit.  compute_s is the sum
    over units of each unit's fastest time in the run; work_per_s is the
    window's work over compute_s;
  - `squarepoint distances`, SETUPS times spread over the passes: the
    start-up cost every CLI call pays.  setup_s is their median.

Every output is checked: its sha256 against perfbench/digests.json
(recorded with one worker, so a two-worker hunt that differs fails), and
the first output of each distinct digest against invariants re-derived
here.  A failed check or a non-zero exit counts in `failed`.

With --trace 1 the benchmark runs the workload command once (its output
is the reference), then tracing.py twice in fresh processes: a plain pass
and a traced pass.  The per-layer figures come from the traced pass; the
per-filter eliminations of its replay must equal the program's own counts
and its oracle hit count the program's.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Machine details, every iteration
and the spans go to .perfbench_work/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import FILTER_IDS, WORKLOADS, Workload, audit_eliminated, check_output, \
    sieve_eliminated

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH_DIR / "digests.json"

MIN_PASSES = 3
SETUPS = 9
RUN_LIMIT_S = 170  # every run ends well inside the 180 s the harness allows
SETUP_POINT = (7, 24, 52)

END_TO_END = {
    "compute_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric tracing.py reports, with its unit."""
    units = {}
    for fn in ("factorize", "is_prime", "pythagorean_partners"):
        units.update({f"arith.{fn}.calls": "count", f"arith.{fn}.hit_ratio": "ratio",
                      f"arith.{fn}.us_uncached": "us"})
    units["arith.pythagorean_partners.evictions"] = "count"
    units.update({"model.distance_profile.calls": "count", "model.distance_profile.ns": "ns",
                  "model.canonicalize.calls": "count"})
    for fid in FILTER_IDS:
        units.update({f"filters.{fid}.evals": "count", f"filters.{fid}.elims": "count",
                      f"filters.{fid}.hit_rate": "ratio", f"filters.{fid}.ns_per_eval": "ns"})
    units.update({
        "filters.run_pipeline.ns_per_candidate": "ns",
        "filters.full_attribution.calls": "count", "filters.full_attribution.ns": "ns",
        "filters.recheck_witness.calls": "count", "filters.recheck_witness.ns": "ns",
        "filters.witnesses_built": "count", "filters.witness_use_ratio": "ratio",
        "search.enumerate.ns_per_candidate": "ns",
        "search.sieve_z.serial_s": "s", "search.sieve_z.max_z_s": "s",
        "search.survivor_ratio": "ratio",
        "search.search_range.w2_s": "s", "search.search_range.speedup": "x",
        "search.search_range.result_pickle_bytes": "B",
        "search.oracle_scan.s": "s", "search.oracle_scan.pairs": "count",
        "search.oracle_scan.hits": "count",
        "report.serialize.s": "s", "report.serialize.bytes": "B",
        "trace.overhead_ratio": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# processes


@dataclass
class Measured:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    ok: bool = True


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_measured(cmd: list[str], timeout: float) -> Measured:
    """Run cmd in its own session and reap it with wait4, so the rusage
    covers the whole tree it reaped (a pool's workers included).  The
    session is killed if it outlives timeout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    timer = threading.Timer(timeout, _kill_session, (proc.pid,))
    timer.start()
    try:
        with proc.stderr:
            err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode and err:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return Measured(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    proc.returncode)


def setup_once(timeout: float) -> tuple[float, list[str]]:
    """Wall time of a fresh `squarepoint distances` call, with its output checked."""
    x, y, z = SETUP_POINT
    cmd = [sys.executable, "-m", "squarepoint.cli", "distances",
           "--x", str(x), "--y", str(y), "--z", str(z)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=timeout)
    wall = time.perf_counter() - t0
    squares = [a * a + b * b for a, b in ((x, y), (x, z - y), (z - x, z - y), (z - x, y))]
    lines = proc.stdout.decode().splitlines()
    ok = proc.returncode == 0 and len(lines) == 6 and lines[-1].endswith(": 3") and all(
        line.split()[1] == str(sq) for line, sq in zip(lines[1:5], squares))
    return wall, [] if ok else [f"distances output wrong (exit {proc.returncode})"]


# ---------------------------------------------------------------------------
# output checks


class OutputChecker:
    """Checks each output against the stored digest, or, without one,
    against the first output; invariants run once per distinct digest."""

    def __init__(self, workload: Workload, z_min: int, z_max: int, expected: str | None):
        self.workload, self.z_min, self.z_max = workload, z_min, z_max
        self.reference = expected
        self.checked: set[str] = set()

    def problems(self, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        if self.reference is not None and digest != self.reference:
            problems.append(f"sha256 {digest[:16]} differs from {self.reference[:16]}")
        if digest not in self.checked:
            problems += check_output(self.workload, data, self.z_min, self.z_max)
            if not problems:
                self.checked.add(digest)
        if self.reference is None and not problems:
            self.reference = digest
        return problems


def digest_key(name: str, k: int) -> str:
    return f"{name}/{k}"


def prepare(workload: Workload, seed: int, smoke: bool, record: dict):
    """The seed's window, an output checker for it, and the output path."""
    k = workload.variant(seed)
    z_min, z_max = workload.window(k, smoke)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    expected = None if smoke else digests.get(digest_key(workload.name, k))
    out = WORK / f"{workload.name}.out"
    out.unlink(missing_ok=True)
    record.update(window=[z_min, z_max], digest=expected)
    return z_min, z_max, OutputChecker(workload, z_min, z_max, expected), out


# ---------------------------------------------------------------------------
# the two kinds of run


def time_left(started: float) -> float:
    return max(5.0, RUN_LIMIT_S - (time.perf_counter() - started))


def fastest_units(passes: list[list]) -> dict[str, float]:
    """Each unit's fastest time over the passes."""
    fastest: dict[str, float] = {}
    for times in passes:
        for unit, seconds in times:
            fastest[unit] = min(seconds, fastest.get(unit, seconds))
    return fastest


def measure(workload: Workload, seed: int, seconds: float, smoke: bool, record: dict) -> dict:
    started = time.perf_counter()
    z_min, z_max, checker, out = prepare(workload, seed, smoke, record)
    work = workload.work(z_min, z_max)
    cmd = workload.command(sys.executable, z_min, z_max, out)
    times = WORK / f"{workload.name}.times.json"
    pass_cmd = [sys.executable, str(BENCH_DIR / "timed.py"), "--workload", workload.name,
                "--z-min", str(z_min), "--z-max", str(z_max), "--out", str(out),
                "--times", str(times)]
    record.update(work=work, command=cmd[1:])
    attempted = failed = 0
    setups, commands, passes = [], [], []

    def run_checked(argv: list[str], label: str) -> Measured:
        nonlocal attempted, failed
        out.unlink(missing_ok=True)
        m = run_measured(argv, time_left(started))
        attempted += 1
        problems = [f"exit code {m.returncode}"] if m.returncode else checker.problems(
            out.read_bytes())
        if problems:
            failed += 1
            print(f"{workload.name} {label}:", *problems, file=sys.stderr)
        m.ok = not problems
        return m

    def setup() -> None:
        nonlocal attempted, failed
        setup_s, problems = setup_once(time_left(started))
        attempted += 1
        setups.append(setup_s)
        if problems:
            failed += 1
            print("setup check failed:", *problems, file=sys.stderr)

    commands.append(run_checked(cmd, "command"))
    min_passes = 1 if smoke else MIN_PASSES
    loop_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # the setups are spread over the run, so that they see what the passes see
        if len(setups) < (1 if smoke else SETUPS) and \
                t0 - loop_start >= len(setups) * seconds / SETUPS:
            setup()
        times.unlink(missing_ok=True)
        m = run_checked(pass_cmd, f"pass {len(passes) + 1}")
        if m.ok:
            passes.append(json.loads(times.read_text()))
        elapsed = time.perf_counter() - loop_start
        if len(passes) >= min_passes and elapsed + (time.perf_counter() - t0) > seconds:
            break
        if time.perf_counter() - started > RUN_LIMIT_S / 2 or (not m.ok and not passes):
            break
    while len(setups) < (1 if smoke else SETUPS):
        setup()
    commands.append(run_checked(cmd, "command"))

    units = {tuple(unit for unit, _ in p) for p in passes}
    if len(units) > 1:
        failed += 1
        print(f"{workload.name}: passes timed different units", file=sys.stderr)
    fastest = fastest_units(passes)
    compute = sum(fastest.values())
    record.update(setups=setups, passes=len(passes), fastest=fastest, commands=[
        {"wall_s": m.wall_s, "cpu_s": m.cpu_s, "rss_mb": m.rss_mb, "ok": m.ok}
        for m in commands])
    record["comment"] = (f"command wall_s {commands[0].wall_s:.4f} {commands[1].wall_s:.4f}, "
                         f"cpu_s {commands[0].cpu_s:.4f} {commands[1].cpu_s:.4f}; "
                         f"{len(passes)} passes")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "compute_s": compute,
            "work_per_s": work / compute if compute else 0.0,
            "peak_rss_mb": statistics.median(m.rss_mb for m in commands),
            "setup_s": statistics.median(setups),
        },
    }


def run_tracing(workload: Workload, z_min: int, z_max: int, kind: str,
                started: float) -> dict | None:
    out = WORK / f"{workload.name}.{kind}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "tracing.py"), "--workload", workload.name,
           "--z-min", str(z_min), "--z-max", str(z_max), "--pass", kind, "--out", str(out)]
    m = run_measured(cmd, time_left(started))
    if m.returncode:
        print(f"tracing.py --pass {kind} exited {m.returncode}", file=sys.stderr)
        return None
    return json.loads(out.read_text())


def traced(workload: Workload, seed: int, smoke: bool, record: dict) -> dict:
    started = time.perf_counter()
    z_min, z_max, checker, out = prepare(workload, seed, smoke, record)
    m = run_measured(workload.command(sys.executable, z_min, z_max, out), time_left(started))
    data = out.read_bytes() if m.returncode == 0 else None
    problems = checker.problems(data) if data else [f"{workload.name} exited {m.returncode}"]
    plain = run_tracing(workload, z_min, z_max, "plain", started)
    layers = run_tracing(workload, z_min, z_max, "traced", started)
    failed = bool(problems) + (plain is None)

    metrics = dict.fromkeys(per_layer_units(), 0.0)
    if layers is None:
        failed += 1
    else:
        metrics.update(layers["metrics"])
        record["spans"] = layers["spans"]
        cross = cross_check(workload, data, layers) if data else []
        failed += bool(cross)
        problems += cross
    if plain is not None and layers is not None:
        metrics["trace.overhead_ratio"] = layers["pass_s"] / plain["pass_s"]
        if "w2_s" in plain:
            metrics["search.search_range.w2_s"] = plain["w2_s"]
            metrics["search.search_range.speedup"] = plain["search_range_s"] / plain["w2_s"]
    for p in problems:
        print(f"{workload.name} traced run: {p}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": 3, "failed": failed, "metrics": metrics}


def cross_check(workload: Workload, data: bytes, layers: dict) -> list[str]:
    """The trace's counts must equal what the program itself reported."""
    problems = []
    traced_hits = layers["metrics"]["search.oracle_scan.hits"]
    if workload.name == "oracle-scan":
        program_hits = len(json.loads(data)["hits"])
    elif workload.name == "witness-audit":
        program_hits = len(json.loads(data)["four_distance_hits"])
    else:
        program_hits = traced_hits  # the hunt runs no oracle scan
    if program_hits != traced_hits:
        problems.append(f"oracle hits: program {program_hits}, trace {traced_hits}")
    if workload.name != "oracle-scan":
        count = sieve_eliminated if workload.name == "hunt-mod12" else audit_eliminated
        program = count(data)
        if program != layers["elims"]:
            problems.append(f"eliminations: program {program}, replay {layers['elims']}")
    return problems


# ---------------------------------------------------------------------------
# reporting


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


def emit(result: dict, units: dict[str, str], record: dict) -> None:
    record["machine"]["loadavg_end"] = os.getloadavg()
    ordered = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": ordered}
    record["result"] = line
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (WORK / name).write_text(json.dumps(record, indent=1))
    mach = record["machine"]
    print(f"# machine: {mach['nproc']} cpus ({mach['usable_cpus']} usable), "
          f"{mach['cpu_model']}, python {mach['python']}, loadavg "
          f"{mach['loadavg_start'][0]:.2f} -> {mach['loadavg_end'][0]:.2f}")
    print(f"# {record['workload']} seed={record['seed']} window={record['window']} "
          f"error_rate={result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']})")
    if "comment" in record:
        print(f"# {record['comment']}")
    for metric, entry in ordered.items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(line), flush=True)


def record_digests() -> int:
    """Recompute every stored digest with one worker, after checking invariants."""
    digests = {}
    for workload in WORKLOADS.values():
        for k in range(workload.variants):
            z_min, z_max = workload.window(k)
            out = WORK / f"{workload.name}.out"
            cmd = workload.command(sys.executable, z_min, z_max, out, threads=1)
            m = run_measured(cmd, 600)
            data = out.read_bytes() if m.returncode == 0 else b""
            problems = check_output(workload, data, z_min, z_max) if data else ["failed"]
            if problems:
                print(workload.name, k, *problems, file=sys.stderr)
                return 1
            digests[digest_key(workload.name, k)] = hashlib.sha256(data).hexdigest()
            print(f"{workload.name} variant {k} window {z_min}..{z_max}: {m.wall_s:.2f} s")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, plain and traced, at tiny sizes")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (SRC / "squarepoint" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.record_digests:
        return record_digests()
    if args.smoke:
        names = sorted(WORKLOADS)
    elif args.workload:
        names = [args.workload]
    else:
        parser.error("give --workload, --smoke or --record-digests")
    all_correct = True
    for name in names:
        for trace in ((0, 1) if args.smoke else (args.trace,)):
            record = {"workload": name, "seed": args.seed, "trace": trace, "machine": machine()}
            if trace:
                result = traced(WORKLOADS[name], args.seed, args.smoke, record)
                units = per_layer_units()
            else:
                seconds = 0 if args.smoke else args.seconds
                result = measure(WORKLOADS[name], args.seed, seconds, args.smoke, record)
                units = END_TO_END
            emit(result, units, record)
            all_correct &= result["correct"]
    # a wrong output is reported in the result line; only smoke runs fail on it
    return 1 if args.smoke and not all_correct else 0


if __name__ == "__main__":
    sys.exit(main())
