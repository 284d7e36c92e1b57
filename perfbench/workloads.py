"""Workload definitions for the squarepoint benchmark.

Each workload is one command over a z-window.  The seed shifts the low
end of the window by a few steps; the high end, where nearly all of the
work lies, stays fixed, so the amount of work moves by under 1% between
seeds while the inputs (and the output bytes) change.

Nothing here trusts the program: the work counts come from the window
alone (a Burnside count of candidate orbits), and the invariant checks
re-derive what they check with their own arithmetic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# The oracle's default budget stops short of the oracle-scan window.
ORACLE_BUDGET = 3_000_000_000
HUNT_THREADS = 2

FILTER_IDS = (
    "boundary", "lemma3", "parity_residue", "theorem1", "theorem2",
    "theorem3", "theorem4", "theorem5", "corollary52", "theorem6",
)


@dataclass(frozen=True)
class Workload:
    name: str
    z_max: int
    z_min_base: int
    z_step: int  # how far one seed variant moves z_min
    variants: int  # how many windows the seeds choose from
    smoke_z_max: int

    def window(self, variant: int, smoke: bool = False) -> tuple[int, int]:
        z_min = self.z_min_base + variant * self.z_step
        return z_min, self.smoke_z_max if smoke else self.z_max

    def zs(self, z_min: int, z_max: int) -> list[int]:
        return [z for z in range(z_min, z_max + 1) if self.name != "hunt-mod12" or z % 12 == 0]

    def command(self, python: str, z_min: int, z_max: int, out: Path,
                threads: int = HUNT_THREADS) -> list[str]:
        cli = [python, "-m", "squarepoint.cli"]
        window = ["--z-min", str(z_min), "--z-max", str(z_max)]
        if self.name == "hunt-mod12":
            return cli + ["search", *window, "--mod12-only", "--threads", str(threads),
                          "--format", "json", "--out", str(out)]
        if self.name == "oracle-scan":
            return cli + ["three-distance", *window, "--min-count", "3",
                          "--budget", str(ORACLE_BUDGET), "--format", "json", "--out", str(out)]
        return [python, str(BENCH_DIR / "audit.py"), *window, "--out", str(out)]

    def work(self, z_min: int, z_max: int) -> int:
        """Units of work in the window: candidates for the sieve workloads,
        candidate pairs (z-1)**2 for the oracle."""
        if self.name == "oracle-scan":
            return sum((z - 1) ** 2 for z in self.zs(z_min, z_max))
        return sum(candidate_count(z) for z in self.zs(z_min, z_max))

    def variant(self, seed: int) -> int:
        """The seed picks one of the workload's windows."""
        return random.Random(seed).randrange(self.variants)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hunt-mod12", z_max=240, z_min_base=12, z_step=12, variants=4,
                 smoke_z_max=96),
        Workload("oracle-scan", z_max=560, z_min_base=1, z_step=8, variants=8,
                 smoke_z_max=120),
        Workload("witness-audit", z_max=100, z_min_base=1, z_step=2, variants=8,
                 smoke_z_max=40),
    )
}


# ---------------------------------------------------------------------------
# independent work counts


def _squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """(d, mobius(d)) for every squarefree divisor d of n."""
    primes, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    out = [(1, 1)]
    for p in primes:
        out += [(d * p, -mu) for d, mu in out]
    return out


def _coprime_count(m: int, n: int) -> int:
    """#{1 <= t <= n : gcd(t, m) = 1}."""
    return sum(mu * (n // d) for d, mu in _squarefree_divisors(m))


def candidate_count(z: int) -> int:
    """Symmetry orbits of primitive interior lattice points at side z.

    Burnside over the 8 symmetries of the square: the identity fixes every
    point with gcd(x, y, z) = 1; each mirror through a midline fixes the
    points on it, each diagonal mirror the points on its diagonal, and the
    three rotations only the centre, which is primitive only at z = 2.
    """
    if z < 2:
        return 0
    fixed = sum(mu * ((z - 1) // d) ** 2 for d, mu in _squarefree_divisors(z))
    fixed += 2 * _coprime_count(z, z - 1)
    if z % 2 == 0:
        fixed += 2 * _coprime_count(z // 2, z - 1)
    if z == 2:
        fixed += 3
    assert fixed % 8 == 0, z
    return fixed // 8


# ---------------------------------------------------------------------------
# invariant checks on the program's output


def _integer_corners(x: int, y: int, z: int) -> int:
    legs = ((x, y), (x, z - y), (z - x, z - y), (z - x, y))
    return sum(isqrt(a * a + b * b) ** 2 == a * a + b * b for a, b in legs)


def check_sieve_range(data: bytes, zs: list[int]) -> list[str]:
    """Problems in a `search` JSON payload: z order, totals that do not add
    up, candidate counts that disagree with the orbit count."""
    results = json.loads(data)["results"]
    problems = []
    if [r["z"] for r in results] != zs:
        problems.append("z values differ from the requested window")
    for r in results:
        totals = r["totals"]
        eliminated = sum(totals["eliminated"].values())
        if totals["candidates"] != totals["survivors"] + eliminated:
            problems.append(f"z={r['z']}: candidates != survivors + eliminated")
        if totals["candidates"] != candidate_count(r["z"]):
            problems.append(f"z={r['z']}: {totals['candidates']} candidates, "
                            f"expected {candidate_count(r['z'])}")
        if totals["survivors"] != len(r["survivors"]):
            problems.append(f"z={r['z']}: survivor list length differs from the total")
    return problems


def sieve_eliminated(data: bytes) -> dict[str, int]:
    totals = dict.fromkeys(FILTER_IDS, 0)
    for r in json.loads(data)["results"]:
        for fid, n in r["totals"]["eliminated"].items():
            totals[fid] += n
    return totals


KNOWN_THREE_DISTANCE = ((7, 24, 52), (297, 304, 700))


def check_scan(data: bytes, z_min: int, z_max: int, min_count: int) -> list[str]:
    """Problems in a `three-distance` JSON payload: a hit without enough
    integer corners, or a known three-distance point missing."""
    hits = json.loads(data)["hits"]
    problems = []
    seen = set()
    for h in hits:
        x, y, z = h["x"], h["y"], h["z"]
        seen.add((x, y, z))
        count = _integer_corners(x, y, z)
        if not z_min <= z <= z_max or count < min_count or count != h["count"]:
            problems.append(f"hit {(x, y, z)} has {count} integer corners")
    if min_count <= 3:
        for known in KNOWN_THREE_DISTANCE:
            if z_min <= known[2] <= z_max and known not in seen:
                problems.append(f"known three-distance point {known} missing")
    return problems


def check_audit(data: bytes, zs: list[int]) -> list[str]:
    """Problems in a summary written by audit.py."""
    summary = json.loads(data)
    problems = []
    if [row[0] for row in summary["per_z"]] != zs:
        problems.append("z values differ from the requested window")
    for z, candidates, survivors, eliminated in summary["per_z"]:
        if candidates != survivors + sum(eliminated.values()):
            problems.append(f"z={z}: candidates != survivors + eliminated")
        if candidates != candidate_count(z):
            problems.append(f"z={z}: {candidates} candidates, expected {candidate_count(z)}")
    if summary["recheck_failures"]:
        problems.append(f"{summary['recheck_failures']} witnesses failed their recheck")
    if summary["rechecked"] != sum(sum(row[3].values()) for row in summary["per_z"]):
        problems.append("rechecked witnesses != eliminations")
    if summary["hits_not_surviving"]:
        problems.append(f"{summary['hits_not_surviving']} four-distance points were eliminated")
    for x, y, z in summary["four_distance_hits"]:
        if _integer_corners(x, y, z) != 4:
            problems.append(f"four-distance hit {(x, y, z)} is not one")
    return problems


def audit_eliminated(data: bytes) -> dict[str, int]:
    totals = dict.fromkeys(FILTER_IDS, 0)
    for _z, _c, _s, eliminated in json.loads(data)["per_z"]:
        for fid, n in eliminated.items():
            totals[fid] += n
    return totals


def check_output(workload: Workload, data: bytes, z_min: int, z_max: int) -> list[str]:
    zs = workload.zs(z_min, z_max)
    if workload.name == "hunt-mod12":
        return check_sieve_range(data, zs)
    if workload.name == "oracle-scan":
        return check_scan(data, z_min, z_max, 3)
    return check_audit(data, zs)
