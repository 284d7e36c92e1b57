"""Cross-checks of the arithmetic layer, the filter witnesses and the paper's
worked examples.

Each check is one function that takes its bound and returns a CheckResult.
SUITES runs them at bounds sized to finish in seconds (the `verify` CLI
subcommand); the acceptance gate in tests/test_acceptance.py runs the same
functions at larger bounds.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .arith import (
    is_qr_bruteforce,
    isqrt,
    jacobi,
    odd_leg_decompositions,
    primes_upto,
    pythagorean_partners,
)
from .filters import FilterConfig, FilterId, full_attribution, recheck_witness, run_pipeline
from .model import Candidate, distance_profile
from .report import unavailable_lists
from .search import ScanRequest, enumerate_candidates, oracle_scan, sieve_z


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, failures: list) -> CheckResult:
    """Passes iff nothing failed; the detail names the first failures."""
    detail = f"failures: {failures[:3]}" if failures else ""
    return CheckResult(name, not failures, detail)


# the Jacobi checks read the odd primes below their bound: all but 2
def check_jacobi(below: int) -> CheckResult:
    return _check(f"jacobi matches residue enumeration (p < {below})", [
        (a, p)
        for p in primes_upto(below - 1)[1:]
        for a in range(1, p)
        if (jacobi(a, p) == -1) == is_qr_bruteforce(a, p)
    ])


def check_jacobi_of_two(below: int) -> CheckResult:
    return _check(f"(2/p) = -1 iff p = 3,5 (mod 8) (p < {below})", [
        p for p in primes_upto(below - 1)[1:] if (jacobi(2, p) == -1) != (p % 8 in (3, 5))
    ])


def _naive_partners(a: int) -> tuple[int, ...]:
    """Scan every b up to the largest possible partner."""
    return tuple(b for b in range(1, (a * a - 1) // 2 + 1) if isqrt(a * a + b * b)[1])


def check_partners(below: int) -> CheckResult:
    return _check(f"partner table matches naive scan (a < {below})", [
        a for a in range(1, below) if pythagorean_partners(a) != _naive_partners(a)
    ])


def check_decompositions(below: int) -> CheckResult:
    """The legs 2kuv of an odd a's decompositions are exactly its partners,
    the largest being (a^2 - 1) / 2."""
    return _check(f"leg decompositions give the partner set (odd a < {below})", [
        a
        for a in range(3, below, 2)
        if {2 * k * u * v for k, u, v in odd_leg_decompositions(a)}
        != set(pythagorean_partners(a))
        or max(pythagorean_partners(a)) != (a * a - 1) // 2
    ])


def check_first_hit(zs: tuple[int, ...]) -> CheckResult:
    """The sieve's first-hit pipeline and full attribution, two separate
    evaluations, name the same first eliminating filter (None for a
    survivor) for every candidate at each z."""
    cfg = FilterConfig()
    return _check(f"first hit matches full attribution (z in {zs})", [
        c
        for z in zs
        for c in enumerate_candidates(z, dedup=True)
        if run_pipeline(c, cfg).eliminated_by is not full_attribution(c).eliminated_by
    ])


ALL_FILTERS = (FilterConfig(),)
SINGLE_FILTERS = tuple(FilterConfig.only(fid) for fid in FilterId)
LEAVE_ONE_OUT = tuple(FilterConfig(frozenset(FilterId) - {fid}) for fid in FilterId)


def sieve_matches_reference(z: int, cfg: FilterConfig) -> bool:
    """sieve_z(z, cfg) equals a run_pipeline loop over each candidate:
    candidate count, per-filter counts and survivors, and each survivor
    carries full_attribution and distance_profile of its candidate."""
    counts = dict.fromkeys(FilterId, 0)
    survivors = []
    total = 0
    for c in enumerate_candidates(z, dedup=True):
        total += 1
        hit = run_pipeline(c, cfg).eliminated_by
        if hit is None:
            survivors.append(c)
        else:
            counts[hit] += 1
    result = sieve_z(z, cfg)
    return (
        result.candidates == total
        and dict(result.eliminated) == counts
        and [s.candidate for s in result.survivors] == survivors
        and all(s.attribution == full_attribution(s.candidate)
                and s.profile == distance_profile(s.candidate)
                for s in result.survivors)
    )


def check_sieve_reference(z_max: int, cfgs: tuple[FilterConfig, ...]) -> CheckResult:
    """sieve_matches_reference at every z <= z_max, for each config."""
    return _check(f"table sieve matches run_pipeline (z <= {z_max}, "
                  f"filter configs: {len(cfgs)})", [
        (z, sorted(f.value for f in cfg.enabled))
        for cfg in cfgs
        for z in range(1, z_max + 1)
        if not sieve_matches_reference(z, cfg)
    ])


def check_witnesses(z_max: int) -> CheckResult:
    """One first-hit pass over every z <= z_max: each elimination witness
    must re-validate, and every four-distance point the oracle finds must be
    among the survivors."""
    cfg = FilterConfig()
    survivors = set()
    failures = []
    checked = 0
    for z in range(1, z_max + 1):
        for c in enumerate_candidates(z, dedup=True):
            attribution = run_pipeline(c, cfg)
            if attribution.eliminated_by is None:
                survivors.add(c)
                continue
            ((fid, verdict),) = attribution.entries
            checked += 1
            if not recheck_witness(c, fid, verdict.witness) and len(failures) < 3:
                failures.append((c, fid, verdict.witness))
    hits = oracle_scan(ScanRequest(z_min=1, z_max=z_max, min_count=4)).hits
    failures += [h.candidate for h in hits if h.candidate not in survivors]
    return _check(f"{checked} elimination witnesses re-validate, all {len(hits)} "
                  f"four-distance points survive (z <= {z_max})", failures)


def check_z60_lists() -> CheckResult:
    lists = unavailable_lists(60)
    return _check("z=60 unavailable lists reproduced exactly", [name for name, ok in (
        ("theorem3 x combined", lists.theorem3_x.combined == (
            1, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 49, 53, 55, 57, 59
        )),
        ("theorem5 y direct", lists.theorem5_y.direct == (4, 8, 16, 24, 32, 48)),
        ("theorem5 y combined", lists.theorem5_y.combined
         == (4, 8, 12, 16, 24, 28, 32, 36, 44, 48, 52, 56)),
        ("lemma3 y combined", lists.lemma3_y.combined == (20, 40)),
        ("theorem4 x direct holds 3, 5, 9, 25, 27",
         {3, 5, 9, 25, 27} <= set(lists.theorem4_x.direct)),
    ) if not ok])


def check_z60_closes() -> CheckResult:
    cfg = FilterConfig.only(FilterId.PARITY_RESIDUE, FilterId.LEMMA3, FilterId.THEOREM5)
    return _check("z=60 closes with parity, lemma3 and theorem5 alone",
                  [s.candidate for s in sieve_z(60, cfg).survivors])


# corner roots (A, B, C, D) of the two classic three-distance points
THREE_DISTANCE_ROOTS = {
    (7, 24, 52): (25, None, 53, 51),
    (297, 304, 700): (425, 495, 565, None),
}


def check_three_distance(triple: tuple[int, int, int]) -> CheckResult:
    roots = distance_profile(Candidate(*triple)).roots
    return _check(f"three-distance witness {triple}",
                  [] if roots == THREE_DISTANCE_ROOTS[triple] else [roots])


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "arith": lambda: [
        check_jacobi(200),
        check_jacobi_of_two(2000),
        check_partners(80),
        check_decompositions(200),
    ],
    "filters": lambda: [
        check_witnesses(150),
        check_first_hit((60, 84)),
        check_sieve_reference(96, ALL_FILTERS),
        check_sieve_reference(36, SINGLE_FILTERS),
        check_sieve_reference(48, LEAVE_ONE_OUT),
    ],
    "paper": lambda: [
        check_z60_lists(),
        check_z60_closes(),
        *map(check_three_distance, THREE_DISTANCE_ROOTS),
    ],
}
