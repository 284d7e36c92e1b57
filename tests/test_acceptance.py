"""Acceptance suite: nine gate criteria, each with an explicit bound and
time budget, printing one PASS line per criterion.

Criteria 1, 2, 5, 7 and 9 run the `verify` checks of squarepoint.selfcheck,
at larger bounds where a check has one.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines).
"""

import time
from math import gcd

from squarepoint.report import serialize
from squarepoint.search import ScanRequest, oracle_scan, search_range
from squarepoint.selfcheck import (
    ALL_FILTERS,
    SINGLE_FILTERS,
    check_decompositions,
    check_jacobi,
    check_jacobi_of_two,
    check_partners,
    check_sieve_reference,
    check_witnesses,
    check_z60_closes,
    check_z60_lists,
)


def _report(num, detail, started, limit):
    elapsed = time.monotonic() - started
    print(f"PASS criterion {num}: {detail} ({elapsed:.1f}s < {limit}s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def _assert_ok(*results):
    for result in results:
        assert result.ok, f"{result.name}: {result.detail}"


def test_criterion_1_z60_lists():
    started = time.monotonic()
    _assert_ok(check_z60_lists())
    _report(1, "z=60 unavailable lists reproduced exactly", started, 1)


def test_criterion_2_z60_sieve_closes():
    started = time.monotonic()
    _assert_ok(check_z60_closes())
    _report(2, "z=60 closes with parity, lemma3 and theorem5 alone", started, 1)


def test_criterion_3_three_distance_witnesses():
    started = time.monotonic()
    report = oracle_scan(ScanRequest(z_min=1, z_max=700, min_count=3))
    by_triple = {tuple(h.candidate): h for h in report.hits}
    first = by_triple[(7, 24, 52)]
    assert set(first.profile.roots) - {None} == {25, 51, 53}
    second = by_triple[(297, 304, 700)]
    assert set(second.profile.roots) - {None} == {425, 495, 565}
    _report(3, "scan to z=700 contains (7,24,52) and (297,304,700)", started, 60)


def test_criterion_4_no_four_distance_point_to_500():
    started = time.monotonic()
    report = oracle_scan(ScanRequest(z_min=1, z_max=500, min_count=4))
    assert report.hits == ()
    _report(4, "no four-distance point up to z=500", started, 120)


def test_criterion_5_arithmetic_properties():
    started = time.monotonic()
    _assert_ok(
        check_jacobi(500),
        check_jacobi_of_two(10**4),
        check_partners(201),
        check_decompositions(1000),
    )
    _report(5, "jacobi, partner and decomposition properties hold", started, 30)


def test_criterion_6_corner_inequalities():
    started = time.monotonic()
    limit = 10**4
    triangles = 0
    m = 2
    while m * m + 1 <= limit:
        for n in range(1, m):
            if (m + n) % 2 == 0 or gcd(m, n) != 1:
                continue
            c0 = m * m + n * n
            if c0 > limit:
                break
            a0, b0 = m * m - n * n, 2 * m * n
            for k in range(1, limit // c0 + 1):
                a, b = k * a0, k * b0
                assert a * a >= 2 * b + 1 and b * b >= 2 * a + 1, (a, b)
                triangles += 1
        m += 1
    assert triangles > 10**4
    _report(6, f"corner inequalities hold for {triangles} right triangles",
            started, 10)


def test_criterion_7_witnesses_and_soundness():
    started = time.monotonic()
    result = check_witnesses(600)
    _assert_ok(result)
    _report(7, result.name, started, 120)


def test_criterion_8_worker_determinism():
    started = time.monotonic()
    one = serialize(search_range(12, 240, workers=1), "json")
    eight = serialize(search_range(12, 240, workers=8), "json")
    assert one == eight
    _report(8, "search_range(12, 240) is byte-identical for 1 and 8 workers",
            started, 600)


def test_criterion_9_table_sieve_matches_pipeline():
    started = time.monotonic()
    full = check_sieve_reference(300, ALL_FILTERS)
    single = check_sieve_reference(120, SINGLE_FILTERS)
    _assert_ok(full, single)
    _report(9, f"{full.name}; {single.name}", started, 120)
