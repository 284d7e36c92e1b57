"""Enumeration, oracle scan, sieve and parallel range search."""

import itertools
import multiprocessing
import os
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from squarepoint import search
from squarepoint.filters import FilterConfig, FilterId, lemma3_sides
from squarepoint.model import (
    Candidate,
    candidate_count,
    canonical_rows,
    canonicalize,
    distance_profile,
    is_primitive_interior,
    line_orbits,
    orbit,
)
from squarepoint.search import (
    BudgetExceededError,
    ScanHit,
    ScanRequest,
    enumerate_candidates,
    oracle_scan,
    search_range,
    sieve_z,
)
from squarepoint.selfcheck import (
    ALL_FILTERS,
    LEAVE_ONE_OUT,
    SINGLE_FILTERS,
    check_sieve_reference,
    check_witnesses,
    sieve_matches_reference,
)


def naive_scan_hits(z_max, min_count, include_boundary=False, primitive_only=True):
    """Reference double loop over every point of each square, the boundary
    too if asked: the canonical ones (by canonicalize), only primitive ones
    if asked, with at least min_count integer corner distances."""
    hits = []
    for z in range(1, z_max + 1):
        values = range(0, z + 1) if include_boundary else range(1, z)
        for x in values:
            for y in values:
                c = Candidate(x, y, z)
                if primitive_only and not c.is_primitive or canonicalize(c) != c:
                    continue
                profile = distance_profile(c)
                if profile.integer_count >= min_count:
                    hits.append(ScanHit(c, profile, len(orbit(c))))
    return hits


def test_enumerate_examples():
    assert list(enumerate_candidates(2)) == [Candidate(1, 1, 2)]
    assert len(list(enumerate_candidates(3))) == 4  # all four interior points
    assert list(enumerate_candidates(4, dedup=True)) == [
        Candidate(1, 1, 4), Candidate(1, 2, 4)
    ]
    with pytest.raises(ValueError):
        list(enumerate_candidates(0))


def test_enumerate_dedup_matches_filtering():
    for z in range(1, 61):
        plain = list(enumerate_candidates(z))
        dedup = list(enumerate_candidates(z, dedup=True))
        assert dedup == [c for c in plain if canonicalize(c) == c], z
        assert dedup == sorted(dedup), z
        # built by tuple.__new__, each is still a Candidate with named fields
        assert all(type(c) is Candidate and (c.x, c.y, c.z) == (c[0], c[1], z)
                   for c in dedup), z


def test_candidate_count_matches_enumeration():
    for z in range(1, 301):
        assert candidate_count(z) == len(list(enumerate_candidates(z, dedup=True))), z


def test_dedup_orbit_sizes_account_for_everything():
    for z in (13, 24, 36, 60, 97):
        plain = sum(1 for _ in enumerate_candidates(z))
        total = sum(len(orbit(c)) for c in enumerate_candidates(z, dedup=True))
        assert total == plain, z


def test_scan_request_validation():
    with pytest.raises(ValueError):
        ScanRequest(z_min=5, z_max=4)
    with pytest.raises(ValueError):
        ScanRequest(z_min=0, z_max=4)
    with pytest.raises(ValueError):
        ScanRequest(z_max=10, min_count=5)
    with pytest.raises(ValueError):
        ScanRequest(z_max=24, min_count=3, mod12_only=True)
    ScanRequest(z_max=24, min_count=4, mod12_only=True)


@pytest.mark.parametrize("z_max, min_count", [(120, 3), (60, 1), (60, 2), (60, 4)])
def test_oracle_scan_matches_naive_reference(z_max, min_count):
    report = oracle_scan(ScanRequest(z_min=1, z_max=z_max, min_count=min_count))
    assert list(report.hits) == naive_scan_hits(z_max, min_count)


@pytest.mark.parametrize("include_boundary", [False, True])
@pytest.mark.parametrize("primitive_only", [True, False])
def test_oracle_scan_matches_all_points_reference(include_boundary, primitive_only):
    # every flag combination and min count; at 0 every canonical point is a hit
    expected = naive_scan_hits(40, 0, include_boundary, primitive_only)
    for min_count in range(5):
        report = oracle_scan(ScanRequest(z_min=1, z_max=40, min_count=min_count,
                                         include_boundary=include_boundary,
                                         primitive_only=primitive_only))
        assert list(report.hits) == [
            h for h in expected if h.profile.integer_count >= min_count
        ], min_count


def test_interior_hits_match_brute_force_counts():
    # every interior point, not only the canonical or primitive ones: the
    # scans with primitive_only=False read them all
    def is_square(n):
        return isqrt(n) ** 2 == n

    for z in range(1, 61):
        counts = {
            (x, y): sum(map(is_square, (x * x + y * y, x * x + (z - y) ** 2,
                                        (z - x) ** 2 + (z - y) ** 2, (z - x) ** 2 + y * y)))
            for x in range(1, z) for y in range(1, z)
        }
        for min_count in range(1, 5):
            expected = [p for p, n in counts.items() if n >= min_count]
            assert list(search._interior_hits(z, min_count)) == expected, (z, min_count)


def test_oracle_scan_three_distance_points_to_1000():
    report = oracle_scan(ScanRequest(z_min=1, z_max=1000, min_count=3))
    assert [tuple(h.candidate) for h in report.hits] == [
        (7, 24, 52), (55, 48, 195), (297, 304, 700), (315, 168, 740), (87, 416, 867),
        (231, 476, 996),
    ]
    assert {h.profile.integer_count for h in report.hits} == {3}


def test_oracle_scan_finds_first_triple():
    report = oracle_scan(ScanRequest(z_min=1, z_max=60, min_count=3))
    cs = [tuple(h.candidate) for h in report.hits]
    assert (7, 24, 52) in cs
    hit = next(h for h in report.hits if tuple(h.candidate) == (7, 24, 52))
    assert hit.profile.roots == (25, None, 53, 51)
    assert hit.orbit_size == 8


def test_oracle_scan_boundary_and_scaled_points():
    # corners always have three integer distances; scaled copies of
    # (7, 24, 52) appear once primitivity is not required
    report = oracle_scan(
        ScanRequest(z_min=1, z_max=8, min_count=3, include_boundary=True,
                    primitive_only=False)
    )
    assert any(h.candidate.x in (0, h.candidate.z) or
               h.candidate.y in (0, h.candidate.z) for h in report.hits)
    report = oracle_scan(
        ScanRequest(z_min=104, z_max=104, min_count=3, primitive_only=False)
    )
    assert (14, 48, 104) in {tuple(h.candidate) for h in report.hits}


def test_oracle_scan_orders_hits():
    report = oracle_scan(ScanRequest(z_min=1, z_max=200, min_count=2))
    keys = [(h.candidate.z, h.candidate.x, h.candidate.y) for h in report.hits]
    assert keys == sorted(keys)


def test_oracle_scan_budget():
    with pytest.raises(BudgetExceededError):
        oracle_scan(ScanRequest(z_min=1, z_max=100, min_count=3, budget=10**3))


def test_sieve_z60_closes_without_prime_filters():
    cfg = FilterConfig.only(
        FilterId.PARITY_RESIDUE, FilterId.LEMMA3, FilterId.THEOREM5
    )
    result = sieve_z(60, cfg)
    assert result.survivors == ()
    assert result.candidates == 292
    counts = dict(result.eliminated)
    assert counts[FilterId.PARITY_RESIDUE] == 240
    assert counts[FilterId.LEMMA3] == 22
    assert counts[FilterId.THEOREM5] == 30


def test_sieve_small_goldens():
    result = sieve_z(12)
    assert result.candidates == 13 and not result.survivors
    counts = {fid.value: n for fid, n in result.eliminated if n}
    assert counts == {"boundary": 4, "lemma3": 3, "parity_residue": 6}
    assert sieve_z(1).candidates == 0
    assert sieve_z(60).survivors == ()


def test_sieve_z_rejects_unknown_mode():
    for z in range(1, 5):
        with pytest.raises(ValueError, match="mode"):
            sieve_z(z, None, "full")
    with pytest.raises(ValueError, match="positive"):
        sieve_z(0)


def test_sieve_matches_run_pipeline():
    # parity rules out every candidate at z % 12 != 0, so the full config
    # orders the one-axis filters only at z = 12, 24, ... (theorem5 first
    # at z = 72); the two-filter configs order them at every z, and the
    # empty config leaves every candidate a survivor with all counts 0.
    # Leaving one filter out changes which line counts apply: without
    # boundary, lemma3's lines keep the diagonal and midline points, and
    # without parity, every candidate is visited.
    two_filters = tuple(
        FilterConfig.only(a, b) for a, b in itertools.combinations(FilterId, 2)
    ) + (FilterConfig.only(),)
    for result in (check_sieve_reference(96, ALL_FILTERS),
                   check_sieve_reference(36, SINGLE_FILTERS),
                   check_sieve_reference(40, two_filters),
                   check_sieve_reference(72, LEAVE_ONE_OUT)):
        assert result.ok, result.detail


@settings(deadline=None)
@given(st.frozensets(st.sampled_from(FilterId)), st.integers(1, 150))
def test_sieve_matches_run_pipeline_for_any_config(enabled, z):
    # configs of 3 to 8 filters, which the families above never build
    assert sieve_matches_reference(z, FilterConfig(enabled))


def _on_lines(z, points):
    """The primitive canonical interior pairs among points, materialized."""
    rows = {}
    for x, ys in canonical_rows(z):
        rows.setdefault(x, []).append(ys)
    return {(x, y) for x, y in points
            if gcd(x, y, z) == 1 and any(y in ys for ys in rows.get(x, ()))}


def _rows_and_columns(z, values):
    """The interior points with x or y in values, 2y <= z, and 2x <= z if z
    is even: the bounds of every canonical pair."""
    x_max = z // 2 if z % 2 == 0 else z - 1
    for v in values:
        if v <= x_max:
            for t in range(1, z // 2 + 1):
                yield v, t
        if 2 * v <= z:
            for t in range(1, x_max + 1):
                yield t, v


def _line_sets(z, sides, boundary):
    """The sieve's two line counts as point sets: boundary's diagonal and
    midline points, and the points at sides off them."""
    on_boundary = _on_lines(z, itertools.chain(
        ((t, t) for t in range(1, z // 2 + 1)),
        ((z - t, t) for t in range(1, z // 2 + 1)),
        _rows_and_columns(z, [z // 2] if z % 2 == 0 else []),
    )) if boundary else set()
    return on_boundary, _on_lines(z, _rows_and_columns(z, sides)) - on_boundary


def _closed_form_counts(z, sides, boundary):
    """The two line counts as sieve_z takes them from line_orbits."""
    midlines = {z // 2} if boundary and z % 2 == 0 else set()
    on_boundary = line_orbits(z, midlines, boundary)
    return on_boundary, line_orbits(z, midlines | sides, boundary) - on_boundary


@st.composite
def _closed_sides(draw):
    """(z, a set of side values closed under v -> z - v, boundary on or off)."""
    z = draw(st.integers(2, 200))
    picked = draw(st.sets(st.integers(1, z // 2)))
    return z, {v for t in picked for v in (t, z - t)}, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_closed_sides())
@example((2, set(), True))
@example((2, {1}, False))
@example((2, {1}, True))
@example((12, {6}, False))  # z/2 in the sides, which lemma3's never hold
@example((12, {6}, True))
@example((60, {6, 30, 54}, True))
def test_line_counts_match_materialized_sets(case):
    z, sides, boundary = case
    expected = tuple(map(len, _line_sets(z, sides, boundary)))
    assert _closed_form_counts(z, sides, boundary) == expected


def test_line_counts_match_materialized_sets_on_lemma3_sides():
    for z in range(1, 901):
        sides = lemma3_sides(z)
        # n = 2 gives n*n + 4 = 8, not prime, so z/2 is never a lemma3 side
        assert z % 2 or z // 2 not in sides, z
        for boundary in (False, True):
            expected = tuple(map(len, _line_sets(z, sides, boundary)))
            assert _closed_form_counts(z, sides, boundary) == expected, (z, boundary)


def test_sieve_counts_add_up():
    for z in (45, 60, 72, 96):
        result = sieve_z(z)
        assert result.candidates == (
            len(result.survivors) + sum(n for _, n in result.eliminated)
        )
        for survivor in result.survivors:
            c = survivor.candidate
            assert is_primitive_interior(c) and canonicalize(c) == c
            assert len(survivor.attribution.entries) == len(FilterId)


def test_sieve_survivor_oracle_summary():
    result = sieve_z(72)
    assert [tuple(s.candidate) for s in result.survivors] == [
        (21, 20, 72), (21, 28, 72)
    ]
    assert result.max_count == 1
    assert all(w.profile.integer_count == 1 for w in result.witnesses)
    empty = sieve_z(60)
    assert empty.max_count is None and empty.witnesses == ()


def test_search_range_cardinality_and_golden():
    results = search_range(12, 120, workers=4)
    assert len(results) == 109
    assert [r.z for r in results] == list(range(12, 121))
    assert search_range(60, 60, workers=2)[0] == sieve_z(60)


def test_oracle_scan_four_distance_empty_to_1000():
    report = oracle_scan(ScanRequest(z_min=1, z_max=1000, min_count=4))
    assert report.hits == ()


def test_search_range_matches_workers():
    seq = search_range(12, 72, workers=1)
    par = search_range(12, 72, workers=4)
    assert seq == par


def test_search_range_mod12_only():
    results = search_range(10, 60, mod12_only=True)
    assert [r.z for r in results] == [12, 24, 36, 48, 60]


def test_search_range_validation_and_budget():
    with pytest.raises(ValueError):
        search_range(10, 5)
    with pytest.raises(ValueError):
        search_range(1, 10, workers=0)
    with pytest.raises(BudgetExceededError):
        search_range(1, 100, budget=10**3)


def test_default_budget_admits_z_up_to_1500(monkeypatch):
    # 117,161,691 candidates, though (z - 1)**2 summed is 1.12 * 10**9;
    # the stub shows the budget is settled before any z is sieved
    monkeypatch.setattr(search, "sieve_z", lambda z, cfg: z)
    assert search_range(1, 1500) == list(range(1, 1501))
    total = sum(candidate_count(z) for z in range(1, 1501))
    assert total == 117_161_691
    with pytest.raises(BudgetExceededError):
        search_range(1, 1500, budget=total - 1)


def test_search_range_starts_no_idle_workers(monkeypatch):
    # a fake pool records the process count it is asked for and maps
    # serially, so no process is started
    requested = []

    class RecordingPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks):
            return [func(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert search_range(60, 60, workers=64) == [sieve_z(60)]
    assert search_range(13, 23, workers=4, mod12_only=True) == []
    assert requested == []
    results = search_range(48, 60, workers=64)
    assert requested == [13]
    assert [r.z for r in results] == list(range(48, 61))
    # nor more than one per CPU
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert search_range(48, 60, workers=64) == results
    assert requested == [13, 2]


def test_search_range_worker_failure_aborts(monkeypatch):
    # the wrapped sieve_z fails at z = 60 only; _sieve_task looks it up at
    # call time, and workers started by fork (the Linux default before
    # Python 3.14) inherit the patch
    sieve = search.sieve_z

    def failing_sieve(z, cfg=None):
        if z == 60:
            raise ZeroDivisionError("injected")
        return sieve(z, cfg)

    monkeypatch.setattr(search, "sieve_z", failing_sieve)
    for workers in (1, 2):
        with pytest.raises(RuntimeError, match="z=60"):
            search_range(50, 60, workers=workers)


def test_oracle_hits_survive_sieve():
    # filters never kill an oracle-certified four-distance point (vacuous so
    # far), and every elimination witness on the way re-validates
    result = check_witnesses(200)
    assert result.ok, result.detail
