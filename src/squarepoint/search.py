"""Candidate enumeration, the brute-force distance oracle, and the sieve.

The oracle is exact integer arithmetic throughout: a corner distance is an
integer iff the matching leg pair appears in the partner table built with
pythagorean_partners, where a leg of length 0, on an edge of the square,
is a partner of every leg.  Work over a z-range partitions by whole z
values, so any worker count produces identical results.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from math import gcd
from operator import itemgetter
from typing import Callable, Collection, Iterator, NamedTuple

from .arith import factorize, pythagorean_partners
from .filters import (
    FIRST_HIT,
    ONE_AXIS,
    Attribution,
    FilterConfig,
    FilterId,
    full_attribution,
    lemma3_sides,
    parity_rows,
    ruled_values,
    theorem1_y_bounds,
    theorem2_marks,
)
from .model import (
    DEFAULT_BUDGET,
    Candidate,
    DistanceProfile,
    _new,
    candidate_count,
    canonical_rows,
    distance_profile,
    is_canonical,
    line_orbits,
    orbit_size,
)


class BudgetExceededError(RuntimeError):
    """The requested region exceeds its budget."""


class _ScanRequestFields(NamedTuple):
    z_min: int = 1
    z_max: int = 1
    min_count: int = 3
    include_boundary: bool = False
    primitive_only: bool = True
    mod12_only: bool = False
    budget: int = DEFAULT_BUDGET


class ScanRequest(_ScanRequestFields):
    """Region and options for an oracle scan.

    mod12_only restricts to z = 0 (mod 12), which is only sound when hunting
    four-distance points (three-distance witnesses such as (7, 24, 52) live
    at other z), so it requires min_count >= 4.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ScanRequest:
        self = super().__new__(cls, *args, **kwargs)
        if self.z_min < 1 or self.z_min > self.z_max:
            raise ValueError("need 1 <= z_min <= z_max")
        if not 0 <= self.min_count <= 4:
            raise ValueError("min_count must be within 0..4")
        if self.mod12_only and self.min_count < 4:
            raise ValueError("mod12_only is only valid for four-distance hunts")
        return self


class ScanHit(NamedTuple):
    candidate: Candidate
    profile: DistanceProfile
    orbit_size: int


class ScanReport(NamedTuple):
    request: ScanRequest
    hits: tuple[ScanHit, ...]


class Survivor(NamedTuple):
    candidate: Candidate
    attribution: Attribution
    profile: DistanceProfile


class SieveResult(NamedTuple):
    """Per-z sieve outcome: first-hit elimination counts and the survivors.

    candidates == survivors + sum of eliminated counts.  Survivors carry a
    full attribution over every filter (not only the enabled ones) so the
    report can explain near-misses, equal to full_attribution of the
    candidate: the enabled filters, which it passed, read UNDECIDED without
    a call.  They also carry their exact distance profile; the oracle
    fields summarize those profiles.
    """

    z: int
    candidates: int
    eliminated: tuple[tuple[FilterId, int], ...]
    survivors: tuple[Survivor, ...]
    max_count: int | None
    witnesses: tuple[ScanHit, ...]


def enumerate_candidates(z: int, dedup: bool = False) -> Iterator[Candidate]:
    """All primitive interior candidates at side z, ascending (x, y).

    With dedup, exactly one canonical representative per symmetry orbit.
    """
    if z < 1:
        raise ValueError("z must be positive")
    if dedup:
        for x, rows in itertools.groupby(canonical_rows(z), key=itemgetter(0)):
            # an x's rows interleave in y; gcd(x, y, z) is gcd(g, y) with
            # g = gcd(x, z), taken once per x
            g = gcd(x, z)
            ys = sorted(itertools.chain.from_iterable(ys for _, ys in rows))
            for y in ys if g == 1 else [y for y in ys if gcd(g, y) == 1]:
                yield _new(Candidate, (x, y, z))
    else:
        for x in range(1, z):
            for y in range(1, z):
                if gcd(x, y, z) == 1:
                    yield Candidate(x, y, z)


def _side_lengths(
    z_min: int,
    z_max: int,
    mod12_only: bool,
    budget: int,
    charge: Callable[[int], int],
    region: str,
    unit: str,
) -> range:
    """The z in [z_min, z_max] (only z = 0 (mod 12) with mod12_only), once
    the work charge(z) of each, summed, is known to fit in budget."""
    if budget < 0:
        raise ValueError("budget must not be negative")
    step = 12 if mod12_only else 1
    zs = range(z_min + (-z_min) % step, z_max + 1, step)
    # stop summing at the first z over budget: a huge range is refused at once
    if any(total > budget for total in itertools.accumulate(map(charge, zs))):
        raise BudgetExceededError(
            f"{region} holds more than budget={budget} {unit}"
        )
    return zs


def _hits(z: int, min_count: int, boundary: bool) -> Iterator[tuple[int, int]]:
    """(x, y) of the points with at least min_count integer corner
    distances, ascending, over x and y in side: 1..z-1, or 0..z with
    boundary.

    A corner distance is an integer iff its vertical leg is a partner of its
    horizontal leg: at (x, y), A's iff y is a partner of x, B's iff z - y
    is, D's iff y is a partner of z - x and C's iff z - y is.  An edge
    point has a leg of length 0, and 0 is a partner of every leg: leg 0's
    partners are all of side, and every leg's include 0.  Each leg's
    partners in side are sliced once per z into a table read at x and at
    z - x.  For min_count 1 and 2 the count is the multiplicity of y among
    those four partner streams.  For min_count 3 and 4 only the shared-leg
    pairs are visited: any three corners include A and B, which share the
    leg x, or D and C, which share z - x, so y and z - y are both partners
    of x or both of z - x.  No hit is missed, and each pair's count is
    exact.  Each leg's split ys are found once per z, and an x where
    neither x nor z - x splits z is skipped.  Below 3 a hit needs no such
    pair, and the pair walk costs more there.  Every point is yielded,
    canonical or not.
    """
    side = range(0, z + 1) if boundary else range(1, z)
    if min_count == 0:
        yield from itertools.product(side, repeat=2)
        return
    # below[a]: the partners of leg a in side, ascending; in the interior
    # below[0] pads
    below = [p[:bisect_left(p, side.stop)] for p in map(pythagorean_partners, range(1, side.stop))]
    below = [side, *((0, *legs) for legs in below)] if boundary else [(), *below]
    if min_count >= 3:
        split = [[y for y in legs if z - y in legs] for legs in below]
        for x in side:
            if not split[x] and not split[z - x]:
                continue
            px, pu = below[x], below[z - x]
            # a y found under both legs is counted once
            for y in sorted({*split[x], *split[z - x]}):
                if (y in px) + (z - y in px) + (z - y in pu) + (y in pu) >= min_count:
                    yield x, y
        return
    for x in side:
        counts: dict[int, int] = {}
        for legs in (below[x], below[z - x]):
            for y in legs:
                # corners A and B of leg x, D and C of leg z - x
                counts[y] = counts.get(y, 0) + 1
                counts[z - y] = counts.get(z - y, 0) + 1
        for y in sorted(counts):
            if counts[y] >= min_count:
                yield x, y


def oracle_scan(req: ScanRequest) -> ScanReport:
    """Exhaustive scan for points with at least min_count integer corner
    distances; emits one canonical representative per orbit, ascending
    (z, x, y), each with its exact profile and orbit size.

    Each z's points, the edges too with include_boundary, come from _hits,
    which reads one per-z table of each leg's partners and, with min_count
    3 or 4, counts only the points where a shared leg splits z (its
    docstring says why no hit is missed).  An edge point's leg of length 0
    is a partner of every leg, so edges and interior share that one walk,
    and every count it yields is exact.  Of its hits, only those that
    model.is_canonical accepts (an O(1) test on x, y and z, on the closed
    square) become Candidates and are profiled.  A hit's orbit size is
    model.orbit_size, also O(1).
    """
    # the budget charges every point of the region, not the points walked
    pad = 1 if req.include_boundary else -1
    zs = _side_lengths(req.z_min, req.z_max, req.mod12_only, req.budget,
                       lambda z: (z + pad) ** 2, "scan region", "points")
    hits = []
    for z in zs:
        for x, y in _hits(z, req.min_count, req.include_boundary):
            if not is_canonical(x, y, z):
                continue
            c = _new(Candidate, (x, y, z))
            if req.primitive_only and not c.is_primitive:
                continue
            hits.append(ScanHit(c, distance_profile(c), orbit_size(c)))
    return ScanReport(req, tuple(hits))


# A row byte has one bit for each filter that a walked pair can reach, in
# FilterId order: bit 0 marks a pair on a counted line (see sieve_z) or not
# primitive, and bit i + 1 the i-th of _ROW_FILTERS, the filters from
# theorem1 on, so the lowest set bit is the first hit.  _ROW_CODE maps a
# row byte to 1 + the index of its lowest set bit: 0 for a survivor, 1 for
# a skipped pair, i + 2 for the i-th of _ROW_FILTERS.
_ROW_FILTERS = tuple(FilterId)[3:]
_ROW_CODE = bytes((b & -b).bit_length() for b in range(256))


def _walk_rows(
    z: int,
    rows: Iterator[tuple[int, range]],
    enabled: frozenset[FilterId],
    sides: Collection[int],
    diagonals: bool,
) -> tuple[bytes, list[Candidate]]:
    """The first-hit codes (see _ROW_CODE) of the pairs (x, y) of rows, row
    after row, and the survivors among them, ascending (x, y), under the
    enabled filters.  The pairs on the counted lines are skipped: those
    with x or y in sides and, with diagonals, those with y = x or y = z - x.

    A row's bytes are one little-endian int, ORed from strided slices of
    per-z tables: the one-axis bits of y (a filters.ruled_values plane per
    enabled filter, and bit 0 at sides), theorem2_marks and, for each prime
    of gcd(x, z), its multiples.  x's one-axis bits fill the row, theorem1
    sets a prefix and a suffix (theorem1_y_bounds), and the diagonals set
    bit 0 at y = x and y = z - x.
    """
    row_bit = {fid: 2 << i if fid in enabled else 0 for i, fid in enumerate(_ROW_FILTERS)}
    # the planes are 0/1 bytes, so a sum of them times distinct bits is an
    # OR; bit 0 at the counted sides is a bit no filter uses
    counted = sum(1 << 8 * v for v in sides)
    x_bits, y_bits = ((counted + sum(
        int.from_bytes(ruled_values(z, fid), "little") * row_bit[fid]
        for fid, (axis, _, _) in ONE_AXIS.items() if axis == side and row_bit[fid]
    )).to_bytes(z + 1, "little") for side in "xy")
    theorem1, theorem2 = row_bit[FilterId.THEOREM1], row_bit[FilterId.THEOREM2]
    marks = theorem2_marks(z) if theorem2 else b""
    # (p, entry y is 1 iff p divides y) for the primes p of z
    multiples = [(p, (b"\x01" + bytes(p - 1)) * (z // p + 1)) for p, _ in factorize(z)]
    # ones[n] is the row of n bytes with bit 0 set in each; a row steps by 2
    # or more through y in 1..z // 2, so none is longer than z // 4 + 1
    ones = [0]
    for _ in range(z // 4 + 1):
        ones.append(ones[-1] << 8 | 1)
    out = []
    survivors = []
    for x, ys in rows:
        start, stop, step = ys.start, ys.stop, ys.step
        n = len(ys)
        full = ones[n]
        flags = int.from_bytes(y_bits[start:stop:step], "little") | x_bits[x] * full
        if theorem1:
            lo, hi = theorem1_y_bounds(x, z)
            # the ys up to lo and the ys below hi, counted and clipped to
            # 0..n by conditional expressions (min and max cost more)
            upto_lo = (lo - start) // step + 1
            upto_lo = 0 if upto_lo < 0 else n if upto_lo > n else upto_lo
            below_hi = (hi - 1 - start) // step + 1
            below_hi = 0 if below_hi < 0 else n if below_hi > n else below_hi
            flags |= (ones[upto_lo] | full - ones[below_hi]) * theorem1
        if theorem2:
            flags |= (int.from_bytes(marks[start - x + z:stop - x + z:step], "little")
                      | int.from_bytes(marks[start + x:stop + x:step], "little")
                      ) * theorem2
        if gcd(x, z) > 1:
            for p, table in multiples:
                if x % p == 0:
                    flags |= int.from_bytes(table[start:stop:step], "little")
        if diagonals:
            for y in (x, z - x):
                if y in ys:
                    flags |= 1 << 8 * ys.index(y)
        row = flags.to_bytes(n, "little")
        i = row.find(0)
        while i >= 0:
            survivors.append(_new(Candidate, (x, ys[i], z)))
            i = row.find(0, i + 1)
        out.append(row)
    survivors.sort()  # an x's two canonical rows interleave in y
    return b"".join(out).translate(_ROW_CODE), survivors


def sieve_z(z: int, cfg: FilterConfig | None = None, mode: str = FIRST_HIT) -> SieveResult:
    """Classify every deduplicated primitive interior candidate at side z by
    the first enabled filter that rules it out; the oracle then profiles the
    survivors only.

    Only the candidates that can pass parity are visited, a row (x, ys) at
    a time: parity_rows(z) with parity enabled, every canonical row
    (model.canonical_rows) otherwise.  The rest are counted.  The total is
    candidate_count(z); boundary's first hits are the orbits on the
    midlines and diagonals, lemma3's those on the rows and columns at its
    side values, filters.lemma3_sides(z) (off boundary's lines when
    boundary is enabled), both from model.line_orbits in closed form;
    parity's are whatever neither line count nor the visit holds.  A row
    becomes one byte per pair (see _walk_rows), with a bit for each filter
    that rules the pair out and one for a skipped pair: one not primitive
    or on a counted line.  The walk and the counts read the same lines.
    The lowest set bit is the first hit, so the counts equal those of
    run_pipeline on each candidate.  Where no row is visited, no per-z
    table is built.  Only survivors become Candidates with verdicts, and a
    survivor's enabled filters read UNDECIDED without a call; no witness
    is built for an eliminated one.
    """
    if mode != FIRST_HIT:
        raise ValueError(f"unknown pipeline mode {mode!r}")
    if z < 1:
        raise ValueError("z must be positive")
    enabled = (cfg if cfg is not None else FilterConfig()).enabled
    boundary = FilterId.BOUNDARY in enabled
    lemma3 = FilterId.LEMMA3 in enabled
    parity = FilterId.PARITY_RESIDUE in enabled
    # the counted lines: boundary's diagonals and midlines, then the rows
    # and columns at lemma3's side values
    midlines = {z // 2} if boundary and z % 2 == 0 else set()
    sides = midlines | lemma3_sides(z) if lemma3 else midlines
    on_boundary = line_orbits(z, midlines, boundary)
    on_lines = line_orbits(z, sides, boundary)
    codes, found = _walk_rows(
        z, parity_rows(z) if parity else canonical_rows(z), enabled, sides, boundary,
    ) if not parity or z % 12 == 0 else (b"", [])
    total = candidate_count(z)
    # first hits in FilterId order.  The first three are 0 for a disabled
    # filter: boundary's lines are then empty, lemma3's are boundary's, and
    # with parity off every candidate is walked, each walked primitive pair
    # on no counted line having a code other than 1.
    counts = {
        FilterId.BOUNDARY: on_boundary,
        FilterId.LEMMA3: on_lines - on_boundary,
        FilterId.PARITY_RESIDUE: total - on_lines - (len(codes) - codes.count(1)),
    }
    for code, fid in enumerate(_ROW_FILTERS, start=2):
        counts[fid] = codes.count(code)
    # a survivor passed every enabled filter: only the disabled ones need a call
    survivors = [
        _new(Survivor, (c, full_attribution(c, enabled), distance_profile(c))) for c in found
    ]
    max_count = max((s.profile.integer_count for s in survivors), default=None)
    return SieveResult(
        z=z,
        candidates=total,
        eliminated=tuple(counts.items()),
        survivors=tuple(survivors),
        max_count=max_count,
        witnesses=tuple(
            ScanHit(s.candidate, s.profile, orbit_size(s.candidate))
            for s in survivors
            if s.profile.integer_count == max_count
        ),
    )


def _sieve_task(args: tuple[int, FilterConfig]) -> SieveResult:
    z, cfg = args
    try:
        return sieve_z(z, cfg)
    except Exception as exc:
        raise RuntimeError(f"sieve failed at z={z}: {exc}") from exc


def search_range(
    z_min: int,
    z_max: int,
    cfg: FilterConfig | None = None,
    workers: int = 1,
    mod12_only: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> list[SieveResult]:
    """Sieve every z in [z_min, z_max], in ascending z.

    Work is partitioned by whole z values, so results are identical for any
    worker count; a failure at any z aborts the whole range with a
    RuntimeError naming that z.  budget caps the candidates the sieve
    classifies, model.candidate_count(z) summed over the range; a range
    over budget raises BudgetExceededError before any z is sieved.
    """
    if z_min < 1 or z_min > z_max:
        raise ValueError("need 1 <= z_min <= z_max")
    if workers < 1:
        raise ValueError("workers must be positive")
    cfg = cfg if cfg is not None else FilterConfig()
    zs = _side_lengths(z_min, z_max, mod12_only, budget, candidate_count, "range",
                       "candidates")
    tasks = [(z, cfg) for z in zs]
    # at most one worker per CPU: the results are the same for any count
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [_sieve_task(t) for t in tasks]
    # imported here, not at the top: the import takes about 13 ms, which
    # every other CLI call would pay at start-up
    import multiprocessing

    with multiprocessing.Pool(workers) as pool:
        return pool.map(_sieve_task, tasks)
