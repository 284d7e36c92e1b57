"""Elimination filters: each named necessary condition a candidate must fail
to be ruled out as a point with four integer corner distances.

Every filter returns a Verdict.  An Eliminated verdict carries a witness, a
small JSON-friendly record from which the eliminating condition can be
re-derived independently (see recheck_witness).  Filters only assert that
the candidate cannot have four integer corner distances; eliminating a
known three-distance point is legitimate.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import islice
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, NamedTuple

from .arith import (
    divisors,
    factorize,
    is_prime,
    jacobi,
    prime_flags,
    prime_power_root,
    primes_upto,
    two_nonresidue_primes,
)
from .model import CORNERS, Candidate, _new, corner_legs

FIRST_HIT = "first"


class FilterId(enum.Enum):
    """Filter identifiers, in fixed evaluation (and report) order."""

    BOUNDARY = "boundary"
    LEMMA3 = "lemma3"
    PARITY_RESIDUE = "parity_residue"
    THEOREM1 = "theorem1"
    THEOREM2 = "theorem2"
    THEOREM3 = "theorem3"
    THEOREM4 = "theorem4"
    THEOREM5 = "theorem5"
    COROLLARY52 = "corollary52"
    THEOREM6 = "theorem6"

    # Enum hashes a member by its name in Python code; members are
    # singletons compared by identity, so the identity hash is equivalent
    # and keeps FilterId-keyed lookups at C speed.
    __hash__ = object.__hash__


# A FilterId.X read takes several times as long as a global read; the three
# filters that decide most candidates name their ids through these.
_BOUNDARY, _LEMMA3, _PARITY = FilterId.BOUNDARY, FilterId.LEMMA3, FilterId.PARITY_RESIDUE


class Verdict(NamedTuple):
    """Either undecided (both fields None) or eliminated by one filter."""

    filter_id: FilterId | None
    witness: dict | None

    @property
    def eliminated(self) -> bool:
        return self.filter_id is not None


UNDECIDED = Verdict(None, None)


class SharedDict(dict):
    """A dict that refuses changes, as every holder shares it; a copy is a plain dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a shared dict cannot be changed; copy it first")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return dict, (dict(self),)


class Attribution(NamedTuple):
    """(filter, verdict) pairs for one candidate, in FilterId order.

    From run_pipeline, at most the eliminating pair; from full_attribution,
    one pair per filter.
    """

    entries: tuple[tuple[FilterId, Verdict], ...]

    @property
    def eliminated_by(self) -> FilterId | None:
        for fid, verdict in self.entries:
            if verdict.filter_id is not None:
                return fid
        return None


# full_attribution of a candidate that every filter leaves undecided
ALL_UNDECIDED = Attribution(tuple((fid, UNDECIDED) for fid in FilterId))
# run_pipeline of a candidate that every enabled filter leaves undecided
_NO_HIT = Attribution(())


# The congruence and prime-power conditions (theorem2, theorem4) quantify
# over every prime p with (2/p) = -1, and Lemma 3 over every n with n and
# n*n + 4 prime.  The sieve truncates both, which only weakens elimination,
# never falsifies it.
NONRESIDUE_PRIMES = two_nonresidue_primes(100)
LEMMA3_BOUND = 10_000


class _FilterConfigFields(NamedTuple):
    enabled: frozenset[FilterId]


class FilterConfig(_FilterConfigFields):
    """Which filters run: every FilterId unless told otherwise."""

    __slots__ = ()

    def __new__(cls, enabled: Iterable[FilterId] = frozenset(FilterId)) -> FilterConfig:
        self = super().__new__(cls, frozenset(enabled))
        unknown = [f for f in self.enabled if not isinstance(f, FilterId)]
        if unknown:
            raise ValueError(f"unknown filter ids: {', '.join(sorted(map(repr, unknown)))}")
        return self

    @classmethod
    def only(cls, *filter_ids: FilterId) -> FilterConfig:
        return cls(filter_ids)


def filter_boundary(c: Candidate, cfg: FilterConfig | None = None) -> Verdict:
    """Edges, midlines and diagonals carry no four-distance point."""
    x, y, z = c
    if x == 0 or x == z or y == 0 or y == z:
        return _EDGE
    if 2 * x == z or 2 * y == z:
        return _MIDLINE
    if x == y or x + y == z:
        return _DIAGONAL
    return UNDECIDED


# The witnesses that do not depend on the candidate: one shared Verdict
# each, its witness read-only and rendered once per indent.
_EDGE, _MIDLINE, _DIAGONAL = (Verdict(_BOUNDARY, SharedDict(kind="boundary", tag=t))
                              for t in ("edge", "midline", "diagonal"))
_ONE_ODD_ONE_EVEN, _SIDE_MOD_12 = (Verdict(_PARITY, SharedDict(kind="parity", clause=t))
                                   for t in ("one_odd_one_even", "side_mod_12"))
SHARED_VERDICTS = (_EDGE, _MIDLINE, _DIAGONAL, _ONE_ODD_ONE_EVEN, _SIDE_MOD_12)


@lru_cache(maxsize=1 << 12)
def lemma3_divisors(z: int) -> frozenset[int]:
    """Divisors d of z (0 < d < z) with n = z/d <= LEMMA3_BOUND and n and
    n*n + 4 both prime."""
    out = set()
    for d in divisors(z):
        if d == z:
            continue
        n = z // d
        if n <= LEMMA3_BOUND and is_prime(n) and is_prime(n * n + 4):
            out.add(d)
    return frozenset(out)


def filter_lemma3(c: Candidate, cfg: FilterConfig | None = None) -> Verdict:
    """No side distance d may satisfy z = n*d with n and n*n + 4 both prime."""
    x, y, z = c
    dangerous = lemma3_divisors(z)
    if not (x in dangerous or y in dangerous or z - x in dangerous or z - y in dangerous):
        return UNDECIDED
    for side, d in (("x", x), ("y", y), ("z-x", z - x), ("z-y", z - y)):
        if d in dangerous:
            n = z // d
            return _new(Verdict, (_LEMMA3, {"kind": "lemma3", "side": side, "d": d, "n": n}))
    return UNDECIDED


def lemma3_sides(z: int) -> set[int]:
    """The side values v, 0 < v < z, that filter_lemma3 rules out at side z:
    each d in lemma3_divisors(z) and its reflection z - d."""
    return {v for d in lemma3_divisors(z) for v in (d, z - d)}


def parity_rows(z: int) -> Iterator[tuple[int, range]]:
    """The pairs of canonical_rows(z) that filter_parity_residue leaves
    undecided, as rows (x, ys) in ascending x, one per x.

    None unless 12 divides z.  Then z is even, so a canonical pair with one
    odd and one even coordinate has x odd, 2x < z and y even, 2y <= z; y
    must be a multiple of 4, and of 12 unless 3 divides x.
    """
    if z % 12:
        return
    half = z // 2
    for x in range(1, half, 2):
        step = 4 if x % 3 == 0 else 12
        yield x, range(step, half + 1, step)


def filter_parity_residue(c: Candidate, cfg: FilterConfig | None = None) -> Verdict:
    """Parity and residue constraints: one coordinate odd, the even one a
    multiple of 4, z a multiple of 12, and every corner owning a leg
    divisible by 3 (otherwise that squared distance is 2 mod 3).

    The clauses are tried in that order.  The mod-3 clause is reached only
    when 3 divides z.  Then the legs of every corner are congruent to
    (+-x, +-y) mod 3, so one corner lacks a leg divisible by 3 exactly when
    corner A does.
    """
    x, y, z = c
    if x % 2 == y % 2:
        return _ONE_ODD_ONE_EVEN
    even = y if x % 2 else x
    if even % 4:
        witness = {"kind": "parity", "clause": "even_coordinate_mod_4", "value": even}
    elif z % 12:
        return _SIDE_MOD_12
    elif x % 3 and y % 3:
        witness = {"kind": "parity", "clause": "corner_mod_3", "corner": "A", "legs": [x, y]}
    else:
        return UNDECIDED
    return _new(Verdict, (_PARITY, witness))


_LEG_NAMES = (("x", "y"), ("x", "z-y"), ("z-x", "z-y"), ("z-x", "y"))


def theorem1_y_bounds(x: int, z: int) -> tuple[int, int]:
    """(lo, hi) such that filter_theorem1 rules out (x, y, z) for 0 < y < z
    exactly when y <= lo or y >= hi.

    Each corner inequality a*a <= 2b bounds y on one side.  With m the
    smaller and M the larger of x and z - x, the weakest ones are
    y*y <= 2M and m*m <= 2(z - y), which hold for every y up to lo, and
    m*m <= 2y and (z - y)**2 <= 2M, which hold for every y from hi on.
    """
    # conditional expressions, not min and max: the sieve calls this per row
    m = x if 2 * x <= z else z - x
    big = isqrt(2 * (z - m))
    lo, hi = (2 * z - m * m) // 2, -(-m * m // 2)
    return (lo if lo > big else big), (hi if hi < z - big else z - big)


def filter_theorem1(c: Candidate, cfg: FilterConfig | None = None) -> Verdict:
    """At each corner with legs (a, b): a*a >= 2b+1 and b*b >= 2a+1, because
    the corner distance is an integer exceeding both legs.  The witness
    cites the first inequality broken, in corner then leg order."""
    x, y, z = c
    # a leg whose square is at least 2z - 1 exceeds twice any other leg
    if min(x, y, z - x, z - y) ** 2 >= 2 * z - 1:
        return UNDECIDED
    legs = ((x, y), (x, z - y), (z - x, z - y), (z - x, y))
    for corner, (a, b), (na, nb) in zip(CORNERS, legs, _LEG_NAMES):
        for leg, val, other in ((na, a, b), (nb, b, a)):
            if val * val < 2 * other + 1:
                return _new(Verdict, (FilterId.THEOREM1, {
                    "kind": "inequality", "corner": corner, "leg": leg,
                    "lhs": val * val, "rhs": 2 * other + 1,
                }))
    return UNDECIDED


def theorem2_marks(z: int) -> bytearray:
    """Entry d + z, for d in -z..z, is 1 iff some p in NONRESIDUE_PRIMES
    divides d.  So filter_theorem2 rules out (x, y, z) iff entry y - x + z
    (d = x - y, as the entries are symmetric) or entry x + y (d = x + y - z)
    is 1."""
    marks = bytearray(2 * z + 1)
    for p in NONRESIDUE_PRIMES:
        start = z % p
        marks[start::p] = b"\x01" * len(range(start, 2 * z + 1, p))
    return marks


def filter_theorem2(c: Candidate, cfg: FilterConfig | None = None) -> Verdict:
    """No corner's legs may be congruent mod a prime p with (2/p) = -1.

    The four corner pairs collapse to two congruences: A's legs (x, y) and
    C's legs (z - x, z - y) are congruent iff x = y (mod p), B's legs
    (x, z - y) and D's legs (z - x, y) iff x + y = z (mod p).  Legs a = b
    (mod p) with p not dividing a give a*a + b*b = 2a*a (mod p), a
    non-residue because (2/p) = -1, so that distance is not an integer.

    The witness cites A or B with its legs.  If p divides both of them, the
    paired corner (A with C, B with D) proves the claim instead: its legs
    are congruent to (z, z) mod p, and p does not divide z because the
    candidate is primitive (p would divide x, y and z).  It cites the
    smallest p that holds, and A on a tie.
    """
    x, y, z = c
    for p in NONRESIDUE_PRIMES:
        if (x - y) % p == 0:
            corner, legs = "A", [x, y]
        elif (x + y - z) % p == 0:
            corner, legs = "B", [x, z - y]
        else:
            continue
        return _new(Verdict, (
            FilterId.THEOREM2, {"kind": "congruence", "p": p, "corner": corner, "legs": legs}
        ))
    return UNDECIDED


def odd_prime(t: int) -> bool:
    """The theorem3 test: t is an odd prime."""
    return t % 2 == 1 and is_prime(t)


def _first_side(c: Candidate, fid: FilterId, witness: Callable[..., dict]) -> Verdict:
    """Side loop of a ONE_AXIS filter other than theorem6: v, c's coordinate
    on fid's axis, then z - v.  The first to pass fid's test eliminates c,
    with witness(side name, side value, test result); if neither, UNDECIDED."""
    axis, test, _ = ONE_AXIS[fid]
    v = c[0] if axis == "x" else c[1]
    for side, t in ((axis, v), ("z-" + axis, c[2] - v)):
        result = test(t)
        if result:
            return _new(Verdict, (fid, witness(side, t, result)))
    return UNDECIDED


def filter_theorem3(c: Candidate, cfg: FilterConfig | None = None) -> Verdict:
    """Neither x nor z - x may be an odd prime: an odd prime leg forces the
    even partner (p*p - 1)/2 at two corners, putting the point on a midline."""
    return _first_side(c, FilterId.THEOREM3,
                       lambda side, t, _: {"kind": "prime", "side": side, "value": t})


def theorem4_root(t: int) -> tuple[int, int] | None:
    """(p, e) with t = p**e for odd t and p in NONRESIDUE_PRIMES; otherwise None."""
    if t < 2 or t % 2 == 0:
        return None
    root = prime_power_root(t)
    return root if root is not None and root[0] in NONRESIDUE_PRIMES else None


def filter_theorem4(c: Candidate, cfg: FilterConfig | None = None) -> Verdict:
    """Neither x nor z - x may be p**e for a prime in NONRESIDUE_PRIMES."""
    return _first_side(c, FilterId.THEOREM4, lambda side, _, root: {
        "kind": "prime_power", "side": side, "p": root[0], "e": root[1]})


def shape5_prime_allowed(p: int) -> bool:
    """Fast form of the prime condition in the power-of-two shape: p % 8 != 7."""
    return p % 8 != 7


def shape5_prime_allowed_literal(p: int) -> bool:
    """Literal form: p = 1 (mod 4) or (2/p) = -1.  Ground truth for the fast
    form; their equality over odd primes is a unit test."""
    return p % 4 == 1 or jacobi(2, p) == -1


@lru_cache(maxsize=1 << 16)
def theorem5_shape(t: int) -> tuple[int, int, tuple[tuple[int, int], ...]] | None:
    """If t = 2**(h+1) * m with h >= 1, 2**h > m, and every prime factor of m
    allowed, return (h, m, factorization of m); otherwise None."""
    if t < 4 or t % 2:
        return None
    h = (t & -t).bit_length() - 2
    if h < 1:
        return None
    m = t >> (h + 1)
    if (1 << h) <= m:
        return None
    fact = factorize(m)
    if all(shape5_prime_allowed(p) for p, _ in fact):
        return h, m, fact
    return None


def filter_theorem5(c: Candidate, cfg: FilterConfig | None = None) -> Verdict:
    """Neither y nor z - y may equal 2**(h+1) * m with 2**h > m and every
    prime factor of m either 1 (mod 4) or a non-residue modulus for 2."""
    return _first_side(c, FilterId.THEOREM5, lambda target, t, shape: {
        "kind": "shape5", "target": target, "value": t, "h": shape[0], "m": shape[1],
        "m_factors": [[p, e] for p, e in shape[2]]})


@lru_cache(maxsize=1 << 16)
def cor52_split(t: int) -> tuple[int, int, int, int] | None:
    """(q1, q2, h, m) for the first split t = q1*q2 (q1 > q2 >= 1 odd, both
    non-residue moduli for 2, q2 ascending) whose (q1**2 - q2**2)/4 = 2**h * m
    passes the theorem5 shape test; None if no split does."""
    if t < 3 or t % 2 == 0:
        return None
    for q2 in divisors(t):
        q1 = t // q2
        if q1 <= q2:
            break
        if jacobi(2, q2) != -1 or jacobi(2, q1) != -1:
            continue
        # (q1*q1 - q2*q2) // 4 = 2**h * m; reuse the y-shape test on its double
        shape = theorem5_shape((q1 * q1 - q2 * q2) // 2)
        if shape is not None:
            return q1, q2, shape[0], shape[1]
    return None


def filter_cor52(c: Candidate, cfg: FilterConfig | None = None) -> Verdict:
    """Neither x nor z - x may split as q1*q2 (q1 > q2 >= 1 odd, both
    non-residue moduli for 2) with (q1**2 - q2**2)/4 passing the theorem5
    shape test; the split would force an excluded even partner."""
    return _first_side(c, FilterId.COROLLARY52, lambda target, t, split: {
        "kind": "cor52", "target": target, "value": t, **dict(zip(("q1", "q2", "h", "m"), split))})


def odd_semiprime(t: int) -> tuple[int, int] | None:
    """(p, q) with t = p*q, p > q distinct odd primes, both (2/.) = -1."""
    if t < 15 or t % 2 == 0:
        return None
    fact = factorize(t)
    if len(fact) != 2 or fact[0][1] != 1 or fact[1][1] != 1:
        return None
    q, p = fact[0][0], fact[1][0]
    if jacobi(2, p) == -1 and jacobi(2, q) == -1:
        return p, q
    return None


def filter_theorem6(c: Candidate, cfg: FilterConfig | None = None) -> Verdict:
    """x and z - x may not both be products of two distinct odd primes that
    are all non-residue moduli for 2: the forced even partners would make
    x = z - x, a midline point."""
    x, _, z = c
    first = odd_semiprime(x)
    if first is None:
        return UNDECIDED
    second = odd_semiprime(z - x)
    if second is None:
        return UNDECIDED
    witness = {"kind": "theorem6"}
    witness.update(zip(("p1", "p2", "q1", "q2"), first + second))
    return _new(Verdict, (FilterId.THEOREM6, witness))


def _odd_primes(n: int) -> bytearray:
    """theorem3: the odd primes, from one sieve."""
    passes = prime_flags(n)
    if n >= 2:
        passes[2] = 0
    return passes


def _nonresidue_prime_powers(n: int) -> bytearray:
    """theorem4: p**e for each p in NONRESIDUE_PRIMES and e >= 1."""
    passes = bytearray(n + 1)
    for p in NONRESIDUE_PRIMES:
        q = p
        while q <= n:
            passes[q] = 1
            q *= p
    return passes


def _shape5_values(n: int) -> bytearray:
    """theorem5: 2**(h+1) * m for h >= 1 and odd m < 2**h free of primes
    = 7 (mod 8)."""
    # m < 2**h and 2**(h+1) * m <= n give 2*m*m < n
    bound = isqrt(n)
    allowed = bytearray([1]) * (bound + 1)
    for p in primes_upto(bound):
        if not shape5_prime_allowed(p):
            allowed[p::p] = bytes(len(range(p, bound + 1, p)))
    passes = bytearray(n + 1)
    base = 4  # 2**(h+1), from h = 1
    while base <= n:
        # base * m for the odd m in 1..top; each h writes its own values
        top = min(base // 2 - 1, n // base)
        passes[base:base * (top + 1):2 * base] = allowed[1:top + 1:2]
        base *= 2
    return passes


def _split_pairs(qs: list[int], n: int) -> Iterator[tuple[int, int]]:
    """(q1, q2) from the ascending qs with q1 > q2 and q1 * q2 <= n."""
    for i, q2 in enumerate(qs):
        if q2 * q2 >= n:  # then q1 * q2 > n for every q1 > q2
            return
        for q1 in islice(qs, i + 1, None):
            if q1 * q2 > n:
                break
            yield q1, q2


def _cor52_values(n: int) -> bytearray:
    """corollary52: q1 * q2 with q1 > q2 both = 3 or 5 (mod 8), composites
    too, and (q1**2 - q2**2) / 2 of the theorem5 shape."""
    passes = bytearray(n + 1)
    # (2/q) = -1 exactly for the odd q = 3 or 5 (mod 8), as (2/q) depends
    # only on q mod 8
    moduli = [q for q in range(3, n // 3 + 1, 2) if q % 8 in (3, 5)]
    for q1, q2 in _split_pairs(moduli, n):
        if not passes[q1 * q2] and theorem5_shape((q1 * q1 - q2 * q2) // 2) is not None:
            passes[q1 * q2] = 1
    return passes


def _nonresidue_semiprimes(n: int) -> bytearray:
    """theorem6: the products of two distinct primes = 3 or 5 (mod 8)."""
    passes = bytearray(n + 1)
    primes = [p for p in primes_upto(n // 3) if p % 8 in (3, 5)]
    for p, q in _split_pairs(primes, n):
        passes[p * q] = 1
    return passes


# The one-axis filters whose per-value test ignores z: the axis whose side
# values each rules out, that test, and its fill.  fill(n) gives the values
# 0..n that pass the test as n + 1 bytes of 0 or 1, listed from the
# condition itself rather than by testing each value.  A side value v is
# ruled out at side z when v or z - v passes the test; for theorem6, only
# when both do.  _first_side reads the axis and test for theorem3, theorem4,
# theorem5 and corollary52; passed_values reads the fill, for ruled_values
# (the sieve's planes) and the lists report.
ONE_AXIS: dict[FilterId, tuple[str, Callable[[int], object], Callable[[int], bytearray]]] = {
    FilterId.THEOREM3: ("x", odd_prime, _odd_primes),
    FilterId.THEOREM4: ("x", theorem4_root, _nonresidue_prime_powers),
    FilterId.THEOREM5: ("y", theorem5_shape, _shape5_values),
    FilterId.COROLLARY52: ("x", cor52_split, _cor52_values),
    FilterId.THEOREM6: ("x", odd_semiprime, _nonresidue_semiprimes),
}

# Per ONE_AXIS filter: its fill up to the largest z seen in this process,
# or further.  A longer table replaces the stored one, so a reader never
# sees a part still being filled.
_PASSES: dict[FilterId, bytes] = {}


def passed_values(z: int, fid: FilterId) -> bytes:
    """Entry v, for v in 0..z, is 1 iff v passes the ONE_AXIS filter fid's
    per-value test."""
    passed = _PASSES.get(fid, b"")
    if len(passed) <= z:
        # at least doubled, so an ascending sweep of z fills O(log z) times
        passed = bytes(ONE_AXIS[fid][2](max(z, 2 * len(passed))))
        _PASSES[fid] = passed
    return passed[:z + 1]


def ruled_values(z: int, fid: FilterId) -> bytes:
    """Entry v, for v in 0..z, is 1 iff the ONE_AXIS filter fid rules out
    the side value v at side z."""
    # read big-endian, the entries 0..z give v the entry of z - v
    window = passed_values(z, fid)
    own, reflected = int.from_bytes(window, "little"), int.from_bytes(window, "big")
    ruled = own & reflected if fid is FilterId.THEOREM6 else own | reflected
    return ruled.to_bytes(z + 1, "little")


@lru_cache(maxsize=32)
def _enabled_in_order(enabled: frozenset) -> tuple[tuple[FilterId, Callable], ...]:
    return tuple((fid, _FILTERS[fid][0]) for fid in FilterId if fid in enabled)


def run_pipeline(c: Candidate, cfg: FilterConfig, mode: str = FIRST_HIT) -> Attribution:
    """Evaluate the enabled filters on a primitive interior candidate in
    FilterId order, stopping at the first elimination.  FIRST_HIT is the
    only mode."""
    if mode != FIRST_HIT:
        raise ValueError(f"unknown pipeline mode {mode!r}")
    x, y, z = c
    if not (0 < x < z and 0 < y < z and gcd(x, y, z) == 1):
        raise ValueError(f"candidate {c} is not primitive interior")
    for fid, func in _enabled_in_order(cfg.enabled):
        verdict = func(c)
        if verdict.filter_id is not None:
            return _new(Attribution, (((fid, verdict),),))
    return _NO_HIT


def full_attribution(c: Candidate, passed: frozenset[FilterId] = frozenset()) -> Attribution:
    """Every filter's verdict, whichever ran in the sieve, so that reports
    can explain near-misses of survivors.  A filter in passed is known to
    leave c undecided (the sieve's enabled filters leave its survivors so)
    and is not called; with every filter in passed, that is ALL_UNDECIDED."""
    if len(passed) == len(_FILTERS):
        return ALL_UNDECIDED
    return Attribution(tuple([
        (fid, UNDECIDED if fid in passed else func(c)) for fid, (func, _, _) in _FILTERS.items()
    ]))


def recheck_witness(c: Candidate, fid: FilterId, witness: dict) -> bool:
    """Re-derive an elimination witness from the candidate alone.

    Independent of the filter implementations: uses only arithmetic
    primitives, and the literal (not the fast) prime condition for the
    power-of-two shapes.  Witnesses may come from outside JSON, so a
    witness that is not a dict, an fid that is not a FilterId, a kind that
    is not fid's, an unknown corner, side, target or leg, and a field that
    is missing or of the wrong type all read False.  A number the check
    reads must be an int: a float or a bool that equals the right value
    reads False too, as does an even p, for which no Jacobi symbol (2/p)
    exists, and a p, e or h larger than the candidate's sides allow, which
    is refused before is_prime or a power reaches it.
    """
    try:
        _, kind, check = _FILTERS[fid]
        cited = witness.get("kind")
    except (KeyError, TypeError, AttributeError):  # fid not a FilterId, witness not a dict
        return False
    if cited != kind:
        return False
    try:
        return check(c, witness)
    except (KeyError, TypeError):
        return False


def _recheck_boundary(c: Candidate, witness: dict) -> bool:
    x, y, z = c
    return {
        "edge": x in (0, z) or y in (0, z),
        "midline": 2 * x == z or 2 * y == z,
        "diagonal": x == y or x + y == z,
    }.get(witness["tag"], False)


def _recheck_lemma3(c: Candidate, witness: dict) -> bool:
    d, n = witness["d"], witness["n"]
    return (
        type(d) is int and type(n) is int
        and _side_value(c, witness["side"]) == d
        and d >= 1
        and n * d == c.z
        and is_prime(n)
        and is_prime(n * n + 4)
    )


def _recheck_parity(c: Candidate, witness: dict) -> bool:
    x, y, z = c
    clause = witness["clause"]
    if clause == "one_odd_one_even":
        return x % 2 == y % 2
    if clause == "even_coordinate_mod_4":
        even = witness["value"]
        return type(even) is int and even in (x, y) and even % 2 == 0 and even % 4 != 0
    if clause == "side_mod_12":
        return z % 12 != 0
    if clause == "corner_mod_3":
        a, b = _legs_at(c, witness["corner"])
        return _cites_legs(witness, a, b) and a % 3 != 0 and b % 3 != 0
    return False


def _recheck_theorem1(c: Candidate, witness: dict) -> bool:
    corner, leg = witness["corner"], witness["leg"]
    a, b = _legs_at(c, corner)
    first, second = _CORNER_LEG_NAMES[corner]
    if leg == first:
        val, other = a, b
    elif leg == second:
        val, other = b, a
    else:
        return False
    lhs, rhs = witness["lhs"], witness["rhs"]
    return (
        type(lhs) is int and type(rhs) is int
        and lhs == val * val
        and rhs == 2 * other + 1
        and val * val < 2 * other + 1
    )


def _recheck_theorem2(c: Candidate, witness: dict) -> bool:
    p, corner = witness["p"], witness["corner"]
    a, b = _legs_at(c, corner)
    # p divides a nonzero a - b, so p < z; for a == b the filter cites 3.
    # A larger p is refused before is_prime reaches it.
    if not (
        type(p) is int
        and p % 2 == 1
        and 3 <= p <= max(c.z, 3)
        and _cites_legs(witness, a, b)
        and (a - b) % p == 0
        and is_prime(p)
        and jacobi(2, p) == -1
    ):
        return False
    if a % p:
        return True
    # p divides both legs, so the paired corner must carry the proof
    a, b = _legs_at(c, _PAIRED_CORNER[corner])
    return (a - b) % p == 0 and a % p != 0


def _recheck_theorem3(c: Candidate, witness: dict) -> bool:
    t = _side_value(c, witness["side"])
    return _cites_value(witness, t) and t % 2 == 1 and is_prime(t)


def _recheck_theorem4(c: Candidate, witness: dict) -> bool:
    p, e = witness["p"], witness["e"]
    side = _side_value(c, witness["side"])
    # p**e == side with p >= 3 and e >= 1 needs p <= side and e <=
    # side.bit_length(): a larger p or e is refused before is_prime(p) or
    # p**e is reached
    return (type(p) is int and type(e) is int and p % 2 == 1 and 3 <= p <= side
            and 1 <= e <= side.bit_length() and p**e == side
            and is_prime(p) and jacobi(2, p) == -1)


def _recheck_theorem5(c: Candidate, witness: dict) -> bool:
    side = _side_value(c, witness["target"])
    if not _cites_value(witness, side):
        return False
    return _recheck_shape(side, witness["h"], witness["m"], side)


def _recheck_cor52(c: Candidate, witness: dict) -> bool:
    q1, q2 = witness["q1"], witness["q2"]
    side = _side_value(c, witness["target"])
    if not _cites_value(witness, side) or type(q1) is not int or type(q2) is not int:
        return False
    if q1 * q2 != side or q1 <= q2 or q2 < 1 or q1 % 2 == 0 or q2 % 2 == 0:
        return False
    if jacobi(2, q1) != -1 or jacobi(2, q2) != -1:
        return False
    s = (q1 * q1 - q2 * q2) // 4
    return _recheck_shape(2 * s, witness["h"], witness["m"], side)


def _recheck_theorem6(c: Candidate, witness: dict) -> bool:
    x, _, z = c
    p1, p2, q1, q2 = primes = [witness[k] for k in ("p1", "p2", "q1", "q2")]
    # each factor >= 3 is at most its side: a larger one never reaches is_prime
    return (
        all(type(t) is int and t >= 3 for t in primes)
        and p1 * p2 == x
        and q1 * q2 == z - x
        and p1 != p2
        and q1 != q2
        and all(
            t % 2 and is_prime(t) and jacobi(2, t) == -1 for t in (p1, p2, q1, q2)
        )
    )


def _recheck_shape(t: int, h: int, m: int, side: int) -> bool:
    # 2**(h+1) <= side, the cited side value: for theorem5 t is side; for
    # corollary52 2**(h+1) divides q1 - q2 or q1 + q2 (the other is 2 mod 4),
    # at most q1 * q2 = side.  A larger h is refused before 1 << (h + 1) is built.
    if (type(h) is not int or type(m) is not int
            or h < 1 or m < 1 or m % 2 == 0 or h + 1 >= side.bit_length()
            or t != (1 << (h + 1)) * m or (1 << h) <= m):
        return False
    return all(shape5_prime_allowed_literal(p) for p, _ in factorize(m))


def _cites_value(witness: dict, side: int) -> bool:
    """The witness's "value" is the int side."""
    value = witness["value"]
    return type(value) is int and value == side


def _cites_legs(witness: dict, a: int, b: int) -> bool:
    """The witness's "legs" are the ints [a, b]."""
    legs = witness["legs"]
    return legs == [a, b] and type(legs[0]) is type(legs[1]) is int


# side name -> (index of its coordinate in the candidate, whether the side
# is z less that coordinate)
_SIDES = {"x": (0, False), "y": (1, False), "z-x": (0, True), "z-y": (1, True)}


def _side_value(c: Candidate, side: str) -> int:
    """The side value named side; KeyError for an unknown name."""
    i, reflected = _SIDES[side]
    return c[2] - c[i] if reflected else c[i]


_PAIRED_CORNER = {"A": "C", "C": "A", "B": "D", "D": "B"}
_CORNER_LEG_NAMES = dict(zip(CORNERS, _LEG_NAMES))


def _legs_at(c: Candidate, corner: str) -> tuple[int, int]:
    legs = corner_legs(c)
    return dict(zip(CORNERS, legs))[corner]


# Per filter, in FilterId order: the filter, the witness kind it writes
# and the check that re-derives such a witness.  The filter_* functions
# take an unused cfg only because perfbench/tracing.py still passes one;
# the pipeline calls func(c).
_FILTERS: dict[FilterId, tuple[Callable[..., Verdict], str, Callable[..., bool]]] = {
    FilterId.BOUNDARY: (filter_boundary, "boundary", _recheck_boundary),
    FilterId.LEMMA3: (filter_lemma3, "lemma3", _recheck_lemma3),
    FilterId.PARITY_RESIDUE: (filter_parity_residue, "parity", _recheck_parity),
    FilterId.THEOREM1: (filter_theorem1, "inequality", _recheck_theorem1),
    FilterId.THEOREM2: (filter_theorem2, "congruence", _recheck_theorem2),
    FilterId.THEOREM3: (filter_theorem3, "prime", _recheck_theorem3),
    FilterId.THEOREM4: (filter_theorem4, "prime_power", _recheck_theorem4),
    FilterId.THEOREM5: (filter_theorem5, "shape5", _recheck_theorem5),
    FilterId.COROLLARY52: (filter_cor52, "cor52", _recheck_cor52),
    FilterId.THEOREM6: (filter_theorem6, "theorem6", _recheck_theorem6),
}
