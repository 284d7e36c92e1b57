"""Candidate points inside an integer-sided square and their vertex distances.

The square of side z has corners A=(0,0), B=(0,z), C=(z,z), D=(z,0); a
candidate P=(x,y) measures x to the side through A and B and y to the side
through A and D.  All reports use the fixed corner order A, B, C, D.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Collection, Iterator, NamedTuple

from .arith import factorize

CORNERS = ("A", "B", "C", "D")

# the default cap on what one search or scan may visit: the candidates of a
# sieve range (candidate_count per z), or the points of an oracle scan
DEFAULT_BUDGET = 10**9


class Candidate(NamedTuple):
    x: int
    y: int
    z: int

    @property
    def is_primitive(self) -> bool:
        return gcd(self.x, self.y, self.z) == 1


class DistanceProfile(NamedTuple):
    """Squared corner distances and their exact roots where square (A, B, C, D)."""

    squared: tuple[int, int, int, int]
    roots: tuple[int | None, int | None, int | None, int | None]

    @property
    def integer_count(self) -> int:
        return 4 - self.roots.count(None)


def _check_bounds(c: Candidate) -> None:
    if c.z < 1 or not (0 <= c.x <= c.z and 0 <= c.y <= c.z):
        raise ValueError(f"candidate {c} outside its square")


def corner_legs(c: Candidate) -> tuple[tuple[int, int], ...]:
    """Leg pairs (x,y), (x,z-y), (z-x,z-y), (z-x,y) at corners A, B, C, D."""
    _check_bounds(c)
    x, y, z = c
    return (x, y), (x, z - y), (z - x, z - y), (z - x, y)


# tuple.__new__(Cls, values) builds a NamedTuple at C speed, without the
# Python frame of the generated Cls(...); filters and search use it too
_new = tuple.__new__


def distance_profile(c: Candidate) -> DistanceProfile:
    """Exact squared distances to the four corners, with roots where square."""
    (x, y), (_, v), (u, _), _ = corner_legs(c)
    xx, yy, uu, vv = x * x, y * y, u * u, v * v
    squared = (xx + yy, xx + vv, uu + vv, uu + yy)
    roots = []
    for s in squared:
        r = isqrt(s)
        roots.append(r if r * r == s else None)
    return _new(DistanceProfile, (squared, tuple(roots)))


def orbit(c: Candidate) -> set[Candidate]:
    """Images of c under the square's symmetries (reflections and the swap)."""
    _check_bounds(c)
    x, y, z = c
    pts = set()
    for a in (x, z - x):
        for b in (y, z - y):
            pts.add((a, b))
            pts.add((b, a))
    return {_new(Candidate, (a, b, z)) for a, b in pts}


def canonicalize(c: Candidate) -> Candidate:
    """The designated orbit representative.

    Images with odd x are preferred (mirroring the normalization that the
    odd coordinate comes first); among those, the lexicographically least
    (x, y) wins.  Idempotent and constant on orbits.
    """
    return min(orbit(c), key=lambda p: (p.x % 2 == 0, p))


def is_canonical(x: int, y: int, z: int) -> bool:
    """canonicalize(Candidate(x, y, z)) == Candidate(x, y, z) for an
    interior point (0 < x < z, 0 < y < z), in O(1).

    Derived from canonicalize(): for even z the representatives are exactly
    (x odd, 2x <= z, y even, 2y <= z) plus (x, y same parity, x <= y,
    2y <= z); for odd z they are (x, y odd, x <= y, 2y < z) plus (x odd,
    y even, 2y < z, x <= z - y).  Verified against the orbit partition in
    tests.  (Same-parity pairs with x, y even are orbit representatives
    too, though never primitive when z is even.)
    """
    if z % 2:
        return 2 * y < z and x % 2 == 1 and x <= (y if y % 2 else z - y)
    return 2 * y <= z and (x <= y if x % 2 == y % 2 else x % 2 == 1 and 2 * x <= z)


def is_primitive_interior(c: Candidate) -> bool:
    """True iff 0 < x < z, 0 < y < z and gcd(x, y, z) = 1."""
    return 0 < c.x < c.z and 0 < c.y < c.z and gcd(c.x, c.y, c.z) == 1


def canonical_rows(z: int) -> Iterator[tuple[int, range]]:
    """Yield the canonical interior points of the square of side z as rows
    (x, ys), ascending in x: each ys is a step-2 range of y, and an x has
    one or two rows.  Primitivity is NOT filtered here.

    The pairs are exactly those is_canonical accepts; its docstring states
    the rule.
    """
    if z < 2:
        return
    if z % 2 == 0:
        half = z // 2
        for x in range(1, half + 1):
            yield x, range(x, half + 1, 2)
            if x % 2:
                yield x, range(2, half + 1, 2)
    else:
        ymax = (z - 1) // 2  # 2y < z
        for x in range(1, z - 1, 2):
            if x <= ymax:
                yield x, range(x, ymax + 1, 2)
            yield x, range(2, min(ymax, z - x) + 1, 2)


def candidate_count(z: int) -> int:
    """The number of primitive canonical interior points at side z, i.e. of
    symmetry orbits of primitive interior points, in closed form.

    Burnside's lemma over the square's 8 symmetries, with Moebius sums over
    the squarefree divisors d of z: the identity fixes all
    sum mu(d) (z/d - 1)**2 primitive interior points; each diagonal
    reflection fixes the points (t, t) or (t, z - t) with gcd(t, z) = 1;
    each midline reflection (z even) fixes (z/2, t) or (t, z/2) with
    gcd(t, z/2) = 1; the three rotations fix only the centre, which is
    primitive only at z = 2.
    """
    if z < 2:
        return 0
    moebius = _moebius(z)
    fixed = (sum(mu * (z // d - 1) ** 2 for d, mu in moebius)
             + 2 * _coprime_sides(z, moebius, z))
    if z % 2 == 0:
        fixed += 2 * _coprime_sides(z, moebius, z // 2)
    if z == 2:
        fixed += 3
    return fixed // 8


def line_orbits(z: int, sides: Collection[int], diagonals: bool) -> int:
    """The number of symmetry orbits of primitive interior points at side z
    with a coordinate in sides or, with diagonals, on y = x or y = z - x.
    sides must lie in 1..z-1 and hold z - v with each v.

    Burnside's lemma as in candidate_count, over the set S of those points,
    which the symmetries map onto itself.  The identity fixes all of S: the
    rows and columns at sides, less their crossings counted twice, plus the
    primitive diagonal points (t, t) and (t, z - t) with t not in sides.
    Each diagonal reflection fixes the primitive points of S on its
    diagonal, each midline reflection (z even) those on its midline, and
    the rotations fix only the centre, primitive only at z = 2.  The cost
    is O(len(sides)**2) gcds, not one test per point.
    """
    if z < 2:
        return 0
    if z == 2:  # the centre (1, 1) is the only interior point
        return int(bool(sides) or diagonals)
    moebius = _moebius(z)
    fixed = (2 * sum(_coprime_sides(z, moebius, gcd(v, z)) for v in sides)
             - sum(gcd(u, v, z) == 1 for u in sides for v in sides))
    # primitive (t, t) in S, as many as primitive (t, z - t) in S
    on_diagonal = sum(gcd(v, z) == 1 for v in sides)
    if diagonals:
        phi = _coprime_sides(z, moebius, z)
        fixed += 2 * (phi - on_diagonal)
        on_diagonal = phi
    fixed += 2 * on_diagonal
    if z % 2 == 0:
        half = z // 2  # primitive (half, t) in S, as many as primitive (t, half)
        on_midline = (_coprime_sides(z, moebius, half) if half in sides
                      else sum(gcd(v, half) == 1 for v in sides))
        fixed += 2 * on_midline
    return fixed // 8


def _moebius(z: int) -> list[tuple[int, int]]:
    """(d, mu(d)) for the squarefree divisors d of z."""
    moebius = [(1, 1)]
    for p, _ in factorize(z):
        moebius += [(d * p, -mu) for d, mu in moebius]
    return moebius


def _coprime_sides(z: int, moebius: list[tuple[int, int]], m: int) -> int:
    """The t in 1..z-1 with gcd(t, m) = 1, for m dividing z."""
    return sum(mu * (z // d - 1) for d, mu in moebius if m % d == 0)
