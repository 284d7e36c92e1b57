"""Candidate points inside an integer-sided square and their vertex distances.

The square of side z has corners A=(0,0), B=(0,z), C=(z,z), D=(z,0); a
candidate P=(x,y) measures x to the side through A and B and y to the side
through A and D.  All reports use the fixed corner order A, B, C, D.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import itemgetter
from typing import Iterator, NamedTuple

from .arith import factorize, isqrt

CORNERS = ("A", "B", "C", "D")


class Candidate(NamedTuple):
    x: int
    y: int
    z: int

    @property
    def is_interior(self) -> bool:
        return 0 < self.x < self.z and 0 < self.y < self.z

    @property
    def is_primitive(self) -> bool:
        return gcd(self.x, self.y, self.z) == 1


class DistanceProfile(NamedTuple):
    """Squared corner distances and their exact roots where square (A, B, C, D)."""

    squared: tuple[int, int, int, int]
    roots: tuple[int | None, int | None, int | None, int | None]

    @property
    def integer_count(self) -> int:
        return sum(r is not None for r in self.roots)


def _check_bounds(c: Candidate) -> None:
    if c.z < 1 or not (0 <= c.x <= c.z and 0 <= c.y <= c.z):
        raise ValueError(f"candidate {c} outside its square")


def corner_legs(c: Candidate) -> tuple[tuple[int, int], ...]:
    """Leg pairs (x,y), (x,z-y), (z-x,z-y), (z-x,y) at corners A, B, C, D."""
    _check_bounds(c)
    x, y, z = c
    return (x, y), (x, z - y), (z - x, z - y), (z - x, y)


def distance_profile(c: Candidate) -> DistanceProfile:
    """Exact squared distances to the four corners, with roots where square."""
    legs = corner_legs(c)
    squared = []
    roots = []
    for a, b in legs:
        s = a * a + b * b
        r, exact = isqrt(s)
        squared.append(s)
        roots.append(r if exact else None)
    return DistanceProfile(tuple(squared), tuple(roots))


def orbit(c: Candidate) -> set[Candidate]:
    """Images of c under the square's symmetries (reflections and the swap)."""
    _check_bounds(c)
    x, y, z = c
    pts = set()
    for a in (x, z - x):
        for b in (y, z - y):
            pts.add((a, b))
            pts.add((b, a))
    return {Candidate(a, b, z) for a, b in pts}


def canonicalize(c: Candidate) -> Candidate:
    """The designated orbit representative.

    Images with odd x are preferred (mirroring the normalization that the
    odd coordinate comes first); among those, the lexicographically least
    (x, y) wins.  Idempotent and constant on orbits.
    """
    return min(orbit(c), key=lambda p: (p.x % 2 == 0, p))


def is_primitive_interior(c: Candidate) -> bool:
    """True iff 0 < x < z, 0 < y < z and gcd(x, y, z) = 1."""
    return 0 < c.x < c.z and 0 < c.y < c.z and gcd(c.x, c.y, c.z) == 1


def canonical_rows(z: int) -> Iterator[tuple[int, range]]:
    """Yield the canonical interior points of the square of side z as rows
    (x, ys), ascending in x: each ys is a step-2 range of y, and an x has
    one or two rows.  Primitivity is NOT filtered here.

    Derived from canonicalize(): for even z the representatives are exactly
    (x odd, 2x <= z, y even, 2y <= z) plus (x, y same parity, x <= y,
    2y <= z); for odd z they are (x, y odd, x <= y, 2y < z) plus (x odd,
    y even, 2y < z, x <= z - y).  Verified against the orbit partition in
    tests.  (Same-parity pairs with x, y even are orbit representatives
    too, though never primitive when z is even.)
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


def canonical_interior_pairs(z: int) -> Iterator[tuple[int, int]]:
    """The (x, y) of canonical_rows(z), ascending in (x, y)."""
    for x, rows in itertools.groupby(canonical_rows(z), key=itemgetter(0)):
        for y in sorted(itertools.chain.from_iterable(ys for _, ys in rows)):
            yield x, y


def is_canonical(x: int, y: int, z: int) -> bool:
    """True iff canonical_rows(z) holds (x, y): the same rule,
    tested on one pair."""
    if z % 2 == 0:
        return (0 < x and 0 < y and 2 * x <= z and 2 * y <= z
                and (x % 2 > y % 2 or (x % 2 == y % 2 and x <= y)))
    return (0 < x and x % 2 == 1 and 0 < y and 2 * y < z
            and (x <= y if y % 2 else x + y <= z))


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
    moebius = [(1, 1)]
    for p, _ in factorize(z):
        moebius += [(d * p, -mu) for d, mu in moebius]

    def coprime_sides(m: int) -> int:  # t in 1..z-1 with gcd(t, m) = 1, m | z
        return sum(mu * (z // d - 1) for d, mu in moebius if m % d == 0)

    fixed = sum(mu * (z // d - 1) ** 2 for d, mu in moebius) + 2 * coprime_sides(z)
    if z % 2 == 0:
        fixed += 2 * coprime_sides(z // 2)
    if z == 2:
        fixed += 3
    return fixed // 8
