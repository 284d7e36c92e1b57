"""Per-z axis tables: the side values each one-axis condition rules out.

At a fixed side z, lemma3 looks at each side value on its own; theorem3,
theorem4, corollary52 and theorem6 look only at x and z - x, and theorem5
only at y and z - y.  One pass over the values 0..z with the per-value
tests of filters.py therefore marks everything these conditions rule out
at z.  The sieve and the unavailable lists read these marks instead of
testing candidates one at a time.
"""

from __future__ import annotations

from .filters import (
    FilterId,
    cor52_split,
    lemma3_divisors,
    odd_prime,
    odd_semiprime,
    theorem4_root,
    theorem5_shape,
)

_VALUE_TESTS = {
    FilterId.THEOREM3: odd_prime,
    FilterId.THEOREM4: theorem4_root,
    FilterId.THEOREM5: theorem5_shape,
    FilterId.COROLLARY52: cor52_split,
    FilterId.THEOREM6: odd_semiprime,
}

# position of each filter in FilterId order; sieve tables hold positions
POSITION = {fid: i for i, fid in enumerate(FilterId)}


def value_marks(z: int, fid: FilterId) -> bytes:
    """marks[v] == 1 iff the per-value test of fid holds for v, 0 <= v <= z.

    For lemma3 the test is membership in lemma3_divisors(z).
    """
    if fid is FilterId.LEMMA3:
        dangerous = lemma3_divisors(z)
        return bytes(v in dangerous for v in range(z + 1))
    test = _VALUE_TESTS[fid]
    return bytes(bool(test(v)) for v in range(z + 1))


def sieve_tables(
    z: int, enabled: frozenset[FilterId]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The four tables sieve_z reads at side z with the given filters enabled.

    Each holds, per side value v in 0..z, the position of the first enabled
    filter of its group that rules v out, or 0 (the boundary's position,
    which no group holds) when none does.  The groups, in order: lemma3,
    on v or z - v; theorem3 then theorem4, on x or z - x; theorem5, on y or
    z - y; corollary52 on x or z - x, then theorem6 on x and z - x together.
    """

    def first_hits(*group: tuple[FilterId, bool]) -> list[int]:
        out = [0] * (z + 1)
        # later filters first, so that an earlier one overwrites them
        for fid, needs_both in reversed(group):
            if fid not in enabled:
                continue
            marks, pos = value_marks(z, fid), POSITION[fid]
            for v in range(z + 1):
                here, mirrored = marks[v], marks[z - v]
                if (here and mirrored) if needs_both else (here or mirrored):
                    out[v] = pos
        return out

    return (
        first_hits((FilterId.LEMMA3, False)),
        first_hits((FilterId.THEOREM3, False), (FilterId.THEOREM4, False)),
        first_hits((FilterId.THEOREM5, False)),
        first_hits((FilterId.COROLLARY52, False), (FilterId.THEOREM6, True)),
    )
