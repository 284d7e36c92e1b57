"""Candidate geometry: corner legs, distance profiles, orbits, canonical forms."""

import random

import pytest
from hypothesis import given, strategies as st

from squarepoint.arith import isqrt
from squarepoint.model import (
    Candidate,
    canonical_rows,
    canonicalize,
    corner_legs,
    distance_profile,
    is_canonical,
    is_primitive_interior,
    orbit,
)


def random_candidate(rng, z_max=400):
    z = rng.randrange(1, z_max + 1)
    return Candidate(rng.randrange(0, z + 1), rng.randrange(0, z + 1), z)


candidates = st.builds(
    lambda z, fx, fy: Candidate(round(fx * z), round(fy * z), z),
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)


def test_corner_legs_examples():
    assert corner_legs(Candidate(7, 24, 52)) == ((7, 24), (7, 28), (45, 28), (45, 24))
    assert corner_legs(Candidate(0, 0, 9)) == ((0, 0), (0, 9), (9, 9), (9, 0))
    assert corner_legs(Candidate(30, 30, 60)) == (
        (30, 30), (30, 30), (30, 30), (30, 30)
    )


def test_corner_legs_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        corner_legs(Candidate(5, 1, 4))
    with pytest.raises(ValueError):
        corner_legs(Candidate(-1, 0, 4))


def test_distance_profile_examples():
    p = distance_profile(Candidate(7, 24, 52))
    assert p.squared == (625, 833, 2809, 2601)
    assert p.roots == (25, None, 53, 51)
    assert p.integer_count == 3

    p = distance_profile(Candidate(297, 304, 700))
    assert p.roots == (425, 495, 565, None)
    assert p.squared[3] == 254825
    assert p.integer_count == 3

    p = distance_profile(Candidate(0, 0, 1))
    assert p.roots == (0, 1, None, 1)
    assert p.squared == (0, 1, 2, 1)
    assert p.integer_count == 3


def test_orbit_examples():
    o = {(c.x, c.y) for c in orbit(Candidate(7, 24, 52))}
    assert len(o) == 8
    assert {(45, 24), (24, 7), (28, 45)} <= o
    assert orbit(Candidate(30, 30, 60)) == {Candidate(30, 30, 60)}
    assert orbit(Candidate(0, 0, 1)) == {
        Candidate(0, 0, 1), Candidate(0, 1, 1), Candidate(1, 0, 1), Candidate(1, 1, 1)
    }


def test_canonicalize_examples():
    assert canonicalize(Candidate(45, 24, 52)) == Candidate(7, 24, 52)
    assert canonicalize(Candidate(24, 7, 52)) == Candidate(7, 24, 52)
    assert canonicalize(Candidate(7, 24, 52)) == Candidate(7, 24, 52)


def test_is_primitive_interior():
    assert is_primitive_interior(Candidate(7, 24, 52))
    assert not is_primitive_interior(Candidate(14, 48, 104))  # common factor 2
    assert not is_primitive_interior(Candidate(0, 5, 12))  # on an edge


def test_profile_invariant_on_orbit():
    rng = random.Random(1)
    for _ in range(10**4):
        c = random_candidate(rng)
        reference = sorted(distance_profile(c).squared)
        for image in orbit(c):
            assert sorted(distance_profile(image).squared) == reference


def test_canonicalize_idempotent_and_orbit_invariant():
    rng = random.Random(2)
    for _ in range(10**4):
        c = random_candidate(rng)
        canon = canonicalize(c)
        assert canon in orbit(c)
        assert canonicalize(canon) == canon
        for image in orbit(c):
            assert canonicalize(image) == canon


def test_canonical_prefers_odd_x():
    rng = random.Random(3)
    for _ in range(2000):
        c = random_candidate(rng)
        canon = canonicalize(c)
        if any(img.x % 2 for img in orbit(c)):
            assert canon.x % 2 == 1


@given(candidates)
def test_orbit_closure_and_count_invariance(c):
    images = orbit(c)
    assert c in images
    assert len(images) <= 8
    counts = {distance_profile(i).integer_count for i in images}
    assert len(counts) == 1


def test_integer_count_matches_naive_recount():
    rng = random.Random(4)
    for _ in range(5000):
        c = random_candidate(rng)
        profile = distance_profile(c)
        naive = sum(isqrt(a * a + b * b)[1] for a, b in corner_legs(c))
        assert profile.integer_count == naive


def test_canonical_interior_pairs_matches_orbit_partition():
    """The O(1) canonical test and the direct canonical enumeration agree
    with brute-force orbits at every interior point, primitive or not."""
    for z in range(1, 80):
        expected = set()
        for x in range(1, z):
            for y in range(1, z):
                c = Candidate(x, y, z)
                canonical = canonicalize(c) == c
                assert is_canonical(x, y, z) == canonical, c
                if canonical:
                    expected.add((x, y))
        got = sorted((x, y) for x, ys in canonical_rows(z) for y in ys)
        assert len(got) == len(set(got)), z
        assert set(got) == expected, z
