"""Filter behavior: per-filter examples, witness re-validation, the
first-hit pipeline against full attribution, configuration validation, and
the congruence-filter equivalence."""

import random
import time

import pytest

from squarepoint import filters
from squarepoint.arith import is_prime
from squarepoint.filters import (
    FIRST_HIT,
    NONRESIDUE_PRIMES,
    ONE_AXIS,
    Attribution,
    FilterConfig,
    FilterId,
    Verdict,
    filter_boundary,
    filter_cor52,
    filter_lemma3,
    filter_parity_residue,
    filter_theorem1,
    filter_theorem2,
    filter_theorem3,
    filter_theorem4,
    filter_theorem5,
    filter_theorem6,
    full_attribution,
    lemma3_divisors,
    lemma3_sides,
    parity_rows,
    recheck_witness,
    ruled_values,
    run_pipeline,
    shape5_prime_allowed,
    shape5_prime_allowed_literal,
    theorem1_y_bounds,
    theorem2_marks,
    theorem4_root,
    theorem5_shape,
)
from squarepoint.model import Candidate, canonical_rows
from squarepoint.search import enumerate_candidates
from squarepoint.selfcheck import check_first_hit

CFG = FilterConfig()


def test_boundary():
    assert filter_boundary(Candidate(0, 5, 12)).witness["tag"] == "edge"
    assert filter_boundary(Candidate(30, 14, 60)).witness["tag"] == "midline"
    assert filter_boundary(Candidate(9, 9, 60)).witness["tag"] == "diagonal"
    assert filter_boundary(Candidate(9, 51, 60)).witness["tag"] == "diagonal"
    # on a midline and a diagonal at once: midline is tried first
    assert filter_boundary(Candidate(1, 1, 2)).witness["tag"] == "midline"
    assert not filter_boundary(Candidate(7, 24, 52)).eliminated


def test_lemma3():
    v = filter_lemma3(Candidate(13, 20, 60), CFG)
    assert (v.witness["d"], v.witness["n"]) == (20, 3)
    # 40 does not divide 60; the witness comes from z - y = 20
    v = filter_lemma3(Candidate(13, 40, 60), CFG)
    assert (v.witness["side"], v.witness["d"], v.witness["n"]) == ("z-y", 20, 3)
    assert not filter_lemma3(Candidate(7, 24, 52), CFG).eliminated


def test_lemma3_bound_is_fixed():
    assert lemma3_divisors(13) == {1}  # 13 and 13**2 + 4 = 173 are prime
    # 10037 and 10037**2 + 4 are prime, but n = 10037 exceeds the bound
    assert lemma3_divisors(10037) == set()
    assert lemma3_divisors(3 * 10037) == {10037}


def test_parity_residue():
    v = filter_parity_residue(Candidate(7, 24, 52))
    assert v.witness["clause"] == "side_mod_12"
    assert not filter_parity_residue(Candidate(7, 24, 60)).eliminated
    assert filter_parity_residue(Candidate(9, 15, 60)).witness["clause"] == (
        "one_odd_one_even"
    )
    assert filter_parity_residue(Candidate(7, 26, 60)).witness["clause"] == (
        "even_coordinate_mod_4"
    )
    # 52 is not a multiple of 12 either; the mod-4 clause is tried first
    assert filter_parity_residue(Candidate(7, 26, 52)).witness == {
        "kind": "parity", "clause": "even_coordinate_mod_4", "value": 26
    }
    v = filter_parity_residue(Candidate(1, 4, 12))
    assert v.witness["clause"] == "corner_mod_3"
    assert v.witness["corner"] == "A"


def test_theorem1():
    v = filter_theorem1(Candidate(3, 40, 60))
    assert (v.witness["lhs"], v.witness["rhs"]) == (9, 81)  # first failing: corner A
    v = filter_theorem1(Candidate(7, 4, 60))
    assert (v.witness["corner"], v.witness["lhs"], v.witness["rhs"]) == ("B", 49, 113)
    assert not filter_theorem1(Candidate(25, 36, 60)).eliminated


def test_theorem2():
    v = filter_theorem2(Candidate(5, 8, 24), CFG)
    assert v.witness["p"] == 3 and v.witness["legs"] == [5, 8]
    v = filter_theorem2(Candidate(7, 24, 60), CFG)
    assert (v.witness["p"], v.witness["corner"]) == (29, "B")  # 7 + 24 - 60 = -29
    # 5 + 4 - 116 = -107 and (2/107) = -1, but 107 is above the truncation
    assert not filter_theorem2(Candidate(5, 4, 116), CFG).eliminated
    assert filter_theorem2(Candidate(11, 11, 24), CFG).eliminated
    # A holds at p = 5 (7 - 2) but B at p = 3 (7 + 2 - 60): the smaller p wins
    assert filter_theorem2(Candidate(7, 2, 60)).witness == {
        "kind": "congruence", "p": 3, "corner": "B", "legs": [7, 58]
    }


def test_theorem2_witness_paired_corner():
    # 5 divides both legs of the cited corner B = (15, 20), and PB = 25;
    # D's legs (21, 16) are congruent mod 5 and not divisible by it
    c = Candidate(15, 16, 36)
    v = filter_theorem2(c)
    assert v.witness == {"kind": "congruence", "p": 5, "corner": "B", "legs": [15, 20]}
    assert recheck_witness(c, FilterId.THEOREM2, v.witness)
    # not primitive: D's legs (15, 15) are divisible by 5 too, so no corner proves it
    forged = {"kind": "congruence", "p": 5, "corner": "B", "legs": [10, 10]}
    assert not recheck_witness(Candidate(10, 15, 25), FilterId.THEOREM2, forged)


def test_theorem2_two_congruences_equal_four_corners():
    for z in range(1, 301):
        for c in enumerate_candidates(z, dedup=True):
            x, y = c.x, c.y
            four_corners = any(
                (a - b) % p == 0
                for p in NONRESIDUE_PRIMES
                for a, b in ((x, y), (x, z - y), (z - x, z - y), (z - x, y))
            )
            assert filter_theorem2(c, CFG).eliminated == four_corners, c


def test_theorem3():
    assert filter_theorem3(Candidate(7, 2, 60)).witness["value"] == 7
    v = filter_theorem3(Candidate(49, 2, 60))
    assert (v.witness["side"], v.witness["value"]) == ("z-x", 11)
    assert not filter_theorem3(Candidate(9, 2, 60)).eliminated  # 9 = 3*3, 51 = 3*17


def test_theorem4():
    v = filter_theorem4(Candidate(27, 2, 60), CFG)
    assert (v.witness["p"], v.witness["e"]) == (3, 3)
    v = filter_theorem4(Candidate(51, 2, 60), CFG)
    assert (v.witness["side"], v.witness["p"], v.witness["e"]) == ("z-x", 3, 2)
    # 49 = 7**2 does not qualify ((2/7) = +1) but z - x = 11 does
    v = filter_theorem4(Candidate(49, 2, 60), CFG)
    assert (v.witness["side"], v.witness["p"], v.witness["e"]) == ("z-x", 11, 1)


def test_theorem5():
    v = filter_theorem5(Candidate(1, 24, 60))
    assert (v.witness["h"], v.witness["m"]) == (2, 3)
    assert not filter_theorem5(Candidate(1, 20, 60)).eliminated  # h=1, 2 < m=5
    v = filter_theorem5(Candidate(1, 12, 60))
    assert (v.witness["target"], v.witness["value"]) == ("z-y", 48)
    # powers of two alone qualify (m = 1)
    assert filter_theorem5(Candidate(1, 8, 60)).witness["m"] == 1


def test_theorem5_shape_values():
    assert theorem5_shape(24) == (2, 3, ((3, 1),))
    assert theorem5_shape(20) is None
    assert theorem5_shape(16) == (3, 1, ())
    assert theorem5_shape(6) is None  # h would be 0
    assert theorem5_shape(7) is None


def test_shape_prime_condition_forms_agree():
    for p in range(3, 10**4, 2):
        if is_prime(p):
            assert shape5_prime_allowed(p) == shape5_prime_allowed_literal(p), p


def test_cor52():
    v = filter_cor52(Candidate(15, 2, 64))
    assert (v.witness["q1"], v.witness["q2"], v.witness["h"], v.witness["m"]) == (
        5, 3, 2, 1
    )
    # 9 splits only as 9*1 ((2/1) = +1) or 3*3 (not q1 > q2); 16 - 9 = 7 is prime
    assert not filter_cor52(Candidate(9, 2, 16)).eliminated
    assert not filter_cor52(Candidate(7, 2, 16)).eliminated


def test_theorem6():
    v = filter_theorem6(Candidate(15, 2, 48))
    assert (v.witness["p1"], v.witness["p2"]) == (5, 3)
    assert (v.witness["q1"], v.witness["q2"]) == (11, 3)
    assert not filter_theorem6(Candidate(33, 2, 60)).eliminated  # 27 = 3**3
    assert not filter_theorem6(Candidate(15, 2, 64)).eliminated  # 49 = 7**2


def test_config_rejects_unknown_filter():
    with pytest.raises(ValueError, match="'theorem3'"):
        FilterConfig(enabled={"theorem3"})
    with pytest.raises(ValueError, match="'theorem9'"):
        FilterConfig.only(FilterId.THEOREM3, "theorem9")
    assert FilterConfig(enabled=[FilterId.THEOREM3]).enabled == {FilterId.THEOREM3}


def test_pipeline_requires_primitive_interior():
    with pytest.raises(ValueError):
        run_pipeline(Candidate(0, 5, 12), CFG)
    with pytest.raises(ValueError):
        run_pipeline(Candidate(14, 48, 104), CFG)
    with pytest.raises(ValueError):
        run_pipeline(Candidate(7, 24, 52), CFG, mode="bogus")
    with pytest.raises(ValueError):
        run_pipeline(Candidate(7, 24, 52), CFG, "full")


def test_pipeline_first_hit_order():
    # boundary is evaluated first, whatever else would match
    att = run_pipeline(Candidate(30, 7, 60), CFG, FIRST_HIT)
    assert att.eliminated_by is FilterId.BOUNDARY
    att = full_attribution(Candidate(7, 24, 60))
    eliminating = {fid for fid, v in att.entries if v.eliminated}
    assert FilterId.THEOREM3 in eliminating


def test_pipeline_full_verdicts_frozen_example():
    # (25, 36, 60): x = y (mod 11), x = 5**2, and z - y = 24 has the
    # power-of-two shape; nothing else applies.
    att = full_attribution(Candidate(25, 36, 60))
    eliminating = {fid for fid, v in att.entries if v.eliminated}
    assert eliminating == {FilterId.THEOREM2, FilterId.THEOREM4, FilterId.THEOREM5}


def test_pipeline_results_are_attributions_of_verdicts():
    # built by tuple.__new__, they are still the NamedTuples, fields and all;
    # z = 72 has survivors
    survivors = 0
    for c in enumerate_candidates(72, dedup=True):
        att = run_pipeline(c, CFG)
        assert type(att) is Attribution
        assert att.eliminated_by is full_attribution(c).eliminated_by, c
        survivors += att.eliminated_by is None
        for fid, v in att.entries:
            assert type(v) is Verdict and v.filter_id is fid and v.eliminated, c
    assert survivors == 2


def test_three_distance_points_may_fall():
    att = run_pipeline(Candidate(7, 24, 52), CFG, FIRST_HIT)
    assert att.eliminated_by is not None  # z = 52 is not a multiple of 12


def test_first_hit_and_full_agree():
    result = check_first_hit((36, 60, 72, 97))
    assert result.ok, result.detail


def test_prime_list_is_fixed():
    assert NONRESIDUE_PRIMES == (3, 5, 11, 13, 19, 29, 37, 43, 53, 59, 61, 67, 83)
    assert theorem4_root(83) == (83, 1)
    assert theorem4_root(107) is None  # 107 = 3 (mod 8), above the truncation


def test_witness_revalidation_moderate():
    checked = 0
    for z in range(1, 201):
        for c in enumerate_candidates(z, dedup=True):
            att = full_attribution(c)
            for fid, v in att.entries:
                if v.eliminated:
                    checked += 1
                    assert recheck_witness(c, fid, v.witness), (c, fid, v.witness)
    assert checked > 10**5


def test_recheck_rejects_forged_witnesses():
    c = Candidate(13, 20, 60)
    good = filter_lemma3(c, CFG).witness
    assert recheck_witness(c, FilterId.LEMMA3, good)
    assert not recheck_witness(c, FilterId.LEMMA3, {**good, "n": 5})
    assert not recheck_witness(c, FilterId.LEMMA3, {**good, "d": 21})
    assert not recheck_witness(
        Candidate(11, 24, 60), FilterId.THEOREM3, {"kind": "prime", "side": "x",
                                                   "value": 13}
    )
    assert not recheck_witness(c, FilterId.THEOREM5, {"kind": "shape5", "target": "y",
                                                      "value": 20, "h": 1, "m": 5})


def test_recheck_reads_malformed_witnesses_as_false():
    # witnesses may come from outside JSON: an unknown corner, side or
    # target, or a field that is missing or of the wrong type, is a failed
    # recheck, not an exception
    c = Candidate(7, 24, 52)
    malformed = [
        (FilterId.THEOREM1, {"kind": "inequality", "corner": "E", "leg": "x",
                             "lhs": 49, "rhs": 49}),
        (FilterId.THEOREM2, {"kind": "congruence", "p": 3, "corner": "Z", "legs": [7, 24]}),
        (FilterId.BOUNDARY, {"kind": "boundary"}),
        (FilterId.PARITY_RESIDUE, {"kind": "parity", "clause": "corner_mod_3",
                                   "corner": "E", "legs": [7, 24]}),
        (FilterId.THEOREM3, {"kind": "prime", "side": "w", "value": 7}),
        (FilterId.THEOREM5, {"kind": "shape5", "target": "x", "value": 24, "h": 2, "m": 3}),
        (FilterId.THEOREM6, {"kind": "theorem6", "p1": 3, "p2": 5, "q1": 3}),
        (FilterId.THEOREM2, {"kind": "congruence", "p": "3", "corner": "A", "legs": [7, 24]}),
        (FilterId.BOUNDARY, {"kind": "boundary", "tag": ["edge"]}),
    ]
    for fid, witness in malformed:
        assert recheck_witness(c, fid, witness) is False, (fid, witness)


@pytest.mark.parametrize("c, fid, witness", [
    (Candidate(7, 24, 52), FilterId.THEOREM2,
     {"kind": "congruence", "p": 2, "corner": "A", "legs": [7, 24]}),
    (Candidate(8, 3, 60), FilterId.THEOREM4,
     {"kind": "prime_power", "side": "x", "p": 2, "e": 3}),
])
def test_recheck_reads_even_p_as_false(c, fid, witness):
    # 2 is prime, but no Jacobi symbol (2/2) exists: a malformed witness,
    # not an exception
    assert recheck_witness(c, fid, witness) is False


# (candidate, filter, field, value): value equals the field of the filter's
# own witness at the candidate, but is a float or a bool, not an int
NON_INT_FIELDS = [
    (Candidate(1, 4, 12), FilterId.LEMMA3, "d", 4.0),
    (Candidate(1, 4, 12), FilterId.LEMMA3, "n", 3.0),
    (Candidate(5, 8, 96), FilterId.PARITY_RESIDUE, "legs", [5.0, 8]),
    (Candidate(5, 8, 96), FilterId.PARITY_RESIDUE, "legs", [5, 8.0]),
    (Candidate(27, 2, 60), FilterId.PARITY_RESIDUE, "value", 2.0),
    (Candidate(8, 3, 60), FilterId.THEOREM1, "lhs", 9.0),
    (Candidate(8, 3, 60), FilterId.THEOREM1, "rhs", 17.0),
    (Candidate(8, 3, 60), FilterId.THEOREM2, "p", 5.0),
    (Candidate(8, 3, 60), FilterId.THEOREM2, "legs", [8, 3.0]),
    (Candidate(7, 2, 60), FilterId.THEOREM3, "value", 7.0),
    (Candidate(27, 2, 60), FilterId.THEOREM4, "p", 3.0),
    (Candidate(27, 2, 60), FilterId.THEOREM4, "e", 3.0),
    (Candidate(3, 2, 60), FilterId.THEOREM4, "e", True),
    (Candidate(1, 24, 60), FilterId.THEOREM5, "value", 24.0),
    (Candidate(1, 24, 60), FilterId.THEOREM5, "m", 3.0),
    (Candidate(15, 2, 64), FilterId.COROLLARY52, "value", 15.0),
    (Candidate(15, 2, 64), FilterId.COROLLARY52, "q1", 5.0),
    (Candidate(15, 2, 64), FilterId.COROLLARY52, "m", True),
    (Candidate(15, 4, 48), FilterId.THEOREM6, "p1", 5.0),
    (Candidate(15, 4, 48), FilterId.THEOREM6, "q2", 3.0),
]


@pytest.mark.parametrize("c, fid, field, value", NON_INT_FIELDS)
def test_recheck_reads_non_int_fields_as_false(c, fid, field, value):
    witness = dict(full_attribution(c).entries)[fid].witness
    assert recheck_witness(c, fid, witness), (c, fid)
    assert witness[field] == value  # the same number, of another type
    assert recheck_witness(c, fid, {**witness, field: value}) is False


@pytest.mark.parametrize("witness", [None, [], "x", 5])
@pytest.mark.parametrize("fid", list(FilterId))
def test_recheck_reads_non_dict_witness_as_false(fid, witness):
    assert recheck_witness(Candidate(1, 4, 12), fid, witness) is False


def test_recheck_lemma3_reads_the_cited_side():
    # at (1, 4, 12) the lemma3 side is y = 4 = 12 / 3; x = 1, z - x = 11
    # and z - y = 8 are other sides, and "bogus" names none
    c = Candidate(1, 4, 12)
    witness = {"kind": "lemma3", "side": "y", "d": 4, "n": 3}
    assert filter_lemma3(c).witness == witness
    assert recheck_witness(c, FilterId.LEMMA3, witness)
    for side in ("bogus", "x", "z-x", "z-y", None, ["y"]):
        assert recheck_witness(c, FilterId.LEMMA3, {**witness, "side": side}) is False, side


def test_recheck_theorem1_takes_a_leg_of_the_cited_corner():
    # at (2, 1, 5) corner A has legs x = 2 and y = 1, and 1 * 1 < 2 * 2 + 1;
    # "z-y" and "z-x" are legs of other corners, and "bogus" names none
    c = Candidate(2, 1, 5)
    witness = {"kind": "inequality", "corner": "A", "leg": "y", "lhs": 1, "rhs": 5}
    assert filter_theorem1(c).witness == witness
    assert recheck_witness(c, FilterId.THEOREM1, witness)
    for leg in ("bogus", "z-y", "z-x", "x", None, ["y"]):
        assert recheck_witness(c, FilterId.THEOREM1, {**witness, "leg": leg}) is False, leg


def test_recheck_refuses_huge_exponents_in_bounded_time():
    # a valid witness bounds e and h by the side value's bit length, so a
    # forged one is refused before p**e or 1 << (h + 1) is built
    cases = [
        (Candidate(27, 2, 60), FilterId.THEOREM4, filter_theorem4, "e"),
        (Candidate(1, 24, 60), FilterId.THEOREM5, filter_theorem5, "h"),
        (Candidate(15, 2, 64), FilterId.COROLLARY52, filter_cor52, "h"),
    ]
    for c, fid, func, field in cases:
        witness = func(c).witness
        assert recheck_witness(c, fid, witness), fid
        forged = {**witness, field: 10**12}
        start = time.perf_counter()
        assert recheck_witness(c, fid, forged) is False, fid
        assert time.perf_counter() - start < 0.1, fid
        # an unknown side and a non-int exponent still read False
        side = "side" if fid is FilterId.THEOREM4 else "target"
        assert recheck_witness(c, fid, {**witness, side: "w"}) is False, fid
        assert recheck_witness(c, fid, {**witness, field: "2"}) is False, fid


def test_recheck_refuses_a_huge_p_before_testing_it(monkeypatch):
    # json.loads reads an int of up to 4,300 digits.  A valid p is at most
    # the side (theorem4: p**e == side) or below z (theorem2: p divides a
    # nonzero a - b; where a == b the filter cites 3), so a forged p of that
    # length is refused before is_prime sees it.  This one has no prime
    # factor below 41, so is_prime would spend seconds on Miller-Rabin
    def bounded_is_prime(n):
        if n > 2**64:
            raise AssertionError(f"is_prime reached a {len(str(n))}-digit n")
        return is_prime(n)

    monkeypatch.setattr(filters, "is_prime", bounded_is_prime)
    huge = 10**4299 + 7
    cases = [
        (Candidate(27, 2, 60), FilterId.THEOREM4, filter_theorem4),
        (Candidate(8, 3, 60), FilterId.THEOREM2, filter_theorem2),
        (Candidate(5, 5, 12), FilterId.THEOREM2, filter_theorem2),  # a == b at corner A
    ]
    for c, fid, func in cases:
        witness = func(c).witness
        assert recheck_witness(c, fid, witness), (c, fid)
        assert recheck_witness(c, fid, {**witness, "p": huge}) is False, (c, fid)
    # theorem6 cites four factors of x and z - x: on an edge a zero factor
    # leaves its partner unbounded, so every factor must be at least 3
    c = Candidate(15, 2, 48)
    assert recheck_witness(c, FilterId.THEOREM6, filter_theorem6(c).witness)
    for c, factors in ((Candidate(0, 5, 33), (huge, 0, 11, 3)),
                       (Candidate(15, 4, 15), (5, 3, huge, 0))):
        witness = {"kind": "theorem6", **dict(zip(("p1", "p2", "q1", "q2"), factors))}
        assert recheck_witness(c, FilterId.THEOREM6, witness) is False, c


def _one_eliminated_per_filter(z_max):
    """{fid: (c, witness)} for the first candidate each filter eliminates."""
    found = {}
    for z in range(1, z_max + 1):
        for c in enumerate_candidates(z, dedup=True):
            for fid, v in full_attribution(c).entries:
                if v.eliminated and fid not in found:
                    found[fid] = (c, v.witness)
            if len(found) == len(FilterId):
                return found
    return found


def test_recheck_dispatch_rejects_witness_under_other_ids():
    found = _one_eliminated_per_filter(120)
    assert set(found) == set(FilterId)
    for fid, (c, witness) in found.items():
        assert recheck_witness(c, fid, witness), (fid, c)
        for other in FilterId:
            if other is not fid:
                assert recheck_witness(c, other, witness) is False, (fid, other, c)
        assert recheck_witness(c, fid, {**witness, "kind": "unknown"}) is False, fid
        assert recheck_witness(c, fid, {k: v for k, v in witness.items()
                                        if k != "kind"}) is False, fid
        # an id that is not a FilterId, even one naming this filter
        for bogus in (fid.value, fid.name, None, 0, [fid.value], {}):
            assert recheck_witness(c, bogus, witness) is False, (fid, bogus)


def test_lemma3_witness_cites_first_qualifying_side():
    # every primitive interior point, not only canonical ones: on those,
    # z - y is never a lemma3 divisor
    for z in range(1, 201):
        dangerous = lemma3_divisors(z)
        for c in enumerate_candidates(z):
            x, y, _ = c
            expected = None
            for side, d in (("x", x), ("y", y), ("z-x", z - x), ("z-y", z - y)):
                if d in dangerous:
                    expected = {"kind": "lemma3", "side": side, "d": d, "n": z // d}
                    break
            assert filter_lemma3(c).witness == expected, c


def test_parity_pairs_are_the_canonical_pairs_passing_parity():
    for z in range(1, 301):
        expected = [
            p for p in sorted((x, y) for x, ys in canonical_rows(z) for y in ys)
            if not filter_parity_residue(Candidate(*p, z)).eliminated
        ]
        assert [(x, y) for x, ys in parity_rows(z) for y in ys] == expected, z


def test_theorem1_y_bounds_match_filter_theorem1_on_rows():
    # every canonical row, so every parity row too, and x > z/2 at odd z
    for z in range(2, 401):
        for x, ys in canonical_rows(z):
            lo, hi = theorem1_y_bounds(x, z)
            for y in ys:
                assert (y <= lo or y >= hi) == (
                    filter_theorem1(Candidate(x, y, z)).eliminated
                ), (x, y, z)


def test_theorem1_y_bounds_hold_off_the_canonical_rows():
    for z in range(2, 61):
        for x in range(1, z):
            lo, hi = theorem1_y_bounds(x, z)
            assert [y for y in range(1, z) if y <= lo or y >= hi] == [
                y for y in range(1, z) if filter_theorem1(Candidate(x, y, z)).eliminated
            ], (x, z)


def test_theorem2_marks_entries():
    for z in range(1, 301):
        marks = theorem2_marks(z)
        assert len(marks) == 2 * z + 1
        for d in range(-z, z + 1):
            assert marks[d + z] == any(d % p == 0 for p in NONRESIDUE_PRIMES), (d, z)


def test_theorem2_marks_row_slices_match_filter_theorem2():
    # the two strided slices the sieve reads for a row (x, ys)
    for z in range(2, 151):
        marks = theorem2_marks(z)
        for x, ys in canonical_rows(z):
            start, stop, step = ys.start, ys.stop, ys.step
            a = marks[start - x + z:stop - x + z:step]
            b = marks[start + x:stop + x:step]
            assert [p | q for p, q in zip(a, b)] == [
                filter_theorem2(Candidate(x, y, z)).eliminated for y in ys
            ], (x, ys, z)


def _reference_ruled_values(z, fid):
    """ruled_values as one set comprehension per filter and z, every value tested."""
    test = ONE_AXIS[fid][1]
    passed = {v for v in range(z + 1) if test(v)}
    reflected = {z - v for v in passed}
    ruled_out = passed & reflected if fid is FilterId.THEOREM6 else passed | reflected
    return bytes(v in ruled_out for v in range(z + 1))


def test_ruled_values_match_reference_in_any_call_order(monkeypatch):
    # the value tables grow with the largest z asked so far: from empty
    # tables, ascending order (the hunt's) refills them each time z passes
    # their length, descending order fills them at once and shuffled order
    # makes them grow between reads
    assert len(ONE_AXIS) == 5
    zs = list(range(1, 301))
    rng = random.Random(13)
    shuffled = rng.sample(zs, len(zs))
    for order in (zs, zs[::-1], shuffled):
        monkeypatch.setattr(filters, "_PASSES", {})
        for z in order:
            for fid in ONE_AXIS:
                assert ruled_values(z, fid) == _reference_ruled_values(z, fid), (z, fid)


# Table lengths at the edges of the enumerations: every n up to 64, then the
# powers of 2 (theorem5's 2**(h+1)), of 3 and 5 (theorem4's p**e) and the
# squares (theorem5's and corollary52's square-root bounds) each with its
# neighbours, and n = 3 * q for q = 3 or 5 (mod 8) (the bound n // 3 on a
# factor of corollary52 and theorem6).
ENUMERATION_BOUND = 20_000
EDGE_LENGTHS = sorted({
    n + d
    for n in [*range(65), *(2**k for k in range(15)), *(3**k for k in range(10)),
              *(5**k for k in range(7)), *(k * k for k in range(142)),
              *(3 * q for q in (3, 5, 11, 13, 19, 6659, 6661))]
    for d in (-1, 0, 1)
    if 0 <= n + d <= ENUMERATION_BOUND
} | {ENUMERATION_BOUND})


@pytest.mark.parametrize("fid", list(ONE_AXIS))
def test_enumerated_tables_match_per_value_tests(fid):
    # each table is listed from its condition's structure; its per-value
    # test, the filter's definition, is applied here to every v
    _, test, fill = ONE_AXIS[fid]
    reference = bytes(bool(test(v)) for v in range(ENUMERATION_BOUND + 1))
    for n in EDGE_LENGTHS:
        assert fill(n) == reference[:n + 1], (fid, n)


def test_lemma3_sides_match_filter_lemma3():
    # the sieve reads only d <= z/2 as a coordinate, so it cannot see the
    # reflection z - d; the side values are checked here on their own
    for z in range(1, 2001):
        assert lemma3_sides(z) == {
            v for v in range(1, z) if filter_lemma3(Candidate(v, v, z)).eliminated
        }, z
