"""Unavailable-value lists and the three serialization formats."""

import copy
import enum
import json
import math
import pickle
import random
import time

import pytest
from hypothesis import given, strategies as st

from squarepoint import filters, model, report, search
from squarepoint.filters import (
    ALL_UNDECIDED,
    ONE_AXIS,
    SHARED_VERDICTS,
    UNDECIDED,
    Attribution,
    FilterConfig,
    FilterId,
    Verdict,
    filter_lemma3,
    filter_theorem3,
    filter_theorem4,
    filter_theorem5,
    run_pipeline,
)
from squarepoint.model import CORNERS, Candidate, DistanceProfile, distance_profile
from squarepoint.report import UnavailableLists, ValueLists, serialize, unavailable_lists
from squarepoint.search import (
    ScanHit,
    ScanReport,
    ScanRequest,
    SieveResult,
    Survivor,
    oracle_scan,
    search_range,
    sieve_z,
)
from squarepoint.selfcheck import check_z60_lists

# ---------------------------------------------------------------------------
# readers of the JSON output, the reference its round trips are checked by


def _load(data: bytes | str | dict) -> dict:
    return data if isinstance(data, dict) else json.loads(data)


def _attribution_from_list(entries: list[dict]) -> Attribution:
    parsed = []
    for entry in entries:
        fid = FilterId(entry["filter"])
        verdict = Verdict(fid, entry["witness"]) if entry["eliminated"] else UNDECIDED
        parsed.append((fid, verdict))
    return Attribution(tuple(parsed))


def parse_sieve_result(data: bytes | str | dict) -> SieveResult:
    obj = _load(data)
    z = obj["z"]
    survivors = []
    for s in obj["survivors"]:
        c = Candidate(s["x"], s["y"], z)
        attribution = _attribution_from_list(s["attribution"])
        survivors.append(Survivor(c, attribution, distance_profile(c)))
    return SieveResult(
        z=z,
        candidates=obj["totals"]["candidates"],
        eliminated=tuple(
            (FilterId(name), n) for name, n in obj["totals"]["eliminated"].items()
        ),
        survivors=tuple(survivors),
        max_count=obj["oracle"]["max_count"],
        witnesses=tuple(_hit_from_dict(w) for w in obj["oracle"]["witnesses"]),
    )


def _hit_from_dict(data: dict) -> ScanHit:
    c = Candidate(data["x"], data["y"], data["z"])
    profile = DistanceProfile(
        tuple(data["squared"][k] for k in CORNERS),
        tuple(data["roots"][k] for k in CORNERS),
    )
    return ScanHit(c, profile, data["orbit"])


def parse_scan_report(data: bytes | str | dict) -> ScanReport:
    obj = _load(data)
    return ScanReport(
        ScanRequest(**obj["request"]),
        tuple(_hit_from_dict(h) for h in obj["hits"]),
    )


def parse_unavailable_lists(data: bytes | str | dict) -> UnavailableLists:
    obj = _load(data)
    lists = {
        name: ValueLists(tuple(vl["direct"]), tuple(vl["combined"]))
        for name, vl in obj["lists"].items()
    }
    return UnavailableLists(
        z=obj["z"],
        theorem3_x=lists["theorem3"],
        theorem4_x=lists["theorem4"],
        theorem5_y=lists["theorem5"],
        lemma3_y=lists["lemma3"],
    )


def parse_search_results(data: bytes | str) -> list[SieveResult]:
    obj = _load(data)
    return [parse_sieve_result(entry) for entry in obj["results"]]


# ---------------------------------------------------------------------------


def test_z60_golden_lists():
    result = check_z60_lists()
    assert result.ok, result.detail


def test_lists_require_even_z():
    with pytest.raises(ValueError):
        unavailable_lists(61)
    with pytest.raises(ValueError):
        unavailable_lists(0)


def test_lists_sorted_dedup_and_parity():
    for z in (12, 48, 60, 88, 120, 180):
        lists = unavailable_lists(z)
        for vl, parity in (
            (lists.theorem3_x, 1), (lists.theorem4_x, 1),
            (lists.theorem5_y, 0), (lists.lemma3_y, 0),
        ):
            for seq in (vl.direct, vl.combined):
                assert list(seq) == sorted(set(seq))
                assert all(v % 2 == parity for v in seq)
            assert set(vl.combined) == set(vl.direct) | {z - v for v in vl.direct}


def _lists_from_filter(func, z, values, axis):
    """(direct, combined) values v the filter rules out at (v, 2, z) for
    axis "x" or (1, v, z) for "y": all of them, and those whose witness
    cites v itself rather than z - v.  The other coordinate is fixed, so a
    filter that reads the wrong axis gives another list."""
    direct, combined = [], []
    for v in values:
        verdict = func(Candidate(v, 2, z) if axis == "x" else Candidate(1, v, z))
        if verdict.eliminated:
            combined.append(v)
            if verdict.witness.get("side", verdict.witness.get("target")) in ("x", "y"):
                direct.append(v)
    return tuple(direct), tuple(combined)


def test_lists_match_filters():
    for z in range(2, 201, 2):
        lists = unavailable_lists(z)
        odd, even = range(1, z, 2), range(2, z, 2)
        assert lists.theorem3_x == _lists_from_filter(filter_theorem3, z, odd, "x"), z
        assert lists.theorem4_x == _lists_from_filter(filter_theorem4, z, odd, "x"), z
        assert lists.theorem5_y == _lists_from_filter(filter_theorem5, z, even, "y"), z
        t5 = set(lists.theorem5_y.combined)
        l3 = [tuple(v for v in vs if v not in t5)
              for vs in _lists_from_filter(filter_lemma3, z, even, "y")]
        assert lists.lemma3_y == tuple(l3), z


def test_lists_read_the_pass_tables(monkeypatch):
    # the direct lists come from the filled tables, so no per-value test runs
    expected = unavailable_lists(2400)

    def refuse(v):
        raise AssertionError(f"per-value test called on {v}")

    for fid, (axis, _, fill) in ONE_AXIS.items():
        monkeypatch.setitem(ONE_AXIS, fid, (axis, refuse, fill))
    monkeypatch.setattr(filters, "_PASSES", {})
    assert unavailable_lists(2400) == expected


def test_json_roundtrips():
    r60 = sieve_z(60)
    assert parse_sieve_result(serialize(r60)) == r60
    r72 = sieve_z(72)  # has survivors with attributions and witnesses
    assert parse_sieve_result(serialize(r72)) == r72
    scan = oracle_scan(ScanRequest(z_min=1, z_max=60, min_count=3))
    assert parse_scan_report(serialize(scan)) == scan
    lists = unavailable_lists(60)
    assert parse_unavailable_lists(serialize(lists)) == lists
    results = search_range(12, 36)
    assert parse_search_results(serialize(results)) == results


def test_json_roundtrip_randomized_sieves():
    rng = random.Random(99)
    ids = tuple(FilterId)
    for _ in range(1000):
        z = rng.randrange(2, 61)
        enabled = frozenset(
            fid for fid in ids if rng.random() < 0.7
        ) or frozenset({FilterId.BOUNDARY})
        cfg = FilterConfig(enabled=enabled)
        result = sieve_z(z, cfg)
        assert parse_sieve_result(serialize(result)) == result


def test_sieve_json_shape():
    data = json.loads(serialize(sieve_z(60)).decode())
    assert data["z"] == 60
    assert data["survivors"] == []
    assert data["totals"]["survivors"] == 0
    assert data["totals"]["candidates"] == 292
    assert set(data["totals"]["eliminated"]) == {f.value for f in FilterId}
    assert data["oracle"] == {"max_count": None, "witnesses": []}


def test_csv_scan_row_golden():
    scan = oracle_scan(ScanRequest(z_min=52, z_max=52, min_count=3))
    text = serialize(scan, "csv").decode()
    assert text.splitlines() == [
        "z,x,y,verdict,filter_id,detail",
        "52,7,24,3,,A=25;B=-;C=53;D=51",
    ]


def test_csv_empty_scan_is_header_only():
    scan = oracle_scan(ScanRequest(z_min=1, z_max=10, min_count=4))
    assert serialize(scan, "csv").decode() == "z,x,y,verdict,filter_id,detail\n"


def test_csv_lists_rows():
    rows = serialize(unavailable_lists(60), "csv").decode().splitlines()
    assert "60,,20,unavailable,lemma3,direct" in rows
    assert "60,,40,unavailable,lemma3,reflected" in rows
    assert "60,3,,unavailable,theorem3,direct" in rows
    assert "60,49,,unavailable,theorem3,reflected" in rows


def test_csv_lists_in_bounded_time():
    # a value's direct-or-reflected tag is a set lookup: over tuples, the
    # CSV of z = 100,000 took seconds
    lists = unavailable_lists(100_000)
    start = time.perf_counter()
    serialize(lists, "csv")
    assert time.perf_counter() - start < 0.25


def test_text_rendering():
    text = serialize(unavailable_lists(60), "text").decode()
    assert "theorem5 (Theorem 5), y, direct:   4 8 16 24 32 48" in text
    assert "lemma3 (Lemma 3), y, combined: 20 40" in text
    sieve_text = serialize(sieve_z(60), "text").decode()
    assert "survivors: 0" in sieve_text


def test_serialize_rejects_unknown_format():
    with pytest.raises(ValueError):
        serialize(sieve_z(12), "yaml")
    with pytest.raises(TypeError):
        serialize(object())


@pytest.mark.parametrize("fmt", report.FORMATS)
def test_serialize_range_rejects_other_items(fmt):
    # a plain list or tuple is a range of SieveResults: any other item is
    # refused by its type, not failed on a field it lacks
    for bad, name in (([Candidate(3, 4, 5)], "Candidate"), ((1, 2), "int"), ([None], "NoneType")):
        with pytest.raises(TypeError, match=name):
            serialize(bad, fmt)
    empty = {"json": b'{\n  "results": []\n}\n', "csv": b"z,x,y,verdict,filter_id,detail\n",
             "text": b""}[fmt]
    assert serialize((), fmt) == serialize([], fmt) == empty


def _write(tree) -> str:
    out = []
    report._write_json(tree, out, "\n")
    return "".join(out)


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


# quote, backslash, control and non-ASCII characters, besides any text
_json_strings = st.text() | st.text(
    st.sampled_from('a"\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600')
)
# subclasses of the JSON types miss the writer's exact-type branches
_json_keys = _json_strings | _json_strings.map(_Str)
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.sampled_from(_Level)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | _json_keys
)
_json_trees = st.recursive(
    _json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(inner, max_size=4).map(_List)
        | st.dictionaries(_json_keys, inner, max_size=4)
        | st.dictionaries(_json_keys, inner, max_size=4).map(_Dict)
    ),
    max_leaves=30,
)


@given(_json_trees)
def test_json_writer_matches_stdlib(tree):
    assert _write(tree) == json.dumps(tree, indent=2)


def test_json_writer_shared_texts_match_stdlib():
    # the shared all-UNDECIDED list and shared witnesses, in the values the
    # writer hands to json.dumps whole, at the top level and one level down;
    # the second pass reads the texts kept per indent
    shared = report._attribution_writer()(ALL_UNDECIDED)
    witnesses = [v.witness for v in SHARED_VERDICTS]
    for holder in (tuple, _List):
        value = holder([shared, witnesses[0], [shared, witnesses[-1]]])
        for tree in (value, {"a": [value, *witnesses, shared]}):
            for _ in range(2):
                assert _write(tree) == json.dumps(tree, indent=2)


def test_json_matches_stdlib_per_payload():
    def as_range(rs):
        return {"results": [report.sieve_result_to_dict(r) for r in rs]}

    cases = [
        (Candidate(7, 24, 52), report._candidate_to_dict),
        (sieve_z(72), report.sieve_result_to_dict),
        (search_range(1, 150), as_range),
        # a tuple of results is a range too; a lone SieveResult or ScanReport is not
        (tuple(search_range(1, 60)), as_range),
        (oracle_scan(ScanRequest(z_min=1, z_max=120, min_count=2)),
         report.scan_report_to_dict),
        (unavailable_lists(60), report.unavailable_to_dict),
    ]
    # survivors under a partial config carry the disabled filters' witnesses
    # next to the reused UNDECIDED entries, at the top level and in a range
    only3 = FilterConfig.only(FilterId.THEOREM3)
    single = sieve_z(120, only3)
    parsed = parse_sieve_result(serialize(single))
    cases += [
        (single, report.sieve_result_to_dict),
        (search_range(1, 60, only3), as_range),
        (parsed, report.sieve_result_to_dict),
    ]
    for payload, to_dict in cases:
        expected = json.dumps(to_dict(payload), indent=2) + "\n"
        assert serialize(payload, "json") == expected.encode("utf-8")
    # the parser's UNDECIDED verdicts take the same path to the same bytes
    assert serialize(parsed) == serialize(single)


# every way to change a dict in place
EDITS = [
    lambda e: e.__setitem__("witness", {"kind": "edited"}),
    lambda e: e.update(eliminated=True),
    lambda e: e.setdefault("note", 1),
    lambda e: e.__ior__({"note": 1}),
    lambda e: e.pop("witness"),
    lambda e: e.__delitem__("filter"),
    lambda e: e.popitem(),
    lambda e: e.clear(),
]


# every way to change a list in place
_EDITED = {"filter": "edited", "eliminated": True, "witness": None}
LIST_EDITS = [
    lambda a: a.append(_EDITED),
    lambda a: a.__setitem__(0, _EDITED),
    lambda a: a.__setitem__(slice(0, 2), [_EDITED]),
    lambda a: a.extend([_EDITED]),
    lambda a: a.insert(0, _EDITED),
    lambda a: a.sort(key=id),
    lambda a: a.reverse(),
    lambda a: a.__iadd__([_EDITED]),
    lambda a: a.__imul__(2),
    lambda a: a.__delitem__(0),
    lambda a: a.pop(),
    lambda a: a.remove(a[0]),
    lambda a: a.clear(),
]


def test_edit_of_one_tree_reaches_no_other():
    tree = report.sieve_result_to_dict(sieve_z(240))
    attribution = tree["survivors"][0]["attribution"]
    # every survivor at z = 240 passed every filter: they share one list
    assert all(s["attribution"] is attribution for s in tree["survivors"])
    # shared by value, not identity: so do the survivors of a pickle round
    # trip, as from a worker process, and those of a sieve with parity
    # disabled that every filter leaves undecided, which are the survivors
    # above
    no_parity = FilterConfig(set(FilterId) - {FilterId.PARITY_RESIDUE})
    for result in (pickle.loads(pickle.dumps(sieve_z(240))), sieve_z(240, no_parity)):
        passed = [s for s in report.sieve_result_to_dict(result)["survivors"]
                  if not any(e["eliminated"] for e in s["attribution"])]
        assert [(s["x"], s["y"]) for s in passed] == [(s["x"], s["y"]) for s in tree["survivors"]]
        assert all(s["attribution"] is attribution for s in passed)
    entry = attribution[0]
    for edit in EDITS:
        try:
            edit(entry)
        except TypeError:
            pass  # refusing the edit is one way to keep it local
    for edit in LIST_EDITS:
        try:
            edit(attribution)
        except TypeError:
            pass
    try:
        tree["survivors"][1]["attribution"] += [_EDITED]
    except TypeError:
        pass
    result = sieve_z(228)
    fresh = report.sieve_result_to_dict(result)
    assert len(fresh["survivors"]) == 14
    undecided = [{"filter": fid.value, "eliminated": False, "witness": None} for fid in FilterId]
    for s in fresh["survivors"]:
        assert s["attribution"] == undecided
    assert serialize(result, "json") == (json.dumps(fresh, indent=2) + "\n").encode("utf-8")
    # a copy of a tree is the caller's own to change
    copied = copy.deepcopy(fresh)
    copied["survivors"][0]["attribution"][0]["witness"] = {"kind": "edited"}
    copied["survivors"][1]["attribution"].append(_EDITED)
    assert serialize(result, "json") == (json.dumps(fresh, indent=2) + "\n").encode("utf-8")
    # so is a copy of the shared list, down to its entries
    shared = fresh["survivors"][0]["attribution"]
    for copied in (copy.deepcopy(shared), pickle.loads(pickle.dumps(shared))):
        assert type(copied) is list and copied == undecided
        assert all(type(e) is dict for e in copied)


def test_shared_witness_refuses_every_edit():
    # the witnesses that do not depend on the candidate, as run_pipeline
    # gives them (an edge is never interior)
    literals = [
        {"kind": "boundary", "tag": "midline"},
        {"kind": "boundary", "tag": "diagonal"},
        {"kind": "parity", "clause": "one_odd_one_even"},
        {"kind": "parity", "clause": "side_mod_12"},
    ]
    found = {}  # literal index: [(candidate, verdict)]
    for c in search.enumerate_candidates(52, dedup=True):
        for _, verdict in run_pipeline(c, FilterConfig()).entries:
            if verdict.witness in literals:
                found.setdefault(literals.index(verdict.witness), []).append((c, verdict))
    assert sorted(found) == list(range(len(literals)))
    for i, hits in found.items():
        literal = literals[i]
        # every candidate failing the clause at one z gets the one Verdict
        assert len(hits) > 1 and all(v is hits[0][1] for _, v in hits), literal
        for edit in EDITS:
            with pytest.raises(TypeError):
                edit(hits[0][1].witness)
        c = hits[-1][0]
        witness = run_pipeline(c, FilterConfig()).entries[0][1].witness
        assert witness == literal
        for copied in (pickle.loads(pickle.dumps(witness)), copy.deepcopy(witness)):
            assert type(copied) is dict and copied == literal


def test_json_writer_rejects_other_types():
    for bad in ({1, 2}, {"a": [frozenset()]}, b"bytes", object()):
        with pytest.raises(TypeError):
            _write(bad)
    # a key that is not a str is json.dumps's text, as in any other dict
    for tree in ({1: "a"}, ({1: "a"},), {True: 1}, {"k": [{"b": 1, 2: None}]}):
        assert _write(tree) == json.dumps(tree, indent=2)


def test_deterministic_bytes():
    a = serialize(sieve_z(96))
    b = serialize(sieve_z(96))
    assert a == b


def test_each_survivor_profiled_once(monkeypatch):
    calls = []

    def counting_profile(c):
        calls.append(c)
        return model.distance_profile(c)

    monkeypatch.setattr(search, "distance_profile", counting_profile)
    monkeypatch.setattr(report, "distance_profile", counting_profile)
    result = sieve_z(120, FilterConfig.only(FilterId.THEOREM3))
    for fmt in ("json", "csv", "text"):
        serialize(result, fmt)
    assert len(result.survivors) == 407
    assert len(calls) <= 407
