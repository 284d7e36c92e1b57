"""Serialization of sieve, scan and list results (json, csv, text), plus the
per-z lists of values the filters rule out for x and y, read from
filters.ruled_values and filters.lemma3_sides.

Output is deterministic: identical inputs give identical bytes.  JSON
round-trips losslessly through the parse_* functions; unknown or
inapplicable CSV cells are empty strings.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .filters import (
    ALL_UNDECIDED,
    ONE_AXIS,
    UNDECIDED,
    Attribution,
    FilterId,
    SharedDict,
    Verdict,
    lemma3_divisors,
    lemma3_sides,
    ruled_values,
)
from .model import CORNERS, Candidate, DistanceProfile, distance_profile
from .search import ScanHit, ScanReport, ScanRequest, SieveResult, Survivor

FORMATS = ("json", "csv", "text")

# human labels for the text renderer, for traceability of each list
_SOURCE_LABELS = {
    FilterId.LEMMA3: "Lemma 3",
    FilterId.THEOREM3: "Theorem 3",
    FilterId.THEOREM4: "Theorem 4",
    FilterId.THEOREM5: "Theorem 5",
}


class ValueLists(NamedTuple):
    direct: tuple[int, ...]
    combined: tuple[int, ...]


@dataclass(frozen=True)
class UnavailableLists:
    """Values of x and y ruled out at side z, per source filter.

    Each combined list holds the values 1..z-1 that the filter rules out,
    so v and z - v together; the direct list keeps those that pass the
    filter's own per-value test.  The x lists hold odd values, the y lists
    even values.  The lemma3 list keeps only values the theorem5 shape did
    not already rule out, matching how the two conditions divide the work
    at z = 60.
    """

    z: int
    theorem3_x: ValueLists
    theorem4_x: ValueLists
    theorem5_y: ValueLists
    lemma3_y: ValueLists


def unavailable_lists(z: int) -> UnavailableLists:
    if z < 2 or z % 2:
        raise ValueError("unavailable lists are defined for even z >= 2")

    def lists(fid: FilterId) -> ValueLists:
        combined = tuple(itertools.compress(range(1, z), ruled_values(z, fid)[1:z]))
        return ValueLists(tuple(filter(ONE_AXIS[fid][1], combined)), combined)

    theorem5 = lists(FilterId.THEOREM5)
    lemma3 = tuple(sorted(lemma3_sides(z).difference(theorem5.combined)))
    direct = tuple(v for v in lemma3 if v in lemma3_divisors(z))
    return UnavailableLists(z=z, theorem3_x=lists(FilterId.THEOREM3),
                            theorem4_x=lists(FilterId.THEOREM4), theorem5_y=theorem5,
                            lemma3_y=ValueLists(direct, lemma3))


# ---------------------------------------------------------------------------
# dict conversion (the JSON layer)


def _verdict_to_dict(fid: FilterId, verdict: Verdict) -> dict:
    return {
        "filter": fid.value,
        "eliminated": verdict.eliminated,
        "witness": verdict.witness,
    }


class SharedList(list):
    """A list that refuses changes, as every holder shares it; a copy is a plain list."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a shared list cannot be changed; copy it first")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce__(self):
        return list, (list(self),)


# Each filter's UNDECIDED entry, one object shared by every attribution that
# holds it, and the entries of ALL_UNDECIDED, one list shared by every
# survivor that passed every filter, so _write_json renders each once per
# indent.
_UNDECIDED_ENTRIES = {fid: SharedDict(_verdict_to_dict(fid, UNDECIDED)) for fid in FilterId}
_ALL_UNDECIDED_ENTRIES = SharedList(_UNDECIDED_ENTRIES.values())


def _attribution_to_list(attribution: Attribution) -> list[dict]:
    if attribution is ALL_UNDECIDED:
        return _ALL_UNDECIDED_ENTRIES
    return [
        _UNDECIDED_ENTRIES[fid] if v is UNDECIDED else _verdict_to_dict(fid, v)
        for fid, v in attribution.entries
    ]


def _corners_to_dict(profile: DistanceProfile) -> dict:
    return {
        "squared": dict(zip(CORNERS, profile.squared)),
        "roots": dict(zip(CORNERS, profile.roots)),
    }


def _hit_to_dict(hit: ScanHit) -> dict:
    c, profile = hit.candidate, hit.profile
    return {
        "z": c.z,
        "x": c.x,
        "y": c.y,
        "count": profile.integer_count,
        "orbit": hit.orbit_size,
        **_corners_to_dict(profile),
    }


def _candidate_to_dict(c: Candidate) -> dict:
    profile = distance_profile(c)
    return {
        "x": c.x,
        "y": c.y,
        "z": c.z,
        **_corners_to_dict(profile),
        "count": profile.integer_count,
    }


def sieve_result_to_dict(result: SieveResult) -> dict:
    return {
        "z": result.z,
        "totals": {
            "candidates": result.candidates,
            "eliminated": {fid.value: n for fid, n in result.eliminated},
            "survivors": len(result.survivors),
        },
        "survivors": [
            {
                "x": s.candidate.x,
                "y": s.candidate.y,
                "attribution": _attribution_to_list(s.attribution),
            }
            for s in result.survivors
        ],
        "oracle": {
            "max_count": result.max_count,
            "witnesses": [_hit_to_dict(w) for w in result.witnesses],
        },
    }


def scan_report_to_dict(report: ScanReport) -> dict:
    req = report.request
    return {
        "request": {
            "z_min": req.z_min,
            "z_max": req.z_max,
            "min_count": req.min_count,
            "include_boundary": req.include_boundary,
            "primitive_only": req.primitive_only,
            "mod12_only": req.mod12_only,
            "budget": req.budget,
        },
        "hits": [_hit_to_dict(h) for h in report.hits],
    }


def unavailable_to_dict(lists: UnavailableLists) -> dict:
    return {
        "z": lists.z,
        "lists": {
            fid.value: {"direct": list(vl.direct), "combined": list(vl.combined)}
            for fid, _, vl in _named_lists(lists)
        },
    }


def _named_lists(lists: UnavailableLists):
    """(source filter, axis, values) of each list."""
    return (
        (FilterId.THEOREM3, "x", lists.theorem3_x),
        (FilterId.THEOREM4, "x", lists.theorem4_x),
        (FilterId.THEOREM5, "y", lists.theorem5_y),
        (FilterId.LEMMA3, "y", lists.lemma3_y),
    )


# ---------------------------------------------------------------------------
# parsing (JSON -> result objects)


def _load(data: bytes | str | dict) -> dict:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        data = json.loads(data)
    return data


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
# rendering


def _roots_detail(profile: DistanceProfile) -> str:
    return ";".join(
        f"{corner}={'-' if root is None else root}"
        for corner, root in zip(CORNERS, profile.roots)
    )


CSV_HEADER = ("z", "x", "y", "verdict", "filter_id", "detail")


def _profile_row(c: Candidate, profile: DistanceProfile) -> tuple:
    return (c.z, c.x, c.y, profile.integer_count, "", _roots_detail(profile))


def _csv_rows(result) -> list[tuple]:
    if isinstance(result, Candidate):
        return [_profile_row(result, distance_profile(result))]
    if isinstance(result, ScanReport):
        return [_profile_row(h.candidate, h.profile) for h in result.hits]
    if isinstance(result, SieveResult):
        return [
            (result.z, s.candidate.x, s.candidate.y, "survivor", "",
             _roots_detail(s.profile))
            for s in result.survivors
        ]
    if isinstance(result, UnavailableLists):
        return [
            (result.z, *((v, "") if axis == "x" else ("", v)), "unavailable", fid.value,
             "direct" if v in vl.direct else "reflected")
            for fid, axis, vl in _named_lists(result)
            for v in vl.combined
        ]
    raise TypeError(f"no CSV rendering for {type(result).__name__}")


def _render_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for result in results:
        writer.writerows(_csv_rows(result))
    return buf.getvalue()


def _render_text(result) -> str:
    lines = []
    if isinstance(result, Candidate):
        profile = distance_profile(result)
        lines.append(f"point x={result.x} y={result.y} in square of side {result.z}")
        for corner, sq, root in zip(CORNERS, profile.squared, profile.roots):
            note = f"{root}^2" if root is not None else "not a square"
            lines.append(f"  {corner}: {sq} ({note})")
        lines.append(f"  integer corner distances: {profile.integer_count}")
    elif isinstance(result, SieveResult):
        lines.append(f"sieve z={result.z}")
        lines.append(f"  candidates examined: {result.candidates}")
        for fid, n in result.eliminated:
            if n:
                lines.append(f"  eliminated by {fid.value}: {n}")
        lines.append(f"  survivors: {len(result.survivors)}")
        for s in result.survivors:
            near = ",".join(
                fid.value for fid, v in s.attribution.entries if v.eliminated
            )
            lines.append(
                f"    x={s.candidate.x} y={s.candidate.y}"
                f" roots {_roots_detail(s.profile)}"
                + (f" (would fall to: {near})" if near else "")
            )
        if result.max_count is not None:
            lines.append(f"  best survivor integer count: {result.max_count}")
    elif isinstance(result, ScanReport):
        req = result.request
        lines.append(
            f"scan z={req.z_min}..{req.z_max} min_count={req.min_count}: "
            f"{len(result.hits)} hit(s)"
        )
        for h in result.hits:
            c = h.candidate
            lines.append(
                f"  z={c.z} x={c.x} y={c.y} count={h.profile.integer_count}"
                f" roots {_roots_detail(h.profile)} orbit={h.orbit_size}"
            )
    elif isinstance(result, UnavailableLists):
        lines.append(f"unavailable values at z={result.z}")
        for fid, axis, vl in _named_lists(result):
            label = f"{fid.value} ({_SOURCE_LABELS[fid]}), {axis}"
            lines.append(f"  {label}, direct:   " + " ".join(map(str, vl.direct)))
            lines.append(f"  {label}, combined: " + " ".join(map(str, vl.combined)))
    else:
        raise TypeError(f"no text rendering for {type(result).__name__}")
    return "\n".join(lines) + "\n"


_escape = json.encoder.encode_basestring_ascii  # the C escaper where built
# id of a shared entry or list -> {nl: its text}
_SHARED_TEXTS: dict[int, dict[str, str]] = {
    id(e): {} for e in (*_UNDECIDED_ENTRIES.values(), _ALL_UNDECIDED_ENTRIES)
}
# the types json.dumps encodes, bool before int as bool subclasses int
_JSON_TYPES = (str, bool, int, float, list, tuple, dict, type(None))


def _write_json(o, out: list[str], nl: str) -> None:
    """Append to out the text json.dumps(o, indent=2) gives, nl being the
    newline and indent of o's own line.

    json.dumps runs its C encoder only without indent; with indent=2 every
    value passes through one Python generator per enclosing container.
    Only str keys and the types json.dumps itself encodes are written; any
    other type raises TypeError.  A shared entry or list is rendered once
    per nl and its text reused.  An object of exactly int, dict, str or
    list, the types a payload holds most, takes its branch at once; any
    other is looked up as a shared object, then by the JSON type it is an
    instance of.  Inside a dict or a list, an exact int or None is written
    in the loop, without a call.
    """
    t = type(o)
    if t is not int and t is not dict and t is not str and t is not list:
        texts = _SHARED_TEXTS.get(id(o))
        if texts is not None:
            if nl not in texts:
                part: list[str] = []
                _write_json(o.copy(), part, nl)  # a plain dict or list: written out
                texts[nl] = "".join(part)
            out.append(texts[nl])
            return
        t = next((base for base in _JSON_TYPES if isinstance(o, base)), None)
    if t is int:
        out.append(int.__repr__(o))
    elif t is dict:
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be str, not {type(k).__name__}")
            if type(v) is int:
                out.append(sep + _escape(k) + ": " + int.__repr__(v))
            elif v is None:
                out.append(sep + _escape(k) + ": null")
            else:
                out.append(sep + _escape(k) + ": ")
                _write_json(v, out, inner)
            sep = "," + inner
        out.append(nl + "}" if o else "{}")
    elif t is str:
        out.append(_escape(o))
    elif t is list or t is tuple:
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            if type(v) is int:
                out.append(sep + int.__repr__(v))
            elif v is None:
                out.append(sep + "null")
            else:
                out.append(sep)
                _write_json(v, out, inner)
            sep = "," + inner
        out.append(nl + "]" if o else "[]")
    elif t is bool:
        out.append("true" if o else "false")
    elif o is None:
        out.append("null")
    elif t is float:
        out.append(json.dumps(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def serialize(result, fmt: str = "json") -> bytes:
    """Render a Candidate's distance profile, a SieveResult, ScanReport,
    UnavailableLists, or sequence of SieveResults as json, csv or text bytes."""
    if fmt not in FORMATS:
        raise ValueError(f"unsupported format {fmt!r}; expected one of {FORMATS}")
    # a Candidate is a tuple, so it must not count as a range
    is_range = isinstance(result, Sequence) and not isinstance(
        result, (str, bytes, Candidate)
    )
    if fmt == "json":
        if is_range:
            payload = {"results": [sieve_result_to_dict(r) for r in result]}
        elif isinstance(result, Candidate):
            payload = _candidate_to_dict(result)
        elif isinstance(result, SieveResult):
            payload = sieve_result_to_dict(result)
        elif isinstance(result, ScanReport):
            payload = scan_report_to_dict(result)
        elif isinstance(result, UnavailableLists):
            payload = unavailable_to_dict(result)
        else:
            raise TypeError(f"cannot serialize {type(result).__name__}")
        out: list[str] = []
        _write_json(payload, out, "\n")
        out.append("\n")
        return "".join(out).encode("utf-8")
    if fmt == "csv":
        return _render_csv(result if is_range else [result]).encode("utf-8")
    text = (
        "".join(_render_text(r) for r in result) if is_range else _render_text(result)
    )
    return text.encode("utf-8")
