"""Serialization of sieve, scan and list results (json, csv, text), plus the
per-z lists of values the filters rule out for x and y: each direct list
read from filters.passed_values, each combined list from
filters.ruled_values, and lemma3's from filters.lemma3_sides.

Output is deterministic: identical inputs give identical bytes.  The JSON
holds every field of its result, so the result can be read back from it
exactly; unknown or inapplicable CSV cells are empty strings.

The module loads only model and the standard library, so rendering one
Candidate imports neither filters nor search: a call that needs them
imports them once, not once per item.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .model import CORNERS, Candidate, DistanceProfile, distance_profile

if TYPE_CHECKING:
    from .filters import Attribution, FilterId, Verdict
    from .search import ScanHit, ScanReport, SieveResult

FORMATS = ("json", "csv", "text")


class ValueLists(NamedTuple):
    direct: tuple[int, ...]
    combined: tuple[int, ...]


class UnavailableLists(NamedTuple):
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


# (filter id, axis, text label) of each list, in UnavailableLists field order
_SOURCES = (
    ("theorem3", "x", "Theorem 3"),
    ("theorem4", "x", "Theorem 4"),
    ("theorem5", "y", "Theorem 5"),
    ("lemma3", "y", "Lemma 3"),
)


def unavailable_lists(z: int) -> UnavailableLists:
    if z < 2 or z % 2:
        raise ValueError("unavailable lists are defined for even z >= 2")
    from .filters import FilterId, lemma3_divisors, lemma3_sides, passed_values, ruled_values

    def lists(fid: FilterId) -> ValueLists:
        return ValueLists(*(tuple(itertools.compress(range(1, z), table(z, fid)[1:z]))
                            for table in (passed_values, ruled_values)))

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


# id of a shared entry, list or witness -> {nl: its text}, filled by _attribution_writer
_SHARED_TEXTS: dict[int, dict[str, str]] = {}


@cache
def _attribution_writer():
    """The function giving an Attribution's JSON entries, built once per
    process, on the first sieve result rendered.

    Each filter's UNDECIDED entry is one object shared by every attribution
    that holds it, and the entries of ALL_UNDECIDED are one list shared by
    every attribution equal to it.  Both are recognised by value, so an
    attribution unpickled from a worker process shares them too.
    _write_json renders each once per indent, as it does the witnesses of
    filters.SHARED_VERDICTS.
    """
    from .filters import ALL_UNDECIDED, SHARED_VERDICTS, UNDECIDED, FilterId, SharedDict

    undecided = {fid: SharedDict(_verdict_to_dict(fid, UNDECIDED)) for fid in FilterId}
    all_undecided = SharedList(undecided.values())
    for shared in (*undecided.values(), all_undecided,
                   *(v.witness for v in SHARED_VERDICTS)):
        _SHARED_TEXTS[id(shared)] = {}

    def attribution_to_list(attribution: Attribution) -> list[dict]:
        if attribution == ALL_UNDECIDED:
            return all_undecided
        return [
            undecided[fid] if v == UNDECIDED else _verdict_to_dict(fid, v)
            for fid, v in attribution.entries
        ]

    return attribution_to_list


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
    attribution_to_list = _attribution_writer()
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
                "attribution": attribution_to_list(s.attribution),
            }
            for s in result.survivors
        ],
        "oracle": {
            "max_count": result.max_count,
            "witnesses": [_hit_to_dict(w) for w in result.witnesses],
        },
    }


def scan_report_to_dict(report: ScanReport) -> dict:
    return {
        "request": report.request._asdict(),
        "hits": [_hit_to_dict(h) for h in report.hits],
    }


def unavailable_to_dict(lists: UnavailableLists) -> dict:
    return {
        "z": lists.z,
        "lists": {
            fid: {"direct": list(vl.direct), "combined": list(vl.combined)}
            for (fid, _, _), vl in zip(_SOURCES, lists[1:])
        },
    }


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


def _candidate_rows(c: Candidate) -> list[tuple]:
    return [_profile_row(c, distance_profile(c))]


def _scan_rows(report: ScanReport) -> list[tuple]:
    return [_profile_row(h.candidate, h.profile) for h in report.hits]


def _sieve_rows(result: SieveResult) -> list[tuple]:
    return [
        (result.z, s.candidate.x, s.candidate.y, "survivor", "", _roots_detail(s.profile))
        for s in result.survivors
    ]


def _lists_rows(lists: UnavailableLists) -> list[tuple]:
    rows = []
    for (fid, axis, _), vl in zip(_SOURCES, lists[1:]):
        direct = set(vl.direct)  # a tuple test per value would be quadratic in z
        rows += [
            (lists.z, *((v, "") if axis == "x" else ("", v)), "unavailable", fid,
             "direct" if v in direct else "reflected")
            for v in vl.combined
        ]
    return rows


def _candidate_lines(c: Candidate) -> list[str]:
    profile = distance_profile(c)
    lines = [f"point x={c.x} y={c.y} in square of side {c.z}"]
    for corner, sq, root in zip(CORNERS, profile.squared, profile.roots):
        note = f"{root}^2" if root is not None else "not a square"
        lines.append(f"  {corner}: {sq} ({note})")
    lines.append(f"  integer corner distances: {profile.integer_count}")
    return lines


def _sieve_lines(result: SieveResult) -> list[str]:
    lines = [f"sieve z={result.z}", f"  candidates examined: {result.candidates}"]
    lines += [f"  eliminated by {fid.value}: {n}" for fid, n in result.eliminated if n]
    lines.append(f"  survivors: {len(result.survivors)}")
    for s in result.survivors:
        near = ",".join(fid.value for fid, v in s.attribution.entries if v.eliminated)
        lines.append(
            f"    x={s.candidate.x} y={s.candidate.y}"
            f" roots {_roots_detail(s.profile)}"
            + (f" (would fall to: {near})" if near else "")
        )
    if result.max_count is not None:
        lines.append(f"  best survivor integer count: {result.max_count}")
    return lines


def _scan_lines(report: ScanReport) -> list[str]:
    req = report.request
    lines = [f"scan z={req.z_min}..{req.z_max} min_count={req.min_count}: "
             f"{len(report.hits)} hit(s)"]
    for h in report.hits:
        c = h.candidate
        lines.append(
            f"  z={c.z} x={c.x} y={c.y} count={h.profile.integer_count}"
            f" roots {_roots_detail(h.profile)} orbit={h.orbit_size}"
        )
    return lines


def _lists_lines(lists: UnavailableLists) -> list[str]:
    lines = [f"unavailable values at z={lists.z}"]
    for (fid, axis, name), vl in zip(_SOURCES, lists[1:]):
        label = f"{fid} ({name}), {axis}"
        lines.append(f"  {label}, direct:   " + " ".join(map(str, vl.direct)))
        lines.append(f"  {label}, combined: " + " ".join(map(str, vl.combined)))
    return lines


# (JSON tree, CSV rows, text lines) of each result type
_CANDIDATE = (_candidate_to_dict, _candidate_rows, _candidate_lines)
_LISTS = (unavailable_to_dict, _lists_rows, _lists_lines)
_SIEVE = (sieve_result_to_dict, _sieve_rows, _sieve_lines)
_SCAN = (scan_report_to_dict, _scan_rows, _scan_lines)


def _renderers(result) -> tuple:
    """The renderers of result's type; search is imported only for a result
    that is not a Candidate or UnavailableLists."""
    if isinstance(result, Candidate):
        return _CANDIDATE
    if isinstance(result, UnavailableLists):
        return _LISTS
    from .search import ScanReport, SieveResult

    if isinstance(result, SieveResult):
        return _SIEVE
    if isinstance(result, ScanReport):
        return _SCAN
    raise TypeError(f"cannot serialize {type(result).__name__}")


_escape = json.encoder.encode_basestring_ascii  # the C escaper where built


def _write_json(o, out: list[str], nl: str) -> None:
    """Append to out the text json.dumps(o, indent=2) gives, nl being the
    newline and indent of o's own line.

    json.dumps runs its C encoder only without indent, so the types a
    payload holds most are written here: an object of exactly int, dict
    with str keys, str, list or bool, and inside a dict or a list an exact
    int or None, without a call.  Any other value, and a dict with any
    other key (what was written of it is dropped), is json.dumps's own
    text with each newline replaced by nl: JSON text holds no raw newline
    but those indent writes.  A shared entry, list or witness takes that
    path once per nl, and its text is reused.
    """
    t = type(o)
    if t is int:
        out.append(int.__repr__(o))
    elif t is dict:
        inner = nl + "  "
        sep = "{" + inner
        start = len(out)
        for k, v in o.items():
            if not isinstance(k, str):
                del out[start:]
                out.append(json.dumps(o, indent=2).replace("\n", nl))
                return
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
    elif t is list:
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
    elif (texts := _SHARED_TEXTS.get(id(o))) is None:
        out.append(json.dumps(o, indent=2).replace("\n", nl))
    else:
        if nl not in texts:
            texts[nl] = json.dumps(o, indent=2).replace("\n", nl)
        out.append(texts[nl])


def serialize(result, fmt: str = "json") -> bytes:
    """Render a Candidate's distance profile, a SieveResult, ScanReport,
    UnavailableLists, or list or tuple of SieveResults as json, csv or text."""
    if fmt not in FORMATS:
        raise ValueError(f"unsupported format {fmt!r}; expected one of {FORMATS}")
    # every record is a tuple subclass, so only a plain list or tuple is a range
    is_range = type(result) in (list, tuple)
    if is_range:
        for r in result:
            if _renderers(r) is not _SIEVE:
                raise TypeError(f"cannot serialize {type(r).__name__} in a range of SieveResults")
    to_dict, rows, lines = _SIEVE if is_range else _renderers(result)
    results = result if is_range else (result,)
    if fmt == "json":
        payload = {"results": [to_dict(r) for r in result]} if is_range else to_dict(result)
        out: list[str] = []
        _write_json(payload, out, "\n")
        out.append("\n")
        return "".join(out).encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in results:
            writer.writerows(rows(r))
        return buf.getvalue().encode("utf-8")
    return "".join(line + "\n" for r in results for line in lines(r)).encode("utf-8")
