"""CLI subcommands are thin adapters: outputs must match direct library calls."""

import json

import pytest

from squarepoint.cli import main
from squarepoint.filters import FilterConfig, FilterId
from squarepoint.report import serialize, unavailable_lists
from squarepoint.search import ScanRequest, oracle_scan, sieve_z


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sieve_matches_library(capsys):
    code, out, _ = run(capsys, "sieve", "--z", "60", "--format", "json")
    assert code == 0
    assert out.encode() == serialize(sieve_z(60), "json")


def test_sieve_filter_subset(capsys):
    code, out, _ = run(
        capsys, "sieve", "--z", "60",
        "--filters", "parity_residue,lemma3,theorem5", "--format", "json",
    )
    assert code == 0
    cfg = FilterConfig.only(
        FilterId.PARITY_RESIDUE, FilterId.LEMMA3, FilterId.THEOREM5
    )
    assert out.encode() == serialize(sieve_z(60, cfg), "json")
    assert json.loads(out)["survivors"] == []


def test_sieve_text_mentions_zero_survivors(capsys):
    code, out, _ = run(capsys, "sieve", "--z", "60", "--format", "text")
    assert code == 0 and "survivors: 0" in out


def test_sieve_is_charged_the_default_budget(capsys, monkeypatch):
    def stub(z, cfg=None):
        raise AssertionError(f"sieved z={z}")

    # the stubs fail at once where the real sieve would walk every candidate
    monkeypatch.setattr("squarepoint.sieve_z", stub)
    monkeypatch.setattr("squarepoint.search.sieve_z", stub)
    # z = 120000 holds 1,152,008,000 candidates, over DEFAULT_BUDGET = 10**9
    code, out, err = run(capsys, "sieve", "--z", "120000")
    assert code == 2 and out == ""
    assert err == ("computation failed: range holds more than "
                   "budget=1000000000 candidates\n")
    # a z within budget is sieved, and its failure names it
    code, out, err = run(capsys, "sieve", "--z", "60")
    assert code == 2 and out == ""
    assert err == "computation failed: sieve failed at z=60: sieved z=60\n"


@pytest.mark.parametrize("argv, message", [
    ("sieve --z 0", "need 1 <= z_min <= z_max"),
    ("sieve --z x", "argument --z: invalid int value: 'x'"),
    ("sieve --z 60 --filters nope", "argument --filters: unknown filter in 'nope'; "
     "valid ids: " + ",".join(f.value for f in FilterId)),
    ("sieve --z 60 --format yaml", "argument --format: invalid choice: 'yaml'"),
    ("bogus-command", "argument command: invalid choice: 'bogus-command'"),
    ("search --z-min 1 --z-max 5 --threads 0", "workers must be positive"),
    ("three-distance --z-max 5 --min-count 5", "min_count must be within 0..4"),
    ("three-distance --z-min 0 --z-max 5", "need 1 <= z_min <= z_max"),
    ("distances --z 0 --x 0 --y 0", "candidate Candidate(x=0, y=0, z=0) outside its square"),
    ("lists --z 0", "unavailable lists are defined for even z >= 2"),
])
def test_usage_errors(capsys, argv, message):
    # one rule, one message: the library's (or argparse's), on one error line
    code, out, err = run(capsys, *argv.split())
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


def test_search_threads_do_not_change_bytes(capsys):
    _, seq, _ = run(capsys, "search", "--z-min", "12", "--z-max", "48",
                    "--threads", "1", "--format", "json")
    _, par, _ = run(capsys, "search", "--z-min", "12", "--z-max", "48",
                    "--threads", "3", "--format", "json")
    assert seq == par
    assert json.loads(seq)["results"][0]["z"] == 12


def test_search_rejects_bad_range(capsys):
    code, _, err = run(capsys, "search", "--z-min", "9", "--z-max", "5")
    assert code == 1 and "need 1 <= z_min <= z_max" in err


def test_search_budget(capsys):
    # z = 12 holds 13 candidates, model.candidate_count(12)
    code, _, err = run(capsys, "search", "--z-min", "12", "--z-max", "12",
                       "--budget", "12")
    assert code == 2 and "budget" in err
    code, out, _ = run(capsys, "search", "--z-min", "12", "--z-max", "12",
                       "--budget", "13", "--format", "json")
    assert code == 0 and json.loads(out)["results"][0]["z"] == 12


def test_negative_budget_is_usage_error(capsys):
    code, _, err = run(capsys, "search", "--z-min", "1", "--z-max", "5",
                       "--budget", "-1")
    assert code == 1 and "budget must not be negative" in err
    code, _, err = run(capsys, "three-distance", "--z-max", "5", "--budget", "-5")
    assert code == 1 and "budget must not be negative" in err
    # z = 1 holds no interior candidate pair, so a budget of 0 fits it
    code, out, _ = run(capsys, "search", "--z-min", "1", "--z-max", "1",
                       "--budget", "0", "--format", "json")
    assert code == 0 and json.loads(out)["results"][0]["z"] == 1


def test_three_distance_finds_triples(capsys):
    code, out, _ = run(capsys, "three-distance", "--z-max", "60",
                       "--format", "json")
    assert code == 0
    hits = json.loads(out)["hits"]
    assert {"z": 52, "x": 7, "y": 24} == {
        k: hits[0][k] for k in ("z", "x", "y")
    }
    lib = oracle_scan(ScanRequest(z_min=1, z_max=60, min_count=3))
    assert out.encode() == serialize(lib, "json")


def test_three_distance_full_range(capsys):
    code, out, _ = run(capsys, "three-distance", "--z-max", "700",
                       "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert "52,7,24,3,,A=25;B=-;C=53;D=51" in rows
    assert "700,297,304,3,,A=425;B=495;C=565;D=-" in rows


def test_three_distance_budget_exceeded(capsys):
    code, _, err = run(capsys, "three-distance", "--z-max", "100",
                       "--budget", "10")
    assert code == 2 and "budget" in err


def test_three_distance_budget_counts_points(capsys):
    # z <= 100 charges sum (z - 1)**2 = 328,350 points
    code, _, err = run(capsys, "three-distance", "--z-max", "100",
                       "--budget", "1000")
    assert code == 2
    assert "scan region holds more than budget=1000 points" in err
    assert "candidates" not in err


def test_lists_matches_library(capsys):
    code, out, _ = run(capsys, "lists", "--z", "60", "--format", "json")
    assert code == 0
    assert out.encode() == serialize(unavailable_lists(60), "json")
    assert run(capsys, "lists", "--z", "61")[0] == 1


def test_distances_text_and_csv(capsys):
    code, out, _ = run(capsys, "distances", "--x", "7", "--y", "24", "--z", "52")
    assert code == 0
    assert "A: 625 (25^2)" in out and "B: 833 (not a square)" in out
    code, out, _ = run(capsys, "distances", "--x", "7", "--y", "24", "--z", "52",
                       "--format", "csv")
    assert out.splitlines()[1] == "52,7,24,3,,A=25;B=-;C=53;D=51"
    assert run(capsys, "distances", "--x", "9", "--y", "1", "--z", "8")[0] == 1


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "result.json"
    code, out, _ = run(capsys, "sieve", "--z", "24", "--format", "json",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == serialize(sieve_z(24), "json")


def test_out_unwritable_path(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "sieve", "--z", "12", "--format", "json",
                         "--out", str(path))
    assert code == 1
    assert "cannot write" in err
    assert out == ""


def test_verify_suites(capsys):
    for suite in ("arith", "paper"):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0, out
        assert "FAIL" not in out
        assert f"{suite}:" in out


def test_verify_filters_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "filters")
    assert code == 0, out
    assert "FAIL" not in out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "sieve" in capsys.readouterr().out
