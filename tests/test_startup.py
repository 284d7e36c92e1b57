"""Start-up loads only what a call uses: the lazy package, each subcommand's
import set, and the parser those lazy imports must leave unchanged."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squarepoint
from squarepoint import cli, search
from squarepoint.selfcheck import SUITES

SRC = Path(squarepoint.__file__).resolve().parent.parent
HELP = Path(__file__).with_name("cli_help.txt")


def fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter, with argv as its arguments."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)


# main's output goes to stdout; the modules loaded by its end, one a line,
# to stderr
PROBE = """
import sys
from squarepoint.cli import main
code = main(sys.argv[1:])
print(*sys.modules, sep="\\n", file=sys.stderr)
sys.exit(code)
"""
ANY_SEARCH = {"squarepoint.selfcheck", "multiprocessing"}
# every record is a NamedTuple, so no call loads dataclasses or what it imports
NO_DATACLASSES = {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv, absent", [
    ("distances --x 7 --y 24 --z 52",
     {"squarepoint.filters", "squarepoint.search"} | ANY_SEARCH | NO_DATACLASSES),
    ("lists --z 60", {"squarepoint.search"} | ANY_SEARCH | NO_DATACLASSES),
    ("sieve --z 60", ANY_SEARCH | NO_DATACLASSES),
    ("search --z-min 1 --z-max 24 --threads 1", ANY_SEARCH | NO_DATACLASSES),
    ("three-distance --z-max 20", ANY_SEARCH | NO_DATACLASSES),
    ("verify --suite paper", NO_DATACLASSES),
])
def test_subcommand_imports_only_what_it_uses(argv, absent):
    proc = fresh(PROBE, *argv.split())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.splitlines())
    assert "squarepoint.report" in loaded
    assert not absent & loaded


def test_package_import_is_lazy():
    proc = fresh("""
import sys
import squarepoint
print(*sorted(m for m in sys.modules if m.startswith("squarepoint.")))
squarepoint.Candidate
print(*sorted(m for m in sys.modules if m.startswith("squarepoint.")))
from squarepoint import filters, report
print(filters is sys.modules["squarepoint.filters"], report is sys.modules["squarepoint.report"])
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "", "squarepoint.arith squarepoint.model", "True True",
    ]


def test_every_public_name_is_its_defining_module_attribute():
    for name in squarepoint.__all__:
        value = getattr(squarepoint, name)
        assert value.__module__.startswith("squarepoint."), name
        assert value is getattr(importlib.import_module(value.__module__), name), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from squarepoint import *", namespace)
    assert set(squarepoint.__all__) <= namespace.keys()
    assert set(squarepoint.__all__) <= set(dir(squarepoint))
    assert squarepoint.__all__ == sorted(squarepoint.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        squarepoint.nope
    assert not hasattr(squarepoint, "nope")


def test_help_text_unchanged(capsys, monkeypatch):
    # argparse wraps at the width COLUMNS gives
    monkeypatch.setenv("COLUMNS", "80")
    for command in ("", "sieve", "search", "distances", "three-distance", "lists", "verify"):
        assert cli.main([*command.split(), "--help"]) == 0
    assert capsys.readouterr().out == HELP.read_text()


def test_parser_constants_match_the_library():
    assert cli._SUITE_NAMES == tuple(sorted(SUITES))
    parser = cli._build_parser()
    for argv in (["search", "--z-min", "1", "--z-max", "2"], ["three-distance", "--z-max", "2"]):
        assert parser.parse_args(argv).budget == search.DEFAULT_BUDGET
