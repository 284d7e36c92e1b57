"""squarepoint: search integer-sided squares for interior points with four
integer distances to the corners, with an attributable elimination filter
for every known necessary condition and an exact brute-force distance
oracle to keep the filters honest.

Importing the package loads none of its modules: each public name imports
its module on first access (PEP 562), so a caller pays only for what it
uses.
"""

__version__ = "0.1.0"

# the module that defines each public name
_EXPORTS = {
    "arith": (
        "factorize",
        "is_prime",
        "isqrt",
        "jacobi",
        "prime_power_root",
        "pythagorean_partners",
        "two_nonresidue_primes",
    ),
    "filters": (
        "Attribution",
        "FilterConfig",
        "FilterId",
        "Verdict",
        "recheck_witness",
        "run_pipeline",
    ),
    "model": (
        "Candidate",
        "DistanceProfile",
        "canonicalize",
        "corner_legs",
        "distance_profile",
        "is_primitive_interior",
        "orbit",
    ),
    "report": ("UnavailableLists", "serialize", "unavailable_lists"),
    "search": (
        "BudgetExceededError",
        "ScanReport",
        "ScanRequest",
        "SieveResult",
        "enumerate_candidates",
        "oracle_scan",
        "search_range",
        "sieve_z",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # any other name raises, so `from squarepoint import filters` still
    # falls back to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own machinery, which -X importtime reports,
    # unlike importlib.import_module
    module = __import__(_MODULE_OF[name], globals(), None, (name,), 1)
    value = getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
