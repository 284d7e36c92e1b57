"""squarepoint: search integer-sided squares for interior points with four
integer distances to the corners, with an attributable elimination filter
for every known necessary condition and an exact brute-force distance
oracle to keep the filters honest.
"""

from .arith import (
    factorize,
    is_prime,
    isqrt,
    jacobi,
    prime_power_root,
    pythagorean_partners,
    two_nonresidue_primes,
)
from .filters import (
    Attribution,
    FilterConfig,
    FilterId,
    Verdict,
    recheck_witness,
    run_pipeline,
)
from .model import (
    Candidate,
    DistanceProfile,
    canonicalize,
    corner_legs,
    distance_profile,
    is_primitive_interior,
    orbit,
)
from .report import UnavailableLists, serialize, unavailable_lists
from .search import (
    BudgetExceededError,
    ScanReport,
    ScanRequest,
    SieveResult,
    enumerate_candidates,
    oracle_scan,
    search_range,
    sieve_z,
)

__version__ = "0.1.0"

__all__ = [
    "Attribution",
    "BudgetExceededError",
    "Candidate",
    "DistanceProfile",
    "FilterConfig",
    "FilterId",
    "ScanReport",
    "ScanRequest",
    "SieveResult",
    "UnavailableLists",
    "Verdict",
    "canonicalize",
    "corner_legs",
    "distance_profile",
    "enumerate_candidates",
    "factorize",
    "is_prime",
    "is_primitive_interior",
    "isqrt",
    "jacobi",
    "oracle_scan",
    "orbit",
    "prime_power_root",
    "pythagorean_partners",
    "recheck_witness",
    "run_pipeline",
    "search_range",
    "serialize",
    "sieve_z",
    "two_nonresidue_primes",
    "unavailable_lists",
]
