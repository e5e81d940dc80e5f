"""Wheeler NFA toolkit.

Validation of Wheeler orders, linear-time minimization via the maximum
order-respecting autobisimulation, Wheeler-bisimilarity decisions, and
checkers for candidate bisimulation relations.  The brute-force references
that cross-check them are in :mod:`wnfa.reference`, which importing this
package does not load.
"""

from .automaton import (
    OrderedAlphabet,
    ParseError,
    ValidationReport,
    Violation,
    ViolationKind,
    WheelerNfa,
    accepts,
    is_deterministic,
    parse_wnfa,
    serialize_wnfa,
    to_dot,
    validate,
)
from .equivalence import (
    EquivalenceVerdict,
    order_respecting_iso,
    wheeler_bisimilar,
)
from .generators import gen_chain, gen_distinctness, gen_random_wheeler
from .minimize import (
    IncidenceExtrema,
    QuotientResult,
    boundary_bits,
    compute_extrema,
    format_trace,
    minimize,
    quotient,
)
# compose and inverse stay importable from here, but are left out of __all__:
# nothing in the package calls them
from .relations import (
    BoundaryBits,
    CheckFailure,
    Relation,
    compose,
    inverse,
    is_bisimulation,
    is_wheeler_bisimulation,
    parse_relation,
    serialize_relation,
)

__all__ = [
    "OrderedAlphabet",
    "ParseError",
    "ValidationReport",
    "Violation",
    "ViolationKind",
    "WheelerNfa",
    "accepts",
    "is_deterministic",
    "parse_wnfa",
    "serialize_wnfa",
    "to_dot",
    "validate",
    "gen_chain",
    "gen_distinctness",
    "gen_random_wheeler",
    "Relation",
    "BoundaryBits",
    "CheckFailure",
    "is_bisimulation",
    "is_wheeler_bisimulation",
    "parse_relation",
    "serialize_relation",
    "IncidenceExtrema",
    "QuotientResult",
    "compute_extrema",
    "boundary_bits",
    "quotient",
    "minimize",
    "format_trace",
    "EquivalenceVerdict",
    "order_respecting_iso",
    "wheeler_bisimilar",
]
