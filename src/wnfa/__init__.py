"""Wheeler NFA toolkit.

Validation of Wheeler orders, linear-time minimization via the maximum
order-respecting autobisimulation, Wheeler-bisimilarity decisions, and
checkers for candidate bisimulation relations.

Importing the package loads :mod:`wnfa.automaton` and :mod:`wnfa.minimize`.
The names from :mod:`wnfa.relations`, :mod:`wnfa.equivalence` and
:mod:`wnfa.generators` load their module when one of them is first read,
so a program that reads none of a module's names never compiles it.  The
brute-force references that cross-check the pipeline are in
:mod:`wnfa.reference`, which importing this package does not load.
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

# eager: the first import of the submodule sets this package's `minimize` to
# the module, which would shadow a function of that name read lazily
from .minimize import (
    BoundaryBits,
    IncidenceExtrema,
    QuotientResult,
    boundary_bits,
    compute_extrema,
    format_trace,
    minimize,
    quotient,
)

# name -> the submodule that defines it, imported when the name is first read;
# compose and inverse stay importable from here, but are left out of __all__:
# nothing in the package calls them
_LAZY = {
    "gen_chain": "generators",
    "gen_distinctness": "generators",
    "gen_random_wheeler": "generators",
    "CheckFailure": "relations",
    "Relation": "relations",
    "compose": "relations",
    "inverse": "relations",
    "is_bisimulation": "relations",
    "is_wheeler_bisimulation": "relations",
    "parse_relation": "relations",
    "serialize_relation": "relations",
    "EquivalenceVerdict": "equivalence",
    "order_respecting_iso": "equivalence",
    "wheeler_bisimilar": "equivalence",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


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
