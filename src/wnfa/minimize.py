"""Linear-time minimization of Wheeler NFAs.

The pipeline has three stages, all O(|E|) with label ranks bounded by the
alphabet size:

1. :func:`compute_extrema` makes one pass over the edges in the
   constructor's canonical (source, label, target) order to find, for every
   state, the extreme (label, source) pairs among its incoming edges and its
   set of outgoing labels.
2. :func:`boundary_bits` runs a single queue-driven propagation that marks
   each boundary between order-adjacent states that must separate.  The 0
   bits that survive encode the maximum order-respecting autobisimulation.
3. :func:`quotient` collapses each maximal 0-run into one state.

Stage 2 never enqueues a boundary index twice, which is both the linearity
argument and a testable invariant (at most n-1 enqueues per run).
"""

from __future__ import annotations

from operator import itemgetter

from .automaton import WheelerNfa, _Record, _set, is_deterministic
from .relations import BoundaryBits, Relation

TRACE_SEED = "SEED"
TRACE_DEQUEUE = "DEQUEUE"
TRACE_SET_JMIN = "SET-from-jmin"
TRACE_SET_JMAX = "SET-from-jmax"


class IncidenceExtrema(_Record):
    """Per-state incoming-edge extremes and outgoing-label sets.

    For state i >= 2 (and for state 1 when it has in-edges): ``a_min[i]`` /
    ``j_min[i]`` are the label and source of the (label, source)-least
    incoming edge, ``a_max[i]`` / ``j_max[i]`` of the greatest.  ``None``
    marks a state without incoming edges.  ``out_sets[i]`` is the sorted
    tuple of distinct labels leaving i, and ``z[i]`` (2 <= i <= n) records
    whether states i-1 and i differ in their outgoing-label sets.
    Index 0 of every array is padding.
    """

    _fields = ("a_min", "j_min", "a_max", "j_max", "out_sets", "z")

    def __init__(
        self,
        a_min: tuple[int | None, ...],
        j_min: tuple[int | None, ...],
        a_max: tuple[int | None, ...],
        j_max: tuple[int | None, ...],
        out_sets: tuple[tuple[int, ...], ...],
        z: tuple[bool, ...],
    ):
        _set(self, "a_min", a_min)
        _set(self, "j_min", j_min)
        _set(self, "a_max", a_max)
        _set(self, "j_max", j_max)
        _set(self, "out_sets", out_sets)
        _set(self, "z", z)


def compute_extrema(a: WheelerNfa) -> IncidenceExtrema:
    """One pass over ``a.edges`` in canonical (source, label, target) order.

    Sources ascend, so for target v a strictly smaller label gives a new
    (label, source) minimum and a label at least the current maximum gives
    a new maximum (a later edge into v never has a smaller source).  Each
    source's labels are contiguous and ascending, so collapsing runs of
    equal labels yields its outgoing-label set in the same pass.
    """
    n = a.n
    a_min: list[int | None] = [None] * (n + 1)
    j_min: list[int | None] = [None] * (n + 1)
    a_max: list[int | None] = [None] * (n + 1)
    j_max: list[int | None] = [None] * (n + 1)
    out_sets: list[tuple[int, ...]] = [()] * (n + 1)

    s = 0
    labels: list[int] = []
    for u, v, lab in a.edges:
        if u != s:
            out_sets[s] = tuple(labels)
            s, labels = u, [lab]
        elif labels[-1] != lab:
            labels.append(lab)
        cur = a_min[v]
        if cur is None:
            a_min[v], j_min[v], a_max[v], j_max[v] = lab, u, lab, u
        elif lab < cur:
            a_min[v], j_min[v] = lab, u
        elif lab >= a_max[v]:
            a_max[v], j_max[v] = lab, u
    out_sets[s] = tuple(labels)

    z = [False] * (n + 1)
    for i in range(2, n + 1):
        z[i] = out_sets[i - 1] != out_sets[i]

    return IncidenceExtrema(
        tuple(a_min), tuple(j_min), tuple(a_max), tuple(j_max), tuple(out_sets), tuple(z)
    )


def boundary_bits(a: WheelerNfa, trace: list | None = None) -> BoundaryBits:
    """Boundaries of the maximum order-respecting autobisimulation.

    Bit i (2 <= i <= n) ends up 1 exactly when states i-1 and i must be
    separated.  Seeds are the boundaries with an acceptance or
    outgoing-label disagreement; each seeded or derived split is enqueued
    once and propagated: splitting at i forces a split at ``j_min[i]`` (the
    least source feeding i with its least in-label, when that boundary
    exists) and just after ``j_max[i-1]`` (the greatest source feeding i-1
    with its greatest in-label).  The result equals the brute-force oracle;
    the differential tests enforce that.

    ``trace``, when given, receives (event, index) records in execution
    order: SEED, DEQUEUE, SET-from-jmin, SET-from-jmax.
    """
    n = a.n
    ex = compute_extrema(a)
    bits = [False] * (n + 1)
    queue: list[int] = []

    def record(event: str, index: int):
        if trace is not None:
            trace.append((event, index))

    for i in range(2, n + 1):
        if ((i - 1) in a.finals) != (i in a.finals) or ex.z[i]:
            queue.append(i)
            bits[i] = True
            record(TRACE_SEED, i)

    # appended while iterated: each boundary is enqueued once, in FIFO order
    for i in queue:
        record(TRACE_DEQUEUE, i)
        jm = ex.j_min[i]
        if jm is not None and jm >= 2 and not bits[jm]:
            queue.append(jm)
            bits[jm] = True
            record(TRACE_SET_JMIN, jm)
        jx = ex.j_max[i - 1]
        if jx is not None and jx <= n - 1 and not bits[jx + 1]:
            queue.append(jx + 1)
            bits[jx + 1] = True
            record(TRACE_SET_JMAX, jx + 1)

    return BoundaryBits(n, tuple(bits[2 : n + 1]))


class QuotientResult(_Record):
    """A quotient automaton plus the class map that produced it.

    ``class_map[p - 1]`` is the quotient position of input position p; it is
    monotone non-decreasing and onto 1..quotient.n, because classes are
    position intervals taken in order.
    """

    _fields = ("quotient", "class_map")

    def __init__(self, quotient: WheelerNfa, class_map: tuple[int, ...]):
        _set(self, "quotient", quotient)
        _set(self, "class_map", class_map)

    def as_relation(self) -> Relation:
        return Relation(
            len(self.class_map),
            self.quotient.n,
            frozenset((p, c) for p, c in enumerate(self.class_map, 1)),
        )


def quotient(a: WheelerNfa, bits: BoundaryBits) -> QuotientResult:
    """Collapse every maximal 0-run of ``bits`` into a single state.

    The result is Wheeler-bisimilar to ``a`` when ``bits`` encodes an
    autobisimulation, as arrays from :func:`boundary_bits` or the oracle do.
    Edges and finals are the images under the class map, the edges
    deduplicated in first-seen order: for an autobisimulation that order is
    already canonical (a merged state's edges repeat its class's first), so
    the one sort is a linear pass.  Raises ValueError when ``bits`` turns a
    deterministic input non-deterministic, as only other bits can.
    """
    if bits.n != a.n:
        raise ValueError(f"bit array covers {bits.n} states, automaton has {a.n}")

    class_map = bits.class_map
    at = (0,) + class_map  # indexed by position

    edges = dict.fromkeys((at[u], at[v], lb) for u, v, lb in a.edges)
    edges = sorted(edges, key=itemgetter(0, 2, 1))
    finals = frozenset(at[f] for f in a.finals)
    q = WheelerNfa._from_canonical(class_map[-1], a.alphabet, tuple(edges), finals)
    if is_deterministic(a) and not is_deterministic(q):
        raise ValueError("quotient of a deterministic automaton went non-deterministic")
    return QuotientResult(q, class_map)


def minimize(a: WheelerNfa) -> QuotientResult:
    """Quotient ``a`` by the maximum order-respecting autobisimulation.

    The result is the unique (up to isomorphism) state-minimal Wheeler NFA
    that is Wheeler-bisimilar to ``a``; minimizing it again is the identity.
    """
    return quotient(a, boundary_bits(a))


def format_trace(trace) -> str:
    """Render trace records one per line, tab-separated."""
    return "".join(f"{event}\t{index}\n" for event, index in trace)
