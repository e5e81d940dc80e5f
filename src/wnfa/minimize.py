"""Linear-time minimization of Wheeler NFAs.

The pipeline has three stages, all O(|E|) with label ranks bounded by the
alphabet size:

1. :func:`compute_extrema` makes one pass over the edges in the
   constructor's canonical (source, label, target) order to find, for every
   state, the extreme (label, source) pairs among its incoming edges, and
   whether its outgoing labels differ from those of the state before it.
2. :func:`boundary_bits` runs a single queue-driven propagation that marks
   each boundary between order-adjacent states that must separate.  The 0
   bits that survive, a :class:`BoundaryBits`, encode the maximum
   order-respecting autobisimulation.
3. :func:`quotient` collapses each maximal 0-run into one state;
   :func:`minimize` reads the same quotient off each class's first member.

Stage 2 never enqueues a boundary index twice, which is both the linearity
argument and a testable invariant (at most n-1 enqueues per run).  Its
queue is also the whole record of the run: one generator replays the
``--trace`` events from it as they are read, so the propagation loop does
no trace work, and no list of events is held.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate, compress, islice

from .automaton import WheelerNfa, _blocks, _columns, _final_flags, _Record, _runs, is_deterministic

TRACE_SEED = "SEED"
TRACE_DEQUEUE = "DEQUEUE"
TRACE_SET_JMIN = "SET-from-jmin"
TRACE_SET_JMAX = "SET-from-jmax"


class IncidenceExtrema(_Record):
    """Per-state incoming-edge extremes, and where outgoing labels change.

    For state i >= 2 (and for state 1 when it has in-edges): ``a_min[i]`` /
    ``j_min[i]`` are the label and source of the (label, source)-least
    incoming edge, ``a_max[i]`` / ``j_max[i]`` of the greatest.  ``None``
    marks a state without incoming edges.  ``z[i]`` (2 <= i <= n) records
    whether states i-1 and i differ in their sets of outgoing labels.  Each
    field is a list indexed by state, and index 0 (and 1 in ``z``) is
    padding.
    """

    _fields = ("a_min", "j_min", "a_max", "j_max", "z")


def compute_extrema(a: WheelerNfa) -> IncidenceExtrema:
    """One pass over ``a``'s edge columns in canonical (source, label, target) order.

    Sources ascend, so for target v a strictly smaller label gives a new
    (label, source) minimum and a label at least the current maximum gives
    a new maximum (a later edge into v never has a smaller source).  Each
    source's labels are contiguous and ascending, so its run of distinct
    labels is its outgoing-label set, in order; ``z`` compares each run with
    the run of the state before it, the empty run for a state without
    out-edges, in the same pass.
    """
    n = a.n
    a_min: list[int | None] = [None] * (n + 1)
    j_min: list[int | None] = [None] * (n + 1)
    a_max: list[int | None] = [None] * (n + 1)
    j_max: list[int | None] = [None] * (n + 1)
    z = [False] * (n + 1)

    s = 0
    run: list[int] = []  # the distinct labels of source s so far
    before: list[int] = []  # the run of state s - 1
    for u, v, lab in zip(a.sources, a.targets, a.labels):
        if u != s:
            if s > 1:
                z[s] = run != before
            if s and u > s + 1:
                z[s + 1] = True  # s has out-edges, s + 1 has none
            before = run if u == s + 1 else []
            s, run = u, [lab]
        elif run[-1] != lab:
            run.append(lab)
        cur = a_min[v]
        if cur is None:
            a_min[v], j_min[v], a_max[v], j_max[v] = lab, u, lab, u
        elif lab < cur:
            a_min[v], j_min[v] = lab, u
        elif lab >= a_max[v]:
            a_max[v], j_max[v] = lab, u
    if s > 1:
        z[s] = run != before
    if 0 < s < n:
        z[s + 1] = True

    return IncidenceExtrema(a_min, j_min, a_max, j_max, z)


class BoundaryBits(_Record):
    """Class boundaries of a convex equivalence on positions 1..n.

    ``bit(i)`` (for 2 <= i <= n) is True when positions i-1 and i fall in
    different classes, so the classes are exactly the maximal 0-runs.
    """

    _fields = ("n", "bits")

    def __init__(self, n: int, bits: Iterable[bool]):
        if n < 1:
            raise ValueError("state count must be >= 1")
        bits = tuple(map(bool, bits))
        if len(bits) != n - 1:
            raise ValueError("bit array must cover boundaries 2..n")
        super().__init__(n, bits)

    def bit(self, i: int) -> bool:
        if not (2 <= i <= self.n):
            raise IndexError(f"boundary index {i} out of range 2..{self.n}")
        return self.bits[i - 2]

    @property
    def num_classes(self) -> int:
        return 1 + sum(self.bits)

    @property
    def class_map(self) -> tuple[int, ...]:
        """``class_map[p - 1]`` is the class of position p, numbered from 1.

        Each 1 bit starts a new class, so the map is monotone
        non-decreasing and onto 1..num_classes.
        """
        return tuple(accumulate(self.bits, initial=1))


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

    ``trace``, when given, is extended with the run's (event, index)
    records, which :func:`_replay` reads off the queue after the loop.
    """
    bits, run = _propagate(a)
    if trace is not None:
        trace.extend(_replay(*run))
    return bits


def _propagate(a: WheelerNfa) -> tuple[BoundaryBits, tuple]:
    """:func:`boundary_bits`' queue pass: the bits, and the run ``(queue,
    seeds, j_min, j_max)`` that :func:`_replay` reads the trace off."""
    n = a.n
    ex = compute_extrema(a)
    j_min, j_max, z, final = ex.j_min, ex.j_max, ex.z, _final_flags(a)
    bits = [False] * (n + 1)
    queue = [i for i in range(2, n + 1) if final[i - 1] != final[i] or z[i]]
    for i in queue:
        bits[i] = True
    seeds = len(queue)

    # appended while iterated: each boundary is enqueued once, in FIFO order
    for i in queue:
        jm = j_min[i]
        if jm is not None and jm >= 2 and not bits[jm]:
            queue.append(jm)
            bits[jm] = True
        jx = j_max[i - 1]
        if jx is not None and jx <= n - 1 and not bits[jx + 1]:
            queue.append(jx + 1)
            bits[jx + 1] = True

    return BoundaryBits(n, islice(bits, 2, None)), (queue, seeds, j_min, j_max)


def _replay(queue: list, seeds: int, j_min: list, j_max: list) -> Iterator[tuple[str, int]]:
    """The (event, index) records of a run from :func:`_propagate`, in execution order.

    SEED, DEQUEUE, SET-from-jmin, SET-from-jmax, each built as it is read:
    a dequeued boundary i appended exactly the next unmatched queue entries
    equal to ``j_min[i]`` and then ``j_max[i-1] + 1``, as a boundary already
    cut sits earlier in the queue, which holds each of 2..n at most once.
    """
    for i in islice(queue, seeds):
        yield TRACE_SEED, i
    k, end = seeds, len(queue)  # queue[k]: the first cut not yet replayed
    for i in queue:
        yield TRACE_DEQUEUE, i
        if k < end and queue[k] == j_min[i]:
            yield TRACE_SET_JMIN, queue[k]
            k += 1
        jx = j_max[i - 1]
        if k < end and jx is not None and queue[k] == jx + 1:
            yield TRACE_SET_JMAX, queue[k]
            k += 1


class QuotientResult(_Record):
    """A quotient automaton plus the class map that produced it.

    ``class_map[p - 1]`` is the quotient position of input position p; it is
    monotone non-decreasing and onto 1..quotient.n, because classes are
    position intervals taken in order.
    """

    _fields = ("quotient", "class_map")

    def as_relation(self) -> Relation:
        from .relations import Relation

        return Relation(len(self.class_map), self.quotient.n, enumerate(self.class_map, 1))


def quotient(a: WheelerNfa, bits: BoundaryBits) -> QuotientResult:
    """Collapse every maximal 0-run of ``bits`` into a single state.

    The result is Wheeler-bisimilar to ``a`` when ``bits`` encodes an
    autobisimulation, as arrays from :func:`boundary_bits` or the oracle do.
    Edges and accepting positions are the images under the class map, the
    edges deduplicated in first-seen order: for an autobisimulation that
    order is already canonical (a merged state's edges repeat its class's
    first), so the one sort is a linear pass.  The class map is monotone,
    so the accepting images ascend, and dropping repeated neighbours leaves
    them without repeats.  When no two states merge, the result holds ``a``
    itself.  Raises ValueError when ``bits`` turns a deterministic input
    non-deterministic, as only other bits can.
    """
    if bits.n != a.n:
        raise ValueError(f"bit array covers {bits.n} states, automaton has {a.n}")

    class_map = bits.class_map
    if class_map[-1] == a.n:
        return QuotientResult(a, class_map)
    at = (0,) + class_map  # indexed by position

    # (source, label, target) images, so the canonical order is the tuples' own
    images = zip(map(at.__getitem__, a.sources), a.labels, map(at.__getitem__, a.targets))
    keys = sorted(dict.fromkeys(images))
    sources, labels, targets = _columns(keys)
    accepting = _runs(map(at.__getitem__, a.accepting))
    q = WheelerNfa._from_canonical(class_map[-1], a.alphabet, sources, targets, labels, accepting)
    if is_deterministic(a) and not is_deterministic(q):
        raise ValueError("quotient of a deterministic automaton went non-deterministic")
    return QuotientResult(q, class_map)


def _quotient_by_representatives(a: WheelerNfa, bits: BoundaryBits) -> QuotientResult:
    """:func:`quotient` for bits from :func:`boundary_bits`, read off each class's first member.

    In an autobisimulation every member of a class has the same successor
    classes, so the quotient's edges are the images of the first members'
    out-edges.  Those come in canonical order, and the class map is
    monotone, so the images are in canonical order too once adjacent
    duplicates are dropped, and so are the accepting positions' images: no
    dict, no sort and no determinism check.  On an invalid input, whose bits
    may be no autobisimulation, the result is meaningless but still
    canonical, and nothing is raised.
    """
    class_map = bits.class_map
    if class_map[-1] == a.n:
        return QuotientResult(a, class_map)
    at = (0,) + class_map  # indexed by position
    first = bytearray(b"\0\1") + bytearray(bits.bits)  # first[p]: p starts its class
    keep = bytes(map(first.__getitem__, a.sources))
    kept = zip(
        compress(a.sources, keep),
        map(at.__getitem__, compress(a.targets, keep)),
        compress(a.labels, keep),
    )
    sources: list[int] = []
    targets: list[int] = []
    labels: list[int] = []
    s = t = lb = 0  # the last edge kept, its source unmapped
    for u, v, lab in kept:
        if v != t or lab != lb or u != s:
            s, t, lb = u, v, lab
            sources.append(at[u])
            targets.append(v)
            labels.append(lab)
    accepting = _runs(map(at.__getitem__, a.accepting))
    q = WheelerNfa._from_canonical(class_map[-1], a.alphabet, sources, targets, labels, accepting)
    return QuotientResult(q, class_map)


def minimize(a: WheelerNfa) -> QuotientResult:
    """Quotient ``a`` by the maximum order-respecting autobisimulation.

    The result is the unique (up to isomorphism) state-minimal Wheeler NFA
    that is Wheeler-bisimilar to ``a``; minimizing it again is the identity.
    It equals ``quotient(a, boundary_bits(a))``, built in one pass over the
    edges of each class's first member.
    """
    return _quotient_by_representatives(a, boundary_bits(a))


def _trace_blocks(trace) -> Iterator[str]:
    """The trace records one per line, tab-separated, block by block."""
    return _blocks(f"{event}\t{index}\n" for event, index in trace)


def format_trace(trace) -> str:
    """Render trace records one per line, tab-separated."""
    return "".join(_trace_blocks(trace))
