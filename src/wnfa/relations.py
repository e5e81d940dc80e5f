"""Relation algebra, boundary-bit arrays, bisimulation checkers, ``.rel`` I/O.

The checkers stick to the definitions: they judge the relations users
hand to ``check-relation``, and the brute-force references in
:mod:`wnfa.reference` build on them.  They return ``None`` for a passing
relation and a :class:`CheckFailure` carrying the first witness otherwise,
scanning in a fixed order so failures reproduce exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, compress, islice, product
from operator import itemgetter, ne

from .automaton import (
    ParseError,
    WheelerNfa,
    _blocks,
    _Record,
    _check_range,
    _error,
    _final_flags,
    _lines,
    _out_starts,
    _parse_int,
    _ranks_in,
)


class Relation(_Record):
    """A finite relation between state positions 1..left_size and 1..right_size."""

    _fields = ("left_size", "right_size", "pairs")

    def __init__(self, left_size: int, right_size: int, pairs: Iterable[tuple[int, int]]):
        pairs = frozenset(tuple(p) for p in pairs)
        for i, j in pairs:
            if not (1 <= i <= left_size) or not (1 <= j <= right_size):
                raise ValueError(f"pair ({i}, {j}) out of range")
        super().__init__(left_size, right_size, pairs)

    @staticmethod
    def identity(n: int) -> "Relation":
        return Relation(n, n, ((i, i) for i in range(1, n + 1)))


def inverse(r: Relation) -> Relation:
    return Relation(r.right_size, r.left_size, ((j, i) for i, j in r.pairs))


def compose(outer: Relation, inner: Relation) -> Relation:
    """Relational composition outer o inner: apply ``inner`` first.

    (i, k) is present iff some j has (i, j) in ``inner`` and (j, k) in
    ``outer``.
    """
    if inner.right_size != outer.left_size:
        raise ValueError(
            f"size mismatch: inner is ..x{inner.right_size}, outer is {outer.left_size}x.."
        )
    step: dict[int, list[int]] = {}
    for j, k in outer.pairs:
        step.setdefault(j, []).append(k)
    pairs = ((i, k) for i, j in inner.pairs for k in step.get(j, ()))
    return Relation(inner.left_size, outer.right_size, pairs)


def _class_pairs(class_map1, class_map2) -> Iterator[tuple[int, int]]:
    """The pairs (p, q) with ``class_map1[p - 1] == class_map2[q - 1]``, ascending.

    Both maps must be monotone non-decreasing, as class maps of quotients
    are.  So each class is an interval of positions in either map, found by
    bisection once per class, and its pairs are the product of the two
    intervals.
    """
    for c in dict.fromkeys(class_map1):
        ps = range(bisect_left(class_map1, c) + 1, bisect_right(class_map1, c) + 1)
        qs = range(bisect_left(class_map2, c) + 1, bisect_right(class_map2, c) + 1)
        yield from product(ps, qs)


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


class CheckFailure(_Record):
    """First violation found by a bisimulation check.

    ``rule`` is one of forward, backward, initial, finality (the four parts
    of the bisimulation definition, in check order) or image-convexity /
    preimage-convexity (the two order-compatibility requirements).
    """

    _fields = ("rule", "pair", "edge", "interval", "image")
    _defaults = (None,) * 4

    def describe(self) -> str:
        if self.rule in ("forward", "backward"):
            side = "left" if self.rule == "forward" else "right"
            return (
                f"{self.rule}: pair {self.pair} cannot match the {side} edge "
                f"(src={self.edge[0]}, dst={self.edge[1]}, label-rank={self.edge[2]})"
            )
        if self.rule == "initial":
            return "initial: the pair (1, 1) is missing"
        if self.rule == "finality":
            return f"finality: pair {self.pair} disagrees on acceptance"
        return (
            f"{self.rule}: interval {self.interval} maps to the non-convex set "
            f"{sorted(self.image)}"
        )


def is_bisimulation(a: WheelerNfa, a2: WheelerNfa, rel: Relation) -> CheckFailure | None:
    """Check the four requirements of a bisimulation, in definition order.

    Returns None when ``rel`` is a bisimulation from ``a`` to ``a2``; else
    the first failure in a deterministic scan (pairs sorted, each state's
    edges in canonical label-then-target order).  Edges match by token, so
    the two alphabets may rank their tokens differently; a failure names the
    label by its rank in its own automaton.
    """
    return _bisimulation_failure(a, a2, rel, sorted(rel.pairs))


def _bisimulation_failure(a: WheelerNfa, a2: WheelerNfa, rel: Relation, pairs):
    """:func:`is_bisimulation`, given ``rel``'s pairs already sorted as ``pairs``."""
    if (rel.left_size, rel.right_size) != (a.n, a2.n):
        raise ValueError(
            f"relation {rel.left_size} {rel.right_size} does not match the automata, "
            f"which have {a.n} and {a2.n} states"
        )
    starts1, final1 = _out_starts(a), _final_flags(a)
    starts2, final2 = (starts1, final1) if a2 is a else (_out_starts(a2), _final_flags(a2))
    targets1, labels1, targets2, labels2 = a.targets, a.labels, a2.targets, a2.labels
    to2, to1 = _ranks_in(a, a2), _ranks_in(a2, a)
    related = rel.pairs

    def with_out_edges(starts, side):
        """The pairs whose entry ``side`` has an out-edge, picked out in C."""
        has_out = bytes(map(ne, starts, islice(starts, 1, None)))  # has_out[u]: u has one
        return compress(pairs, map(has_out.__getitem__, map(itemgetter(side), pairs)))

    # labels ascend in a state's range: bisection finds the run of an edge's token
    for u, u2 in with_out_edges(starts1, 0):
        lo, hi = starts2[u2], starts2[u2 + 1]
        for k in range(starts1[u], starts1[u + 1]):
            v, lab = targets1[k], to2[labels1[k]]
            j = hi if lab is None else bisect_left(labels2, lab, lo, hi)
            while j < hi and labels2[j] == lab:
                if (v, targets2[j]) in related:
                    break
                j += 1
            else:
                return CheckFailure("forward", pair=(u, u2), edge=(u, v, labels1[k]))
    for u, u2 in with_out_edges(starts2, 1):
        lo, hi = starts1[u], starts1[u + 1]
        for k in range(starts2[u2], starts2[u2 + 1]):
            v2, lab = targets2[k], to1[labels2[k]]
            j = hi if lab is None else bisect_left(labels1, lab, lo, hi)
            while j < hi and labels1[j] == lab:
                if (targets1[j], v2) in related:
                    break
                j += 1
            else:
                return CheckFailure("backward", pair=(u, u2), edge=(u2, v2, labels2[k]))
    if (1, 1) not in related:
        return CheckFailure("initial")
    for u, u2 in pairs:
        if final1[u] != final2[u2]:
            return CheckFailure("finality", pair=(u, u2))
    return None


def _minimal_nonconvex_interval(pairs: list[tuple[int, int]], pos: int):
    """The first minimal interval of positions whose image is not convex.

    ``pairs`` are distinct and sorted by entry ``pos``, a position, then by
    the other entry, so each related position's image is one ascending run:
    lo is its first entry, hi its last, and its size is the run's length.
    Every interval has a convex image iff every per-position image is convex
    and each non-empty image overlaps or touches the previous non-empty one,
    since a union of intervals chained that way is an interval, and two
    nearest non-empty images are together the image of the interval between
    them.  So one pass over the runs finds the failing interval with the
    smallest right end, and it is minimal: either one position, or the span
    back to the previous run.  Returns (interval, image), the image as a
    frozenset because :class:`CheckFailure` hashes it, or None.
    """
    img = itemgetter(1 - pos)
    entries = zip(map(itemgetter(pos), pairs), map(img, pairs))
    prev = p = None
    # the (None, None) sentinel closes the last run
    for k, (q, x) in enumerate(chain(entries, [(None, None)])):
        if q == p:
            hi = x
            continue
        if p is not None:
            if hi - lo + 1 != k - start:
                return (p, p), frozenset(map(img, pairs[start:k]))
            if prev is not None and (lo > prev_hi + 1 or hi < prev_lo - 1):
                return (prev, p), frozenset(map(img, pairs[prev_start:k]))
            prev, prev_start, prev_lo, prev_hi = p, start, lo, hi
        p, start, lo, hi = q, k, x, x
    return None


def is_wheeler_bisimulation(a: WheelerNfa, a2: WheelerNfa, rel: Relation) -> CheckFailure | None:
    """Check that ``rel`` is a bisimulation that also respects both orders.

    On top of :func:`is_bisimulation`, every convex set of source states
    must map to a convex set of target states, and symmetrically for
    preimages; under position orders the convex sets are the intervals.
    Sorted once, the pairs hold each position's image as one run, and a
    stable sort by the right entry then holds each preimage as one.  One
    pass per side returns the first minimal interval with a non-convex image.
    """
    pairs = sorted(rel.pairs)
    failure = _bisimulation_failure(a, a2, rel, pairs)
    if failure is not None:
        return failure
    hit, rule = _minimal_nonconvex_interval(pairs, 0), "image-convexity"
    if hit is None:
        pairs.sort(key=itemgetter(1))
        hit, rule = _minimal_nonconvex_interval(pairs, 1), "preimage-convexity"
    return hit and CheckFailure(rule, interval=hit[0], image=hit[1])


# --------------------------------------------------------------------------
# .rel text format:  header "relation <n> <n'>", then "pair <i> <j>" lines.
# Same comment and blank-line rules as .wnfa documents.
# --------------------------------------------------------------------------


def parse_relation(text: str) -> Relation:
    left = right = None
    pairs = []
    for lineno, line, toks in _lines(text):
        kw = toks[0]
        if kw == "relation":
            if left is not None:
                raise _error("repeated relation line", lineno, line)
            if len(toks) != 3:
                raise _error("relation line takes: relation <n> <n'>", lineno, line)
            left = _parse_int("size", lineno, line, toks, 1)
            right = _parse_int("size", lineno, line, toks, 2)
            for k, size in ((1, left), (2, right)):
                if size < 1:
                    raise _error("size must be >= 1", lineno, line, k)
        elif kw == "pair":
            if left is None:
                raise _error("pair line before relation line", lineno, line)
            if len(toks) != 3:
                raise _error("pair line takes: pair <i> <j>", lineno, line)
            i = _parse_int("index", lineno, line, toks, 1)
            j = _parse_int("index", lineno, line, toks, 2)
            _check_range("index", i, left, lineno, line, 1)
            _check_range("index", j, right, lineno, line, 2)
            pairs.append((i, j))
        else:
            raise _error(f"unknown directive {kw!r}", lineno, line)
    if left is None:
        raise ParseError("missing relation line", len(text.splitlines()) + 1)
    return Relation(left, right, pairs)


def _relation_blocks(left_size: int, right_size: int, pairs) -> Iterator[str]:
    """The ``.rel`` document of ``pairs``, which must come sorted, block by block."""
    yield f"relation {left_size} {right_size}\n"
    yield from _blocks(f"pair {i} {j}\n" for i, j in pairs)


def serialize_relation(r: Relation) -> str:
    return "".join(_relation_blocks(r.left_size, r.right_size, sorted(r.pairs)))
