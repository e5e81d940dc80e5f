"""Relation algebra, boundary-bit arrays, bisimulation checkers, ``.rel`` I/O.

The checkers stick to the definitions: they judge the relations users
hand to ``check-relation``, and the brute-force references in
:mod:`wnfa.reference` build on them.  They return ``None`` for a passing
relation and a :class:`CheckFailure` carrying the first witness otherwise,
scanning in a fixed order so failures reproduce exactly.
"""

from __future__ import annotations

from itertools import accumulate

from .automaton import (
    ParseError,
    WheelerNfa,
    _Record,
    _check_range,
    _error,
    _lines,
    _parse_int,
    _ranks_in,
    _set,
    _successors,
)


class Relation(_Record):
    """A finite relation between state positions 1..left_size and 1..right_size."""

    _fields = ("left_size", "right_size", "pairs")

    def __init__(self, left_size: int, right_size: int, pairs: frozenset[tuple[int, int]]):
        pairs = frozenset(tuple(p) for p in pairs)
        for i, j in pairs:
            if not (1 <= i <= left_size) or not (1 <= j <= right_size):
                raise ValueError(f"pair ({i}, {j}) out of range")
        _set(self, "left_size", left_size)
        _set(self, "right_size", right_size)
        _set(self, "pairs", pairs)

    @staticmethod
    def identity(n: int) -> "Relation":
        return Relation(n, n, frozenset((i, i) for i in range(1, n + 1)))


def inverse(r: Relation) -> Relation:
    return Relation(r.right_size, r.left_size, frozenset((j, i) for i, j in r.pairs))


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
    pairs = {(i, k) for i, j in inner.pairs for k in step.get(j, ())}
    return Relation(inner.left_size, outer.right_size, frozenset(pairs))


class BoundaryBits(_Record):
    """Class boundaries of a convex equivalence on positions 1..n.

    ``bit(i)`` (for 2 <= i <= n) is True when positions i-1 and i fall in
    different classes, so the classes are exactly the maximal 0-runs.
    """

    _fields = ("n", "bits")

    def __init__(self, n: int, bits: tuple[bool, ...]):
        if n < 1:
            raise ValueError("state count must be >= 1")
        bits = tuple(bool(b) for b in bits)
        if len(bits) != n - 1:
            raise ValueError("bit array must cover boundaries 2..n")
        _set(self, "n", n)
        _set(self, "bits", bits)

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

    def __init__(
        self,
        rule: str,
        pair: tuple[int, int] | None = None,
        edge: tuple[int, int, int] | None = None,
        interval: tuple[int, int] | None = None,
        image: frozenset[int] | None = None,
    ):
        _set(self, "rule", rule)
        _set(self, "pair", pair)
        _set(self, "edge", edge)
        _set(self, "interval", interval)
        _set(self, "image", image)

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
    if (rel.left_size, rel.right_size) != (a.n, a2.n):
        raise ValueError("relation size does not match the automata")
    succ1 = _successors(a)
    succ2 = _successors(a2)
    to2 = _ranks_in(a, a2)
    to1 = _ranks_in(a2, a)
    pairs = sorted(rel.pairs)

    for u, u2 in pairs:
        for lab, targets in succ1[u].items():
            for v in targets:
                if not any((v, v2) in rel.pairs for v2 in succ2[u2].get(to2[lab], ())):
                    return CheckFailure("forward", pair=(u, u2), edge=(u, v, lab))
    for u, u2 in pairs:
        for lab, targets in succ2[u2].items():
            for v2 in targets:
                if not any((v, v2) in rel.pairs for v in succ1[u].get(to1[lab], ())):
                    return CheckFailure("backward", pair=(u, u2), edge=(u2, v2, lab))
    if (1, 1) not in rel.pairs:
        return CheckFailure("initial")
    for u, u2 in pairs:
        if (u in a.finals) != (u2 in a2.finals):
            return CheckFailure("finality", pair=(u, u2))
    return None


def _minimal_nonconvex_interval(images: dict[int, set[int]]):
    """The first minimal interval of positions whose image is not convex.

    ``images[p]`` is the non-empty image of position p, keyed only by the
    positions the relation relates, so the scan is bounded by it.  Every
    interval has a convex image iff every per-position image is convex and
    each non-empty image overlaps or touches the previous non-empty one,
    since a union of intervals chained that way is an interval, and two
    nearest non-empty images are together the image of the interval between
    them.  So one pass finds the failing interval with the smallest right
    end, and it is minimal: either one position, or the span back to the
    previous non-empty image.  Returns (interval, image), the image as a
    frozenset because :class:`CheckFailure` hashes it, or None when every
    interval's image is convex.
    """
    prev = prev_lo = prev_hi = None
    for p, image in sorted(images.items()):
        lo, hi = min(image), max(image)
        if hi - lo + 1 != len(image):
            return (p, p), frozenset(image)
        if prev is not None and (lo > prev_hi + 1 or hi < prev_lo - 1):
            return (prev, p), frozenset(images[prev] | image)
        prev, prev_lo, prev_hi = p, lo, hi
    return None


def is_wheeler_bisimulation(a: WheelerNfa, a2: WheelerNfa, rel: Relation) -> CheckFailure | None:
    """Check that ``rel`` is a bisimulation that also respects both orders.

    On top of :func:`is_bisimulation`, every convex set of source states
    must map to a convex set of target states, and symmetrically for
    preimages.  Under position orders the convex sets are exactly the
    intervals.  One pass per side over the related positions, in order,
    decides whether all of them are convex and, when one is not, returns
    the first minimal interval with a non-convex image as the witness.
    """
    failure = is_bisimulation(a, a2, rel)
    if failure is not None:
        return failure

    fwd: dict[int, set[int]] = {}
    back: dict[int, set[int]] = {}
    for i, j in rel.pairs:
        fwd.setdefault(i, set()).add(j)
        back.setdefault(j, set()).add(i)

    for rule, images in (("image-convexity", fwd), ("preimage-convexity", back)):
        hit = _minimal_nonconvex_interval(images)
        if hit is not None:
            interval, image = hit
            return CheckFailure(rule, interval=interval, image=image)
    return None


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
    return Relation(left, right, frozenset(pairs))


def serialize_relation(r: Relation) -> str:
    lines = [f"relation {r.left_size} {r.right_size}"]
    lines.extend(f"pair {i} {j}" for i, j in sorted(r.pairs))
    return "\n".join(lines) + "\n"
