"""Relation algebra, bisimulation checkers, and brute-force references.

Everything here is written for clarity over speed: these are the arbiters
that the linear-time pipeline in :mod:`wnfa.minimize` is tested against, so
they stick to the definitions.  The checkers return ``None`` for a passing
relation and a :class:`CheckFailure` carrying the first witness otherwise,
scanning in a fixed order so failures reproduce exactly.
"""

from __future__ import annotations

import itertools

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

    def image(self, positions) -> frozenset[int]:
        positions = set(positions)
        return frozenset(j for i, j in self.pairs if i in positions)

    def preimage(self, positions) -> frozenset[int]:
        positions = set(positions)
        return frozenset(i for i, j in self.pairs if j in positions)


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


def union(r1: Relation, r2: Relation) -> Relation:
    if (r1.left_size, r1.right_size) != (r2.left_size, r2.right_size):
        raise ValueError("size mismatch")
    return Relation(r1.left_size, r1.right_size, r1.pairs | r2.pairs)


def is_convex(positions) -> bool:
    """True iff the position set is a contiguous interval (or empty)."""
    positions = set(positions)
    if not positions:
        return True
    return max(positions) - min(positions) + 1 == len(positions)


class Partition(_Record):
    """A partition of positions 1..n; classes need not be intervals.

    ``class_of[p - 1]`` is the class id of position p.  Ids are consecutive
    from 0, numbered by first occurrence.
    """

    _fields = ("n", "class_of")

    def __init__(self, n: int, class_of: tuple[int, ...]):
        class_of = tuple(class_of)
        if len(class_of) != n:
            raise ValueError("class_of must assign every position")
        next_id = 0
        for c in class_of:
            if c == next_id:
                next_id += 1
            elif c not in range(next_id):
                raise ValueError("class ids must be consecutive from 0 by first use")
        _set(self, "n", n)
        _set(self, "class_of", class_of)

    @property
    def num_classes(self) -> int:
        return max(self.class_of) + 1 if self.class_of else 0

    def classes(self) -> list[tuple[int, ...]]:
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for p, c in enumerate(self.class_of, 1):
            out[c].append(p)
        return [tuple(members) for members in out]

    def to_relation(self) -> Relation:
        pairs = set()
        for members in self.classes():
            pairs.update(itertools.product(members, members))
        return Relation(self.n, self.n, frozenset(pairs))


class BoundaryBits(_Record):
    """Class boundaries of a convex equivalence on positions 1..n.

    ``bit(i)`` (for 2 <= i <= n) is True when positions i-1 and i fall in
    different classes, so the classes are exactly the maximal 0-runs.
    """

    _fields = ("n", "bits")

    def __init__(self, n: int, bits: tuple[bool, ...]):
        bits = tuple(bool(b) for b in bits)
        if len(bits) != max(n - 1, 0):
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

    def class_intervals(self) -> list[tuple[int, int]]:
        out = []
        start = 1
        for i in range(2, self.n + 1):
            if self.bit(i):
                out.append((start, i - 1))
                start = i
        out.append((start, self.n))
        return out


def equivalence_from_bits(b: BoundaryBits) -> Partition:
    """Read the bit array as a partition: a 0 bit joins adjacent positions."""
    class_of = []
    cls = 0
    for p in range(1, b.n + 1):
        if p > 1 and b.bit(p):
            cls += 1
        class_of.append(cls)
    return Partition(b.n, tuple(class_of))


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
    edges sorted by label then target).  Edges match by token, so the two
    alphabets may rank their tokens differently; a failure names the label
    by its rank in its own automaton.
    """
    if (rel.left_size, rel.right_size) != (a.n, a2.n):
        raise ValueError("relation size does not match the automata")
    succ1 = _successors(a)
    succ2 = _successors(a2)
    to2 = _ranks_in(a, a2)
    to1 = _ranks_in(a2, a)
    pairs = sorted(rel.pairs)

    for u, u2 in pairs:
        for lab in sorted(succ1[u]):
            for v in sorted(succ1[u][lab]):
                if not any((v, v2) in rel.pairs for v2 in succ2[u2].get(to2[lab], ())):
                    return CheckFailure("forward", pair=(u, u2), edge=(u, v, lab))
    for u, u2 in pairs:
        for lab in sorted(succ2[u2]):
            for v2 in sorted(succ2[u2][lab]):
                if not any((v, v2) in rel.pairs for v in succ1[u].get(to1[lab], ())):
                    return CheckFailure("backward", pair=(u, u2), edge=(u2, v2, lab))
    if (1, 1) not in rel.pairs:
        return CheckFailure("initial")
    for u, u2 in pairs:
        if (u in a.finals) != (u2 in a2.finals):
            return CheckFailure("finality", pair=(u, u2))
    return None


def _minimal_nonconvex_interval(images: list[frozenset[int]]):
    """The first minimal interval of positions whose image is not convex.

    ``images[p]`` is the image of position p (index 0 unused).  Every
    interval has a convex image iff every per-position image is convex and
    each non-empty image overlaps or touches the previous non-empty one,
    since a union of intervals chained that way is an interval, and two
    nearest non-empty images are together the image of the interval between
    them.  So one pass finds the failing interval with the smallest right
    end, and it is minimal: either one position, or the span back to the
    previous non-empty image.  Returns (interval, image), or None when
    every interval's image is convex.
    """
    prev = prev_lo = prev_hi = None
    for p, image in enumerate(images):
        if not image:
            continue
        lo, hi = min(image), max(image)
        if hi - lo + 1 != len(image):
            return (p, p), image
        if prev is not None and (lo > prev_hi + 1 or hi < prev_lo - 1):
            return (prev, p), images[prev] | image
        prev, prev_lo, prev_hi = p, lo, hi
    return None


def is_wheeler_bisimulation(a: WheelerNfa, a2: WheelerNfa, rel: Relation) -> CheckFailure | None:
    """Check that ``rel`` is a bisimulation that also respects both orders.

    On top of :func:`is_bisimulation`, every convex set of source states
    must map to a convex set of target states, and symmetrically for
    preimages.  Under position orders the convex sets are exactly the
    intervals.  One linear pass per side decides whether all of them are
    convex and, when one is not, returns the first minimal interval with a
    non-convex image as the witness.
    """
    failure = is_bisimulation(a, a2, rel)
    if failure is not None:
        return failure

    fwd: list[frozenset[int]] = [frozenset()] * (a.n + 1)
    back: list[frozenset[int]] = [frozenset()] * (a2.n + 1)
    fwd_tmp: list[set[int]] = [set() for _ in range(a.n + 1)]
    back_tmp: list[set[int]] = [set() for _ in range(a2.n + 1)]
    for i, j in rel.pairs:
        fwd_tmp[i].add(j)
        back_tmp[j].add(i)
    for i in range(1, a.n + 1):
        fwd[i] = frozenset(fwd_tmp[i])
    for j in range(1, a2.n + 1):
        back[j] = frozenset(back_tmp[j])

    for rule, images in (("image-convexity", fwd), ("preimage-convexity", back)):
        hit = _minimal_nonconvex_interval(images)
        if hit is not None:
            interval, image = hit
            return CheckFailure(rule, interval=interval, image=image)
    return None


def max_standard_autobisimulation(a: WheelerNfa) -> Partition:
    """Coarsest partition whose class relation is a bisimulation from a to a.

    Plain signature refinement: start from the final/non-final split and
    split any class containing two states that disagree on the set of
    (label, successor-class) pairs, until a fixpoint.  O(n |E|) worst case,
    which is fine for a desk-scale baseline.
    """
    succ = _successors(a)

    def renumber(keys: list) -> list[int]:
        ids: dict = {}
        out = []
        for key in keys:
            if key not in ids:
                ids[key] = len(ids)
            out.append(ids[key])
        return out

    class_of = renumber([p in a.finals for p in range(1, a.n + 1)])
    while True:
        signature = []
        for p in range(1, a.n + 1):
            sig = frozenset(
                (lab, class_of[v - 1]) for lab, targets in succ[p].items() for v in targets
            )
            signature.append((class_of[p - 1], sig))
        new_class_of = renumber(signature)
        if new_class_of == class_of:
            return Partition(a.n, tuple(class_of))
        class_of = new_class_of


def oracle_max_wheeler_autobisimulation(a: WheelerNfa, cap: int = 16) -> BoundaryBits:
    """Maximum order-respecting autobisimulation, by exhaustive search.

    Every candidate is a boundary-bit array over 2..n, i.e. a convex
    equivalence on positions; the maximum is known to have that shape.
    Each candidate's class relation is run through the full
    :func:`is_wheeler_bisimulation` definition, and the bitwise AND of all
    passing arrays (= union of the passing equivalences, which is again a
    passing equivalence) is returned and re-verified.

    Two exact prunings keep the enumeration tractable:

    * a candidate merging adjacent states that differ in acceptance or in
      outgoing-label set would fail the bisimulation definition outright,
      so only boundaries where both agree are allowed to carry a 0;
    * candidates are visited coarsest-first and skipped when all their
      merges are already present in the accumulated union, since they can
      no longer change the result either way.
    """
    n = a.n
    if n > cap:
        raise ValueError(f"oracle input has {n} states, above the cap of {cap}")
    if n == 1:
        return BoundaryBits(1, ())

    out_labels = [frozenset()] * (n + 1)
    succ = _successors(a)
    for p in range(1, n + 1):
        out_labels[p] = frozenset(succ[p])
    mergeable = [
        i
        for i in range(2, n + 1)
        if (i - 1 in a.finals) == (i in a.finals) and out_labels[i - 1] == out_labels[i]
    ]

    accumulated: set[int] = set()
    for size in range(len(mergeable), 0, -1):
        for combo in itertools.combinations(mergeable, size):
            zeros = set(combo)
            if zeros <= accumulated:
                continue
            bits = BoundaryBits(n, tuple(i not in zeros for i in range(2, n + 1)))
            rel = equivalence_from_bits(bits).to_relation()
            if is_wheeler_bisimulation(a, a, rel) is None:
                accumulated |= zeros

    result = BoundaryBits(n, tuple(i not in accumulated for i in range(2, n + 1)))
    check = is_wheeler_bisimulation(a, a, equivalence_from_bits(result).to_relation())
    assert check is None, f"union of passing equivalences failed the checker: {check}"
    return result


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
