"""Brute-force references that the linear-time pipeline is tested against.

These stick to the definitions and are written for clarity over speed.
The command line loads this module only for the ``--dev`` commands, and
``import wnfa`` does not load it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .automaton import WheelerNfa, _final_flags, _out_starts, _Record
from .relations import BoundaryBits, Relation, is_wheeler_bisimulation


class Partition(_Record):
    """A partition of positions 1..n; classes need not be intervals.

    ``class_of[p - 1]`` is the class id of position p.  Ids are consecutive
    from 0, numbered by first occurrence.
    """

    _fields = ("n", "class_of")

    def __init__(self, n: int, class_of: Iterable[int]):
        class_of = tuple(class_of)
        if len(class_of) != n:
            raise ValueError("class_of must assign every position")
        next_id = 0
        for c in class_of:
            if c == next_id:
                next_id += 1
            elif c not in range(next_id):
                raise ValueError("class ids must be consecutive from 0 by first use")
        super().__init__(n, class_of)

    @property
    def num_classes(self) -> int:
        return max(self.class_of) + 1 if self.class_of else 0

    def classes(self) -> list[tuple[int, ...]]:
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for p, c in enumerate(self.class_of, 1):
            out[c].append(p)
        return [tuple(members) for members in out]

    def to_relation(self) -> Relation:
        pairs = (p for c in self.classes() for p in itertools.product(c, c))
        return Relation(self.n, self.n, pairs)


def equivalence_from_bits(b: BoundaryBits) -> Partition:
    """Read the bit array as a partition: a 0 bit joins adjacent positions."""
    return Partition(b.n, (c - 1 for c in b.class_map))


def max_standard_autobisimulation(a: WheelerNfa) -> Partition:
    """Coarsest partition whose class relation is a bisimulation from a to a.

    Plain signature refinement: start from the final/non-final split and
    split any class containing two states that disagree on the set of
    (label, successor-class) pairs, until a fixpoint.  O(n |E|) worst case,
    which is fine for a desk-scale baseline.
    """
    starts, targets, labels = _out_starts(a), a.targets, a.labels

    def renumber(keys: list) -> list[int]:
        ids: dict = {}
        return [ids.setdefault(key, len(ids)) for key in keys]

    class_of = renumber(_final_flags(a)[1:])
    while True:
        signature = []
        for p in range(1, a.n + 1):
            sig = frozenset(
                (labels[k], class_of[targets[k] - 1]) for k in range(starts[p], starts[p + 1])
            )
            signature.append((class_of[p - 1], sig))
        new_class_of = renumber(signature)
        if new_class_of == class_of:
            return Partition(a.n, class_of)
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

    starts, final = _out_starts(a), _final_flags(a)
    out_labels = [frozenset(a.labels[starts[p] : starts[p + 1]]) for p in range(n + 1)]
    mergeable = [
        i
        for i in range(2, n + 1)
        if final[i - 1] == final[i] and out_labels[i - 1] == out_labels[i]
    ]

    accumulated: set[int] = set()
    for size in range(len(mergeable), 0, -1):
        for combo in itertools.combinations(mergeable, size):
            zeros = set(combo)
            if zeros <= accumulated:
                continue
            bits = BoundaryBits(n, (i not in zeros for i in range(2, n + 1)))
            rel = equivalence_from_bits(bits).to_relation()
            if is_wheeler_bisimulation(a, a, rel) is None:
                accumulated |= zeros

    result = BoundaryBits(n, (i not in accumulated for i in range(2, n + 1)))
    check = is_wheeler_bisimulation(a, a, equivalence_from_bits(result).to_relation())
    assert check is None, f"union of passing equivalences failed the checker: {check}"
    return result
