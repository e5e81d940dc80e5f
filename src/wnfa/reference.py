"""Brute-force references that the linear-time pipeline is tested against.

These stick to the definitions and are written for clarity over speed.
The oracle judges each candidate with
:func:`wnfa.relations.is_wheeler_bisimulation`, which runs one simulation
clause on the candidate relation and on its converse, then checks convex
images and preimages.  The command line loads this module only for the ``--dev`` commands, and
``import wnfa`` does not load it.
"""

from __future__ import annotations

import itertools

from .automaton import WheelerNfa, _final_flags, _out_starts, _paused
from .minimize import BoundaryBits
from .relations import Relation, _class_pairs, is_wheeler_bisimulation

# the oracle enumerates up to 2^(n-1) convex equivalences
_ORACLE_MAX_STATES = 16


@_paused
def max_standard_autobisimulation(a: WheelerNfa) -> tuple[int, ...]:
    """Class map of the coarsest equivalence that is a bisimulation from a to a.

    Entry p - 1 is the class of position p.  Classes need not be intervals,
    so the map need not be monotone; ids are numbered from 1 in order of
    first use.  Plain signature refinement: start from the final/non-final
    split and split any class containing two states that disagree on the
    set of (label, successor-class) pairs, until a fixpoint.  O(n |E|)
    worst case, which is fine for a desk-scale baseline.
    """
    starts, targets, labels = _out_starts(a), a.targets, a.labels

    def renumber(keys: list) -> list[int]:
        ids: dict = {}
        return [ids.setdefault(key, len(ids) + 1) for key in keys]

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
            return tuple(class_of)
        class_of = new_class_of


def oracle_max_wheeler_autobisimulation(a: WheelerNfa) -> BoundaryBits:
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
    if n > _ORACLE_MAX_STATES:
        raise ValueError(f"oracle input has {n} states, above the cap of {_ORACLE_MAX_STATES}")

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
            cm = BoundaryBits(n, (i not in zeros for i in range(2, n + 1))).class_map
            if is_wheeler_bisimulation(a, a, Relation(n, n, _class_pairs(cm, cm))) is None:
                accumulated |= zeros

    result = BoundaryBits(n, (i not in accumulated for i in range(2, n + 1)))
    cm = result.class_map
    check = is_wheeler_bisimulation(a, a, Relation(n, n, _class_pairs(cm, cm)))
    assert check is None, f"union of passing equivalences failed the checker: {check}"
    return result
