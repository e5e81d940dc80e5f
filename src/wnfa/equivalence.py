"""Deciding Wheeler-bisimilarity.

Two Wheeler NFAs admit a Wheeler bisimulation between them iff their
minimized forms are isomorphic, and because both sides carry a total order
there is only one candidate isomorphism: the position-identity map.  That
turns the whole decision into minimize + compare, which is linear in the
input: the quotients' edge columns are compared as they are under one
alphabet, else their edges as sets, labels matched by token.  A yes
answer's witness is built from the two class maps when first read; it holds
one pair per two states sharing a quotient state, so it can be quadratic.
"""

from __future__ import annotations

from functools import cached_property

from .automaton import WheelerNfa, _Record, _ranks_in
from .minimize import QuotientResult, minimize
from .relations import Relation, _class_pairs

REASON_SIZE_MISMATCH = "SizeMismatch"
REASON_NOT_ISOMORPHIC = "NotIsomorphic"
REASON_ISOMORPHIC = "Isomorphic"


class EquivalenceVerdict(_Record):
    """The answer of :func:`wheeler_bisimilar`, with ``reason`` naming why.

    ``results`` holds the two sides' minimization results when the answer
    is yes and None otherwise; :attr:`witness` is derived from them.
    """

    _fields = ("bisimilar", "reason", "results")
    _defaults = (None,)

    @cached_property
    def witness(self) -> Relation | None:
        """A Wheeler bisimulation between the two inputs, or None if none exists.

        Built on first read from the two class maps: bisimilar quotients
        coincide position for position, so p and q are related when they map
        to the same quotient state.
        """
        if self.results is None:
            return None
        m1, m2 = (r.class_map for r in self.results)
        return Relation(len(m1), len(m2), _class_pairs(m1, m2))


def order_respecting_iso(a: WheelerNfa, a2: WheelerNfa) -> bool:
    """Is the position-identity map an isomorphism between ``a`` and ``a2``?

    For Wheeler NFAs this is the only map that can be one, since an
    isomorphism between ordered automata must respect both orders.  Labels
    are compared as tokens: each edge of ``a``, translated to ``a2``'s
    ranks, must be an edge of ``a2``.  Translation keeps distinct edges
    distinct (an edge whose token ``a2`` lacks matches nothing), so with
    equal edge counts this makes the edge sets equal.  Under one alphabet,
    ranks are tokens and both sides' edges are in canonical order, so the
    sets are equal iff the three column pairs are.
    """
    if a.n != a2.n or a.accepting != a2.accepting or len(a.sources) != len(a2.sources):
        return False
    if a.alphabet == a2.alphabet:
        return a.sources == a2.sources and a.targets == a2.targets and a.labels == a2.labels
    to2 = _ranks_in(a, a2)
    edges2 = set(zip(a2.sources, a2.targets, a2.labels))
    return all(map(edges2.__contains__, zip(a.sources, a.targets, map(to2.__getitem__, a.labels))))


def compare_minimized(r1: QuotientResult, r2: QuotientResult) -> EquivalenceVerdict:
    """The verdict on two inputs, from their minimization results.

    The inputs are Wheeler-bisimilar iff their quotients have the same size
    and the position-identity map is an isomorphism between them.
    """
    if r1.quotient.n != r2.quotient.n:
        return EquivalenceVerdict(False, REASON_SIZE_MISMATCH)
    if not order_respecting_iso(r1.quotient, r2.quotient):
        return EquivalenceVerdict(False, REASON_NOT_ISOMORPHIC)
    return EquivalenceVerdict(True, REASON_ISOMORPHIC, (r1, r2))


def wheeler_bisimilar(a: WheelerNfa, a2: WheelerNfa) -> EquivalenceVerdict:
    """Decide whether some Wheeler bisimulation relates ``a`` and ``a2``.

    Minimizes both sides and compares the quotients under the unique
    order-respecting candidate map, in linear time.  When they match, the
    verdict keeps both minimization results, and its
    :attr:`~EquivalenceVerdict.witness` (built when first read) is a
    relation the Wheeler-bisimulation checker accepts.
    """
    return compare_minimized(minimize(a), minimize(a2))
