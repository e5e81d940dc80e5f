"""Deciding Wheeler-bisimilarity.

Two Wheeler NFAs admit a Wheeler bisimulation between them iff their
minimized forms are isomorphic, and because both sides carry a total order
there is only one candidate isomorphism: the position-identity map.  That
turns the whole decision into minimize + compare, which is linear in the
input: the quotients' edges are compared as sets, labels matched by token.
When the answer is yes, a concrete witness relation is assembled from the
two class maps the first time a caller reads it; it holds one pair per two
states sharing a quotient state, so it can be quadratic in size.
"""

from __future__ import annotations

from functools import cached_property

from .automaton import WheelerNfa, _Record, _ranks_in, _set
from .minimize import QuotientResult, minimize
from .relations import Relation, compose, inverse

REASON_SIZE_MISMATCH = "SizeMismatch"
REASON_NOT_ISOMORPHIC = "NotIsomorphic"
REASON_ISOMORPHIC = "Isomorphic"


class EquivalenceVerdict(_Record):
    """The answer of :func:`wheeler_bisimilar`, with ``reason`` naming why.

    ``results`` holds the two sides' minimization results when the answer
    is yes and None otherwise; :attr:`witness` is derived from them.
    """

    _fields = ("bisimilar", "reason", "results")

    def __init__(
        self,
        bisimilar: bool,
        reason: str,
        results: tuple[QuotientResult, QuotientResult] | None = None,
    ):
        _set(self, "bisimilar", bisimilar)
        _set(self, "reason", reason)
        _set(self, "results", results)

    @cached_property
    def witness(self) -> Relation | None:
        """A Wheeler bisimulation between the two inputs, or None if none exists.

        Built on first read as (inverse of the second class map) o (the first
        class map): bisimilar quotients coincide position for position.
        """
        if self.results is None:
            return None
        r1, r2 = self.results
        return compose(inverse(r2.as_relation()), r1.as_relation())


def order_respecting_iso(a: WheelerNfa, a2: WheelerNfa) -> bool:
    """Is the position-identity map an isomorphism between ``a`` and ``a2``?

    For Wheeler NFAs this is the only map that can be one, since an
    isomorphism between ordered automata must respect both orders.  Labels
    are compared as tokens: each edge of ``a``, translated to ``a2``'s
    ranks, must be an edge of ``a2``.  Translation keeps distinct edges
    distinct (an edge whose token ``a2`` lacks matches nothing), so with
    equal edge counts this makes the edge sets equal.
    """
    if a.n != a2.n or a.finals != a2.finals or len(a.edges) != len(a2.edges):
        return False
    to2 = _ranks_in(a, a2)
    edges2 = set(a2.edges)
    return all((u, v, to2[lab]) in edges2 for u, v, lab in a.edges)


def wheeler_bisimilar(a: WheelerNfa, a2: WheelerNfa) -> EquivalenceVerdict:
    """Decide whether some Wheeler bisimulation relates ``a`` and ``a2``.

    Minimizes both sides and compares the quotients under the unique
    order-respecting candidate map, in linear time.  When they match, the
    verdict keeps both minimization results, and its
    :attr:`~EquivalenceVerdict.witness` (built when first read) is a
    relation the Wheeler-bisimulation checker accepts.
    """
    r1 = minimize(a)
    r2 = minimize(a2)
    if r1.quotient.n != r2.quotient.n:
        return EquivalenceVerdict(False, REASON_SIZE_MISMATCH)
    if not order_respecting_iso(r1.quotient, r2.quotient):
        return EquivalenceVerdict(False, REASON_NOT_ISOMORPHIC)
    return EquivalenceVerdict(True, REASON_ISOMORPHIC, (r1, r2))
