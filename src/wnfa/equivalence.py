"""Deciding Wheeler-bisimilarity and comparing languages.

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

from .automaton import WheelerNfa, _Record, _ranks_in, _set, _successors, is_deterministic
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


def dfa_language_bisimulation(a: WheelerNfa, a2: WheelerNfa) -> Relation:
    """Relate states of two Wheeler DFAs reached by a common input string.

    Product reachability from (1, 1) following equal tokens.  When the two
    DFAs recognize the same language, the result is a Wheeler bisimulation;
    callers confirm by running it through the checker, and a check failure
    is the signal that the languages differ.
    """
    for side in (a, a2):
        if not is_deterministic(side):
            raise ValueError("dfa_language_bisimulation needs deterministic inputs")

    succ1 = _successors(a)
    succ2 = _successors(a2)
    to2 = _ranks_in(a, a2)
    seen = {(1, 1)}
    stack = [(1, 1)]
    while stack:
        u, u2 = stack.pop()
        for lab, (v,) in succ1[u].items():
            for v2 in succ2[u2].get(to2[lab], ()):
                if (v, v2) not in seen:
                    seen.add((v, v2))
                    stack.append((v, v2))
    return Relation(a.n, a2.n, frozenset(seen))


def language_sample_equal(a: WheelerNfa, a2: WheelerNfa, max_len: int) -> bool:
    """Do the two automata accept exactly the same words up to ``max_len``?

    Breadth-first walk of the word tree carrying the reachable state subset
    of each automaton; a branch is pruned once both subsets are empty (the
    word then leads nowhere in either language) and repeated subset pairs
    are not re-expanded.
    """
    tokens = sorted(set(a.alphabet.symbols) | set(a2.alphabet.symbols))
    # each token's rank on either side; None where that side lacks it
    ranks = [(a.alphabet.rank.get(tok), a2.alphabet.rank.get(tok)) for tok in tokens]
    succ1 = _successors(a)
    succ2 = _successors(a2)

    start = (frozenset({1}), frozenset({1}))
    frontier = [start]
    visited = {start}
    for _ in range(max_len + 1):
        next_frontier = []
        for s1, s2 in frontier:
            if any(u in a.finals for u in s1) != any(u in a2.finals for u in s2):
                return False
            for r1, r2 in ranks:
                t1 = frozenset(v for u in s1 for v in succ1[u].get(r1, ()))
                t2 = frozenset(v for u in s2 for v in succ2[u].get(r2, ()))
                if not t1 and not t2:
                    continue
                node = (t1, t2)
                if node not in visited:
                    visited.add(node)
                    next_frontier.append(node)
        frontier = next_frontier
    return True
