import itertools
import random

import pytest

from wnfa import (
    OrderedAlphabet,
    Relation,
    WheelerNfa,
    compute_extrema,
    gen_random_wheeler,
)
from wnfa.automaton import _successors


def build(symbols, n, edges, finals) -> WheelerNfa:
    """Assemble an automaton from token-labeled edges."""
    alphabet = OrderedAlphabet(tuple(symbols))
    ranked = tuple((u, v, alphabet.rank_of(tok)) for u, v, tok in edges)
    return WheelerNfa(n, alphabet, ranked, frozenset(finals))


@pytest.fixture
def sample_nfa() -> WheelerNfa:
    """Valid 4-state Wheeler NFA with a two-label state and a back edge."""
    return build(
        "abc",
        4,
        [
            (1, 2, "a"),
            (2, 3, "a"),
            (1, 3, "a"),
            (3, 3, "b"),
            (1, 4, "c"),
            (4, 3, "a"),
            (2, 4, "c"),
            (4, 4, "c"),
        ],
        {3, 4},
    )


@pytest.fixture
def aa_star_loop_first() -> WheelerNfa:
    """Minimal acceptor of aa* with the loop on the initial state."""
    return build("a", 2, [(1, 1, "a"), (1, 2, "a")], {2})


@pytest.fixture
def aa_star_loop_last() -> WheelerNfa:
    """Minimal acceptor of aa* with the loop on the final state."""
    return build("a", 2, [(1, 2, "a"), (2, 2, "a")], {2})


@pytest.fixture
def branchy() -> WheelerNfa:
    """4-state all-final automaton whose b-fan covers three targets."""
    return build(
        "abcd",
        4,
        [
            (1, 2, "a"),
            (1, 2, "b"),
            (1, 3, "b"),
            (1, 4, "b"),
            (1, 4, "c"),
            (2, 4, "d"),
            (4, 4, "d"),
        ],
        {1, 2, 3, 4},
    )


@pytest.fixture
def branchy_variant() -> WheelerNfa:
    """Like branchy but without the b-edge into state 4."""
    return build(
        "abcd",
        4,
        [
            (1, 2, "a"),
            (1, 2, "b"),
            (1, 3, "b"),
            (1, 4, "c"),
            (2, 4, "d"),
            (4, 4, "d"),
        ],
        {1, 2, 3, 4},
    )


@pytest.fixture
def branchy_relation() -> Relation:
    """Standard-but-not-Wheeler bisimulation between branchy and its variant."""
    return Relation(4, 4, frozenset({(1, 1), (2, 2), (3, 3), (4, 4), (4, 2)}))


@pytest.fixture
def two_level_tree() -> WheelerNfa:
    """8-state layered automaton separating plain and order-respecting merges.

    The plain coarsest bisimulation merges the middle layers pairwise, but
    none of those merges respect the position order, so the order-respecting
    classes are all singletons.
    """
    return build(
        "abc",
        8,
        [
            (1, 2, "a"),
            (1, 3, "a"),
            (2, 4, "b"),
            (2, 5, "b"),
            (3, 6, "b"),
            (3, 7, "b"),
            (4, 8, "c"),
            (5, 8, "c"),
            (6, 8, "c"),
            (7, 8, "c"),
        ],
        {4, 6, 8},
    )


def unorderable_three_state() -> list[WheelerNfa]:
    """Both position orders of a 3-state NFA that admits no Wheeler order.

    State u fans out on a, b, c to v and on b to w, with a d-loop on v.
    Whichever of v, w comes second, some label pair lands out of order.
    """
    uvw = build(
        "abcd",
        3,
        [(1, 2, "a"), (1, 2, "b"), (1, 2, "c"), (1, 3, "b"), (2, 2, "d")],
        {1, 2, 3},
    )
    uwv = build(
        "abcd",
        3,
        [(1, 3, "a"), (1, 3, "b"), (1, 3, "c"), (1, 2, "b"), (3, 3, "d")],
        {1, 2, 3},
    )
    return [uvw, uwv]


def brute_accepts(a: WheelerNfa, word) -> bool:
    """Path-enumeration acceptance: independent of the subset construction."""
    ranks = [a.alphabet.rank_of(tok) for tok in word]
    step = {}
    for u, v, lab in a.edges:
        step.setdefault((u, lab), []).append(v)

    def walk(state: int, idx: int) -> bool:
        if idx == len(ranks):
            return state in a.finals
        return any(walk(v, idx + 1) for v in step.get((state, ranks[idx]), ()))

    return walk(1, 0)


def words_up_to(symbols, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(symbols, repeat=length)


# --------------------------------------------------------------------------
# Equal-language Wheeler DFA pairs, via self-loop unrolling.
# --------------------------------------------------------------------------




def unrollable_loops(a: WheelerNfa) -> list[tuple[int, int]]:
    """Self-loops (state, label) that :func:`unroll_self_loop` may expand."""
    ex = compute_extrema(a)
    out_by_label = _successors(a)
    found = []
    for v in range(1, a.n + 1):
        for lab, targets in out_by_label[v].items():
            if targets != [v]:
                continue  # the label must leave v only through the self-loop
            if lab != ex.a_max[v]:
                continue  # the new copy sits right after v, so its single
                # in-label must not undercut v's other in-labels
            if ex.j_max[v] > v:
                continue  # crossing sources would break the equal-label rule
            # the copy replicates v's other out-edges, so each must be the
            # only edge of its label (a duplicated label would cross) and
            # not a second self-loop (its copy would feed the new state a
            # smaller in-label)
            ok = all(
                len(others) == 1 and others != [v]
                for lb, others in out_by_label[v].items()
                if lb != lab
            )
            if ok:
                found.append((v, lab))
    return found


def unroll_self_loop(a: WheelerNfa, v: int, lab: int) -> WheelerNfa:
    """Split state ``v``'s self-loop on ``lab`` into a two-state chain.

    A new state is inserted at position v+1: the loop edge is redirected to
    it, it loops on ``lab`` itself, and it copies every other outgoing edge
    and the acceptance status of ``v``.  The construction preserves the
    language, the Wheeler order, and determinism; it is only sound for the
    loops reported by :func:`unrollable_loops`.
    """
    if (v, lab) not in unrollable_loops(a):
        raise ValueError(f"self-loop ({v}, {a.alphabet.symbols[lab]}) is not unrollable")
    w = v + 1

    def shift(x: int) -> int:
        return x if x <= v else x + 1

    edges = []
    for x, y, lb in a.edges:
        if (x, y, lb) == (v, v, lab):
            edges.append((v, w, lab))
        else:
            edges.append((shift(x), shift(y), lb))
        if x == v and (y, lb) != (v, lab):
            # the copy replicates v's non-loop behaviour
            edges.append((w, w if y == v else shift(y), lb))
    edges.append((w, w, lab))

    finals = {shift(f) for f in a.finals}
    if v in a.finals:
        finals.add(w)
    return WheelerNfa(a.n + 1, a.alphabet, tuple(edges), frozenset(finals))


def _addable_self_loops(a: WheelerNfa) -> list[tuple[int, int]]:
    """(state, label) pairs where a new self-loop keeps the automaton a
    Wheeler DFA and becomes unrollable afterwards."""
    ex = compute_extrema(a)
    by_label: dict[int, list[tuple[int, int]]] = {}
    for u, v, lab in a.edges:
        by_label.setdefault(lab, []).append((u, v))
    found = []
    for v in range(1, a.n + 1):
        lab = ex.a_max[v]
        if lab is None or lab in ex.out_sets[v]:
            continue
        ok = all(
            (x <= v if t <= v else x >= v) for x, t in by_label.get(lab, ())
        )
        if ok:
            found.append((v, lab))
    return found


def gen_equal_language_dfa_pair(
    seed: int, n: int = 8, sigma: int = 3, unrolls: int = 2
) -> tuple[WheelerNfa, WheelerNfa]:
    """Two Wheeler DFAs with the same language but usually different shapes.

    A random Wheeler DFA gains a couple of sound self-loops, then each side
    unrolls independently chosen loops; when no loop qualifies a side stays
    as drawn.  Deterministic per seed.
    """
    rng = random.Random(seed)
    base = gen_random_wheeler(n, 2, sigma, rng.randrange(2**30), deterministic=True)
    for _ in range(2):
        spots = _addable_self_loops(base)
        if not spots:
            break
        v, lab = spots[rng.randrange(len(spots))]
        base = WheelerNfa(
            base.n, base.alphabet, base.edges + ((v, v, lab),), base.finals
        )

    def expand(x: WheelerNfa) -> WheelerNfa:
        for _ in range(rng.randint(0, unrolls)):
            loops = unrollable_loops(x)
            if not loops:
                break
            v, lab = loops[rng.randrange(len(loops))]
            x = unroll_self_loop(x, v, lab)
        return x

    return expand(base), expand(base)

