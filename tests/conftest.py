import gc
import itertools
import random

import pytest

from wnfa import (
    BoundaryBits,
    CheckFailure,
    OrderedAlphabet,
    QuotientResult,
    Relation,
    ValidationReport,
    Violation,
    ViolationKind,
    WheelerNfa,
    compute_extrema,
    gen_random_wheeler,
    is_deterministic,
)
from wnfa.minimize import TRACE_DEQUEUE, TRACE_SEED, TRACE_SET_JMAX, TRACE_SET_JMIN


@pytest.fixture
def collector_back_on():
    """Turns the cyclic collector back on after the test, whatever the test left."""
    yield
    gc.enable()


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


def successor_maps(a: WheelerNfa) -> list[dict[int, list[int]]]:
    """Per-state map label rank -> target list (index 0 unused), from the edge list.

    The edges come in canonical order, so the labels and each label's
    targets ascend.
    """
    out: list[dict[int, list[int]]] = [{} for _ in range(a.n + 1)]
    for u, v, lab in a.edges:
        out[u].setdefault(lab, []).append(v)
    return out


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
# Relation helpers and language comparisons used only by the tests.
# --------------------------------------------------------------------------


def image(rel: Relation, positions) -> frozenset[int]:
    positions = set(positions)
    return frozenset(j for i, j in rel.pairs if i in positions)


def preimage(rel: Relation, positions) -> frozenset[int]:
    positions = set(positions)
    return frozenset(i for i, j in rel.pairs if j in positions)


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


def reference_check(a: WheelerNfa, a2: WheelerNfa, rel: Relation, wheeler: bool):
    """:func:`wnfa.is_bisimulation`, or with ``wheeler`` :func:`wnfa.is_wheeler_bisimulation`,
    pair by pair from the definitions, with the same first failure.

    For each pair in sorted order, each edge of its left state, in canonical
    order, needs an edge of its right state on the same token into a related
    pair of targets; then the same for every pair's right edges; then the
    pair (1, 1) and each pair's finality.  With ``wheeler``, every interval
    of positions, on the left and then on the right, must have a convex
    image: the witness is the failing interval with the least right end,
    and of those the shortest.
    """
    edges1 = [(u, v, lab, a.alphabet.symbols[lab]) for u, v, lab in a.edges]
    edges2 = [(u, v, lab, a2.alphabet.symbols[lab]) for u, v, lab in a2.edges]
    pairs = sorted(rel.pairs)
    for u, u2 in pairs:
        for x, v, lab, tok in edges1:
            if x == u and not any(
                (x2, tok2) == (u2, tok) and (v, v2) in rel.pairs for x2, v2, _, tok2 in edges2
            ):
                return CheckFailure("forward", pair=(u, u2), edge=(u, v, lab))
    for u, u2 in pairs:
        for x2, v2, lab, tok in edges2:
            if x2 == u2 and not any(
                (x, tok1) == (u, tok) and (v, v2) in rel.pairs for x, v, _, tok1 in edges1
            ):
                return CheckFailure("backward", pair=(u, u2), edge=(u2, v2, lab))
    if (1, 1) not in rel.pairs:
        return CheckFailure("initial")
    for u, u2 in pairs:
        if (u in a.finals) != (u2 in a2.finals):
            return CheckFailure("finality", pair=(u, u2))
    if not wheeler:
        return None
    for rule, size, side in (
        ("image-convexity", a.n, rel.pairs),
        ("preimage-convexity", a2.n, {(j, i) for i, j in rel.pairs}),
    ):
        for j in range(1, size + 1):
            for i in range(j, 0, -1):
                img = frozenset(q for p, q in side if i <= p <= j)
                if not is_convex(img):
                    return CheckFailure(rule, interval=(i, j), image=img)
    return None


def convexity_by_images(rel: Relation) -> CheckFailure | None:
    """The convexity checks of :func:`wnfa.is_wheeler_bisimulation`, over image lists.

    One list per related position on each side, with its bounds taken by
    ``min`` and ``max``.  Positions are scanned ascending: a position whose
    image is not convex fails alone, and one whose image neither overlaps
    nor touches the previous non-empty image fails with it.  The pairs are
    distinct, so each list holds no repeats and its length is its image's
    size.
    """
    fwd: dict[int, list[int]] = {}
    back: dict[int, list[int]] = {}
    for i, j in rel.pairs:
        fwd.setdefault(i, []).append(j)
        back.setdefault(j, []).append(i)
    for rule, images in (("image-convexity", fwd), ("preimage-convexity", back)):
        prev = prev_lo = prev_hi = None
        for p in sorted(images):
            lo, hi = min(img := images[p]), max(img)
            if hi - lo + 1 != len(img):
                return CheckFailure(rule, interval=(p, p), image=frozenset(img))
            if prev is not None and (lo > prev_hi + 1 or hi < prev_lo - 1):
                return CheckFailure(rule, interval=(prev, p), image=frozenset(images[prev] + img))
            prev, prev_lo, prev_hi = p, lo, hi
    return None


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

    succ1 = successor_maps(a)
    succ2 = successor_maps(a2)
    to2 = [a2.alphabet.rank.get(tok) for tok in a.alphabet.symbols]
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


def dfa_language_equal(a: WheelerNfa, a2: WheelerNfa) -> tuple[bool, int]:
    """Language equality of two validated DFAs by a product BFS from (1, 1).

    Every state of a validated automaton is co-reachable, so a reachable
    pair whose states differ in finality or in their outgoing tokens proves
    the languages differ; with no such pair they are equal.  The BFS follows
    every token the two states share, so it visits the whole reachable
    product.  Returns (equal, number of reachable pairs).  For Wheeler DFAs
    a pair is a non-empty intersection of two co-lex interval partitions,
    so there are at most n1 + n2 - 1 pairs.
    """
    for side in (a, a2):
        if not is_deterministic(side):
            raise ValueError("dfa_language_equal needs deterministic inputs")

    def steps(x: WheelerNfa) -> list[dict[str, int]]:
        step: list[dict[str, int]] = [{} for _ in range(x.n + 1)]
        for u, v, lab in x.edges:
            step[u][x.alphabet.symbols[lab]] = v
        return step

    step1, step2 = steps(a), steps(a2)
    equal = True
    seen = {(1, 1)}
    queue = [(1, 1)]
    for u, u2 in queue:
        out1, out2 = step1[u], step2[u2]
        if (u in a.finals) != (u2 in a2.finals) or out1.keys() != out2.keys():
            equal = False
        for tok in out1.keys() & out2.keys():
            pair = (out1[tok], out2[tok])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return equal, len(seen)


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
    succ1 = successor_maps(a)
    succ2 = successor_maps(a2)

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


def convex_signature_refinement(a: WheelerNfa) -> BoundaryBits:
    """Maximum order-respecting autobisimulation by polynomial refinement.

    Cut every boundary where finality or the out-label sets differ, then cut
    boundary i whenever states i-1 and i have different sets of (label,
    successor class) pairs, until nothing changes.  Each round is
    O(n + |E|), and every round but the last cuts a boundary, so there are
    at most n rounds.
    """
    succ = successor_maps(a)
    bits = [
        ((i - 1) in a.finals) != (i in a.finals) or succ[i - 1].keys() != succ[i].keys()
        for i in range(2, a.n + 1)
    ]
    while True:
        at = (0,) + BoundaryBits(a.n, bits).class_map
        sig = [None] + [
            {(lab, at[v]) for lab, targets in succ[p].items() for v in targets}
            for p in range(1, a.n + 1)
        ]
        cut = [b or sig[i - 1] != sig[i] for i, b in enumerate(bits, 2)]
        if cut == bits:
            return BoundaryBits(a.n, bits)
        bits = cut


def _closure(start, pairs) -> set:
    """The least superset of ``start`` that holds y whenever it holds x, for each (x, y) in ``pairs``."""
    closed = set(start)
    grew = True
    while grew:
        grew = False
        for x, y in pairs:
            if x in closed and y not in closed:
                closed.add(y)
                grew = True
    return closed


def reference_validation(a: WheelerNfa) -> ValidationReport:
    """:func:`wnfa.validate` from the definitions, in the same report order.

    The reachable states are the least set holding state 1 and closed along
    every edge, the co-reachable ones the least set holding the finals and
    closed against every edge: fixpoints over the whole edge set, with no
    adjacency lists.  An edge pair breaks Axiom 2 when its labels and its
    targets are ordered opposite ways, and Axiom 3 when it shares a label
    and crosses, as in the all-pairs check of ``tests/test_automaton.py``.
    The report names each breaking pair that is adjacent in (label, target,
    source) order: the edge with the smaller target first.
    """
    reach = _closure({1}, [(u, v) for u, v, _ in a.edges])
    # from the last source down, so that most states are settled in one sweep
    co = _closure(a.finals, [(v, u) for u, v, _ in reversed(a.edges)])
    states = range(1, a.n + 1)
    violations = [Violation(ViolationKind.NOT_REACHABLE, (u,)) for u in states if u not in reach]
    violations += [Violation(ViolationKind.NOT_CO_REACHABLE, (u,)) for u in states if u not in co]
    ordered = sorted(a.edges, key=lambda e: (e[2], e[1], e[0]))
    for e1, e2 in zip(ordered, ordered[1:]):
        (u1, v1, k1), (u2, v2, k2) = e1, e2
        if k1 < k2 and v1 > v2:
            violations.append(Violation(ViolationKind.AXIOM2, (e2, e1)))
        elif k1 == k2 and u2 < u1 and v2 > v1:
            violations.append(Violation(ViolationKind.AXIOM3, (e1, e2)))
    return ValidationReport(tuple(violations))


def reference_quotient(a: WheelerNfa, bits: BoundaryBits) -> QuotientResult:
    """:func:`wnfa.quotient` through the public, fully checked constructor.

    Maps edges and finals through the class map, deduplicates the edges in
    first-seen order and lets :class:`WheelerNfa` range-check, sort and
    duplicate-scan them, with the same two ValueErrors as ``quotient``.
    """
    if bits.n != a.n:
        raise ValueError(f"bit array covers {bits.n} states, automaton has {a.n}")
    class_map = bits.class_map
    at = (0,) + class_map
    edges = dict.fromkeys((at[u], at[v], lb) for u, v, lb in a.edges)
    finals = frozenset(at[f] for f in a.finals)
    q = WheelerNfa(class_map[-1], a.alphabet, tuple(edges), finals)
    if is_deterministic(a) and not is_deterministic(q):
        raise ValueError("quotient of a deterministic automaton went non-deterministic")
    return QuotientResult(q, class_map)


def out_label_sets(a: WheelerNfa) -> list[frozenset[int]]:
    """The set of labels on each state's out-edges, index 0 unused, from the edge list."""
    out: list[set[int]] = [set() for _ in range(a.n + 1)]
    for u, _, lab in a.edges:
        out[u].add(lab)
    return [frozenset(labels) for labels in out]


def reference_z(a: WheelerNfa) -> list[bool]:
    """``compute_extrema(a).z`` by its definition: whether the out-label sets
    of states i-1 and i differ, for 2 <= i <= n; indices 0 and 1 are False."""
    out = out_label_sets(a)
    return [False, False] + [out[i - 1] != out[i] for i in range(2, a.n + 1)]


def reference_trace(a: WheelerNfa) -> tuple[BoundaryBits, list]:
    """:func:`wnfa.boundary_bits` recording each event as the loop runs it.

    The propagation loop with a ``record`` call per seed, dequeue and cut,
    so the trace is the execution order by construction; ``boundary_bits``
    replays the same events from its queue after the loop.
    """
    n = a.n
    ex = compute_extrema(a)
    bits = [False] * (n + 1)
    queue: list[int] = []
    trace: list = []

    def record(event: str, index: int):
        trace.append((event, index))

    for i in range(2, n + 1):
        if ((i - 1) in a.finals) != (i in a.finals) or ex.z[i]:
            queue.append(i)
            bits[i] = True
            record(TRACE_SEED, i)

    for i in queue:
        record(TRACE_DEQUEUE, i)
        jm = ex.j_min[i]
        if jm is not None and jm >= 2 and not bits[jm]:
            queue.append(jm)
            bits[jm] = True
            record(TRACE_SET_JMIN, jm)
        jx = ex.j_max[i - 1]
        if jx is not None and jx <= n - 1 and not bits[jx + 1]:
            queue.append(jx + 1)
            bits[jx + 1] = True
            record(TRACE_SET_JMAX, jx + 1)

    return BoundaryBits(n, tuple(bits[2 : n + 1])), trace


# --------------------------------------------------------------------------
# Equal-language Wheeler DFA pairs, via self-loop unrolling.
# --------------------------------------------------------------------------


def unrollable_loops(a: WheelerNfa) -> list[tuple[int, int]]:
    """Self-loops (state, label) that :func:`unroll_self_loop` may expand."""
    ex = compute_extrema(a)
    out_by_label = successor_maps(a)
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
    out = out_label_sets(a)
    by_label: dict[int, list[tuple[int, int]]] = {}
    for u, v, lab in a.edges:
        by_label.setdefault(lab, []).append((u, v))
    found = []
    for v in range(1, a.n + 1):
        lab = ex.a_max[v]
        if lab is None or lab in out[v]:
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

